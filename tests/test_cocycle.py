import math

import numpy as np
import pytest

from strata_lab import (Potential, acceleration, classify_stratum,
                        lyapunov_n, transfer_log_norms)

LOG2 = math.log(2.0)


def test_transfer_log_norms_oracle(amo2, golden):
    # sup-norm renormalized product against the direct ordered product
    thetas = np.array([0.0, 0.3, 0.77])
    E, eps, n = 0.5, 0.03, 6
    logs, units = transfer_log_norms(amo2, golden, thetas, E, eps, n,
                                     return_matrices=True)
    for i, th in enumerate(thetas):
        M = np.eye(2, dtype=complex)
        for j in range(n):
            f = amo2.eval_theta(th + j * golden, eps)
            M = np.array([[E - f, -1.0], [1.0, 0.0]]) @ M
        sup = float(np.max(np.abs(M)))
        assert logs[i] == pytest.approx(math.log(sup), abs=1e-10)
        np.testing.assert_allclose(math.exp(logs[i]) * units[i], M,
                                   rtol=1e-10, atol=1e-10)


def test_transfer_validation(amo2, golden):
    with pytest.raises(ValueError):
        transfer_log_norms(amo2, golden, np.array([0.0]), 0.5, 0.0, 0)
    with pytest.raises(ValueError):
        transfer_log_norms(amo2, golden, np.array([0.0]), 0.5, 0.6, 4)


def test_transfer_refuses_a_strip_that_overflows_the_symbol(golden):
    # log(2 * 1000) + 2 pi eps crosses ln(DBL_MAX) = 709.78 near eps = 111.76
    pot = Potential.amo(1000.0, eta=1000.0)
    with pytest.raises(ValueError, match="overflows a double"):
        transfer_log_norms(pot, golden, np.array([0.0]), 0.5, 112.5, 4)
    logs = transfer_log_norms(pot, golden, np.array([0.0]), 0.5, 111.0, 4)
    assert np.all(np.isfinite(logs))
    # a tiny coefficient does not save 2 cosh(2 pi eps) = e^722.6
    tiny = Potential.amo(1e-10, eta=1000.0)
    with pytest.raises(ValueError, match="overflows a double"):
        transfer_log_norms(tiny, golden, np.array([0.0]), 0.5, 115.0, 4)


def test_lyapunov_is_log_coupling(amo2, golden):
    est = lyapunov_n(amo2, golden, 0.5, 512, 0.0, K=256)
    assert est.shape == (2,)    # the estimate and its standard error
    L, std_error = est
    assert L == pytest.approx(LOG2, abs=0.02)
    assert std_error < 0.01


@pytest.mark.parametrize("eps", [0.02, 0.05])
def test_strip_slope_adds_two_pi_eps(amo2, golden, eps):
    L = lyapunov_n(amo2, golden, 0.5, 512, eps, K=256)[0]
    assert L == pytest.approx(LOG2 + 2.0 * math.pi * eps, abs=0.02)


def test_free_lyapunov_vanishes(free, golden):
    assert abs(lyapunov_n(free, golden, 1.0, 256, 0.0, K=64)[0]) < 0.05


def test_acceleration_unit_slope(amo2, golden):
    est = acceleration(amo2, golden, 0.5, np.linspace(0.02, 0.1, 5),
                       n=256, K=128)
    assert est.kappa == 1
    assert est.residual < 0.05
    assert not est.non_affine


def test_acceleration_validation(amo2, golden):
    with pytest.raises(ValueError):
        acceleration(amo2, golden, 0.5, [0.05], n=64, K=16)
    with pytest.raises(ValueError):
        acceleration(amo2, golden, 0.5, [-0.01, 0.05], n=64, K=16)


@pytest.mark.parametrize("kwargs,label", [
    (dict(L0=0.69, kappa=1), "S2+"),
    (dict(L0=0.01, kappa=1), "S20"),
    (dict(L0=0.02, kappa=2), "S30"),
    (dict(L0=0.80, kappa=0), "subcritical"),
    (dict(L0=0.80, kappa=1, in_spectrum=False), "off-spectrum"),
    (dict(L0=0.80, kappa=1, non_affine=True), "unclassified"),
])
def test_stratum_labels(kwargs, label):
    full = {"non_affine": False, "in_spectrum": True, **kwargs}
    assert classify_stratum(**full) == label
