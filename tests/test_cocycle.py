import math

import numpy as np
import pytest

from strata_lab import (acceleration, classify_stratum, lyapunov_n,
                        strata_measure, transfer_log_norms)

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


def test_lyapunov_is_log_coupling(amo2, golden):
    est = lyapunov_n(amo2, golden, 0.5, 512, 0.0, K=256)
    assert est.value == pytest.approx(LOG2, abs=0.02)
    assert est.std_error < 0.01
    assert (est.n, est.quadrature_points) == (512, 256)


@pytest.mark.parametrize("eps", [0.02, 0.05])
def test_strip_slope_adds_two_pi_eps(amo2, golden, eps):
    est = lyapunov_n(amo2, golden, 0.5, 512, eps, K=256)
    assert est.value == pytest.approx(LOG2 + 2.0 * math.pi * eps, abs=0.02)


def test_free_lyapunov_vanishes(free, golden):
    assert abs(lyapunov_n(free, golden, 1.0, 256, 0.0, K=64).value) < 0.05


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
    assert classify_stratum(E=0.5, **kwargs).label == label


def test_strata_measure_accumulates_cells():
    recs = [classify_stratum(0.1, 0.7, 1), classify_stratum(0.2, 0.7, 1),
            classify_stratum(0.3, 0.01, 2)]
    assert strata_measure(recs, 0.1) == pytest.approx(
        {"S2+": 0.2, "S30": 0.1})
