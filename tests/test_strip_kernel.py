"""The epsilon-grid transfer kernel against the per-epsilon loop it replaced.

`transfer_log_norms` runs one recurrence over an (eps, theta) batch and
builds every row's symbol from one cos/sin evaluation per step.  The
reference below is the loop it replaced: one recurrence per eps, the symbol
from `Potential.eval_z` at the complex exponential (or the real cosine form
at eps = 0), and renormalization by division.  The two must agree bit for
bit, which rests on the C library property checked first.
"""

import math

import numpy as np
import pytest

from strata_lab import Potential, lyapunov_n, transfer_log_norms

POTENTIALS = {
    "amo2": Potential.amo(2.0),
    "cos4pi": Potential({2: 1.0, -2: 1.0}),          # 2 cos(4 pi theta)
    "k0_3_complex": Potential({0: 0.3, 1: 0.5 + 0.2j, -1: 0.5 - 0.2j,
                               3: 0.7 - 0.4j, -3: 0.7 + 0.4j}),
}
GRID = (0.0, 0.02, -0.03, 0.1, -0.2, 0.0, 0.05)


def _reference_symbol(pot, theta, eps):
    if eps == 0.0:
        out = np.zeros(theta.shape)
        for k, c in pot.coeffs_dict().items():
            if k == 0:
                out = out + c.real
            elif k > 0:
                ang = 2.0 * math.pi * k * theta
                out = out + 2.0 * (c.real * np.cos(ang) - c.imag * np.sin(ang))
        return out
    return pot.eval_z(np.exp(2j * math.pi * (theta + 1j * eps)))


def _reference_log_norms(pot, alpha, thetas, E, eps, n):
    K = len(thetas)
    a, b = np.ones(K, complex), np.zeros(K, complex)
    c, d = np.zeros(K, complex), np.ones(K, complex)
    acc = np.zeros(K)
    for j in range(n):
        t = E - _reference_symbol(pot, np.mod(thetas + j * alpha, 1.0), eps)
        a, b, c, d = t * a - c, t * b - d, a, b
        m = np.maximum(np.maximum(np.abs(a), np.abs(b)),
                       np.maximum(np.abs(c), np.abs(d)))
        a /= m
        b /= m
        c /= m
        d /= m
        acc += np.log(m)
    return acc


def test_complex_exp_is_exp_times_cos_sin():
    # the grid symbol builds e^{2 pi i (theta + i eps)} from shared cos/sin;
    # its bytes equal the old per-eps path only where the C library's
    # complex exp rounds as exp(x) * (cos y, sin y)
    theta = np.random.default_rng(5).uniform(0.0, 1.0, 4099)
    ang = 2.0 * math.pi * theta
    for eps in (0.02, -0.03, 0.1, -0.49):
        z = np.exp(2j * math.pi * (theta + 1j * eps))
        scale = math.exp(-2.0 * math.pi * eps)
        assert np.array_equal(z.real, scale * np.cos(ang)) and np.array_equal(
            z.imag, scale * np.sin(ang)), (
            "this C library's complex exp does not round as exp * (cos, sin);"
            " grid and per-eps strip exponents will differ in the last bits")


@pytest.mark.parametrize("name", sorted(POTENTIALS))
@pytest.mark.parametrize("E", [0.5, 3.7])
def test_grid_kernel_matches_per_eps_loop(name, E, golden):
    pot = POTENTIALS[name]
    thetas = np.arange(33) / 33.0
    got = transfer_log_norms(pot, golden, thetas, E, np.array(GRID), 40)
    assert got.shape == (len(GRID), len(thetas))
    for row, eps in zip(got, GRID):
        ref = _reference_log_norms(pot, golden, thetas, E, eps, 40)
        assert np.array_equal(row, ref)
        assert np.array_equal(
            transfer_log_norms(pot, golden, thetas, E, eps, 40), ref)


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_grid_eval_theta_matches_per_eps(name):
    pot = POTENTIALS[name]
    theta = np.random.default_rng(11).uniform(0.0, 1.0, 37)
    rows = pot.eval_theta(theta, list(GRID))
    assert rows.shape == (len(GRID), len(theta))
    for row, eps in zip(rows, GRID):
        one = pot.eval_theta(theta, eps)
        assert np.array_equal(row, one)
        if eps == 0.0:
            assert one.dtype == np.float64
            assert np.array_equal(one, _reference_symbol(pot, theta, 0.0))
        else:
            z = np.exp(2j * math.pi * (theta + 1j * eps))
            np.testing.assert_allclose(one, pot.eval_z(z), rtol=0, atol=1e-12)


def test_lyapunov_grid_form_matches_scalar_calls(amo2, golden):
    grid = [0.0, 0.02, 0.05]
    ests = lyapunov_n(amo2, golden, 0.5, 64, grid, K=32)
    assert isinstance(ests, tuple) and len(ests) == len(grid)
    for est, eps in zip(ests, grid):
        assert est == lyapunov_n(amo2, golden, 0.5, 64, eps, K=32)


def test_grid_refuses_eps_outside_the_strip(amo2, golden):
    with pytest.raises(ValueError):
        transfer_log_norms(amo2, golden, np.array([0.0]), 0.5,
                           np.array([0.0, 0.5]), 4)
    with pytest.raises(ValueError):
        transfer_log_norms(amo2, golden, np.array([0.0]), 0.5,
                           np.array([-0.6, 0.1]), 4)
    with pytest.raises(ValueError):
        amo2.eval_theta(np.array([0.1]), [0.0, 0.7])
    with pytest.raises(ValueError):
        amo2.eval_theta(np.array([0.1]), [[0.0, 0.1]])
