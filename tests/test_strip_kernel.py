"""The batched strip kernel against the loop it replaced and against itself.

`transfer_log_norms` runs one recurrence over an (E, eps, theta) batch,
rescales it by exact powers of two and builds every row's symbol from one
cos/sin evaluation per step.  The first reference below is the per-epsilon
loop it replaced: one recurrence per eps, the symbol from the Laurent form
at the complex exponential (or the real cosine form at eps = 0), and
renormalization by division at every step.  It rounds differently, so the
two agree within a fixed bound on the log-norms, and an extended-precision
evaluation checks that both lie within it of the exact product.  Grid rows,
the energy axis, the n-ladder and the rescaling interval are checked against
separate calls of the kernel itself, bit for bit.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from strata_lab import (GOLDEN_MEAN, Potential, acceleration, cocycle,
                        lyapunov_n, transfer_log_norms)
from strata_lab.cli_harness import ExperimentConfig, _task_strata

POTENTIALS = {
    "amo2": Potential.amo(2.0),
    "cos4pi": Potential({2: 1.0, -2: 1.0}),          # 2 cos(4 pi theta)
    "k0_3_complex": Potential({0: 0.3, 1: 0.5 + 0.2j, -1: 0.5 - 0.2j,
                               3: 0.7 - 0.4j, -3: 0.7 + 0.4j}),
}
GRID = (0.0, 0.02, -0.03, 0.1, -0.2, 0.0, 0.05)
ENERGIES = np.array([-3.1, 0.5, 1.5, 3.7, 5.2])

# |kernel - loop| on the log-norms at n = 40.  Each of the 40 steps rounds
# the symbol and the 2x2 step to a few ulps (2.2e-16 relative) in each
# evaluation, about 40 * 10 * 2.2e-16 ~ 1e-13 in the log of the product;
# the bound leaves a factor 10.  `test_both_recurrences_are_near_extended_
# precision` checks each against an 80-bit evaluation with the same bound.
LOOP_BOUND = 1e-12


def _reference_symbol(pot, theta, eps, laurent):
    if eps == 0.0:
        out = np.zeros(theta.shape)
        for k, c in pot.coeffs_dict().items():
            if k == 0:
                out = out + c.real
            elif k > 0:
                ang = 2.0 * math.pi * k * theta
                out = out + 2.0 * (c.real * np.cos(ang) - c.imag * np.sin(ang))
        return out
    return laurent(pot, np.exp(2j * math.pi * (theta + 1j * eps)))


def _reference_log_norms(pot, alpha, thetas, E, eps, n, laurent):
    K = len(thetas)
    a, b = np.ones(K, complex), np.zeros(K, complex)
    c, d = np.zeros(K, complex), np.ones(K, complex)
    acc = np.zeros(K)
    for j in range(n):
        t = E - _reference_symbol(pot, np.mod(thetas + j * alpha, 1.0), eps,
                                  laurent)
        a, b, c, d = t * a - c, t * b - d, a, b
        m = np.maximum(np.maximum(np.abs(a), np.abs(b)),
                       np.maximum(np.abs(c), np.abs(d)))
        a /= m
        b /= m
        c /= m
        d /= m
        acc += np.log(m)
    return acc


def _extended_log_norms(pot, alpha, thetas, E, eps, n):
    """The unnormalized product in long double at the kernel's float64
    phases: the log-norms to about 1e-17, far inside the bound."""
    two_pi = 8 * np.arctan(np.longdouble(1))
    K = len(thetas)
    a, b = np.ones(K, np.clongdouble), np.zeros(K, np.clongdouble)
    c, d = b.copy(), a.copy()
    for j in range(n):
        x = thetas + j * alpha
        ang = two_pi * (x - np.floor(x)).astype(np.longdouble)
        f = np.zeros(K, np.clongdouble)
        for k, ck in pot.coeffs_dict().items():
            decay = np.exp(-two_pi * k * np.longdouble(eps))
            f += (np.clongdouble(ck) * decay
                  * (np.cos(k * ang) + 1j * np.sin(k * ang)))
        t = E - f
        a, b, c, d = t * a - c, t * b - d, a, b
    return np.log(np.maximum(np.maximum(np.abs(a), np.abs(b)),
                             np.maximum(np.abs(c), np.abs(d))))


@pytest.mark.parametrize("name", sorted(POTENTIALS))
@pytest.mark.parametrize("E", [0.5, 3.7])
def test_grid_kernel_matches_per_eps_loop(name, E, golden, laurent):
    pot = POTENTIALS[name]
    thetas = np.arange(33) / 33.0
    got = transfer_log_norms(pot, golden, thetas, E, np.array(GRID), 40)
    assert got.shape == (len(GRID), len(thetas))
    for row, eps in zip(got, GRID):
        assert np.array_equal(
            row, transfer_log_norms(pot, golden, thetas, E, eps, 40))
        ref = _reference_log_norms(pot, golden, thetas, E, eps, 40, laurent)
        assert np.max(np.abs(row - ref)) <= LOOP_BOUND


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("name", sorted(POTENTIALS))
@pytest.mark.parametrize("E", [0.5, 3.7])
def test_both_recurrences_are_near_extended_precision(name, E, golden, laurent):
    pot = POTENTIALS[name]
    thetas = np.arange(33) / 33.0
    got = transfer_log_norms(pot, golden, thetas, E, np.array(GRID), 40)
    for row, eps in zip(got, GRID):
        exact = _extended_log_norms(pot, golden, thetas, E, eps, 40)
        ref = _reference_log_norms(pot, golden, thetas, E, eps, 40, laurent)
        assert np.max(np.abs(row - exact)) <= LOOP_BOUND
        assert np.max(np.abs(ref - exact)) <= LOOP_BOUND


@pytest.mark.parametrize("every", [1, 7])
def test_rescale_interval_changes_no_bit(every, golden, monkeypatch):
    pot = POTENTIALS["k0_3_complex"]
    thetas = np.arange(16) / 16.0
    ladder = (1, 150, 150, 433)
    # the derived interval rescales this batch a few times in 600 steps
    assert 1 < cocycle._rescale_interval(pot, ENERGIES, np.array(GRID)) < 200
    for eps in (np.array(GRID), 0.0):
        whole = transfer_log_norms(pot, golden, thetas, ENERGIES, eps, 600,
                                   ladder=ladder)
        logs, mats = transfer_log_norms(pot, golden, thetas, ENERGIES, eps,
                                        600, return_matrices=True)
        with monkeypatch.context() as mp:
            mp.setattr(cocycle, "_rescale_interval", lambda *args: every)
            assert np.array_equal(whole, transfer_log_norms(
                pot, golden, thetas, ENERGIES, eps, 600, ladder=ladder))
            forced = transfer_log_norms(pot, golden, thetas, ENERGIES, eps,
                                        600, return_matrices=True)
        assert np.array_equal(logs, forced[0])
        assert np.array_equal(mats, forced[1])
        # the residual matrices keep largest entry modulus 1
        largest = np.max(np.abs(mats), axis=(-2, -1))
        assert np.all(np.abs(largest - 1.0) <= 4 * np.finfo(float).eps)


def test_huge_energy_still_runs():
    pot = Potential.amo(2.0)
    assert cocycle._rescale_interval(pot, np.array(1e300), np.array(0.1)) == 1
    for eps in (0.0, 0.1):
        est = lyapunov_n(pot, GOLDEN_MEAN, 1e300, 512, eps, K=64)
        assert "%.12g" % est.value == "690.775527898"


def test_deep_strip_stays_finite_and_near_the_loop(laurent):
    # L(E, 0.45) = log 50 + 2 pi 0.45 ~ 6.7 a step: a log-norm near 27,600
    pot, n, eps = Potential.amo(50.0), 4096, 0.45
    thetas = np.arange(8) / 8.0
    got = transfer_log_norms(pot, GOLDEN_MEAN, thetas, 0.5, eps, n)
    ref = _reference_log_norms(pot, GOLDEN_MEAN, thetas, 0.5, eps, n, laurent)
    assert np.all(np.isfinite(got))
    # the loop's running sum of n logs rounds by up to half an ulp of its
    # total at every step; the kernel sums no logs
    assert np.all(np.abs(got - ref) <= n * np.spacing(ref))


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_grid_eval_theta_matches_per_eps(name, laurent):
    pot = POTENTIALS[name]
    theta = np.random.default_rng(11).uniform(0.0, 1.0, 37)
    rows = pot.eval_theta(theta, list(GRID))
    assert rows.shape == (len(GRID), len(theta))
    for row, eps in zip(rows, GRID):
        one = pot.eval_theta(theta, eps)
        assert np.array_equal(row, one)
        if eps == 0.0:
            assert one.dtype == np.float64
            assert np.array_equal(
                one, _reference_symbol(pot, theta, 0.0, laurent))
        else:
            z = np.exp(2j * math.pi * (theta + 1j * eps))
            np.testing.assert_allclose(one, laurent(pot, z), rtol=0, atol=1e-12)


@pytest.mark.parametrize("pot", [
    Potential.amo(2.0), Potential({1: 1.6, -1: 1.6, 2: 1.0, -2: 1.0}),
    POTENTIALS["k0_3_complex"]], ids=["amo2", "two_harmonic", "k0_3_complex"])
@pytest.mark.parametrize("E", [-2.644, 1.7])
def test_kernel_rows_are_even_in_eps(pot, E, golden):
    # riesz_mass takes the inner flux circles' values from the outer ones
    thetas = np.arange(256) / 256
    logs = transfer_log_norms(pot, golden, thetas, E,
                              [0.021, 0.019, -0.021, -0.019, 0.3, -0.3], 300)
    assert np.array_equal(logs[:2], logs[2:4])
    assert np.array_equal(logs[4], logs[5])


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


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_all_zero_grid_runs_in_real_arithmetic(name, golden):
    pot = POTENTIALS[name]
    thetas = np.arange(33) / 33.0
    rows = pot.eval_theta(thetas, [0.0, 0.0])
    assert rows.dtype == np.float64
    assert np.array_equal(rows[1], pot.eval_theta(thetas, 0.0))
    got = transfer_log_norms(pot, golden, thetas, ENERGIES, [0.0], 40)
    assert got.shape == (len(ENERGIES), 1, len(thetas))
    assert np.array_equal(
        got[:, 0], transfer_log_norms(pot, golden, thetas, ENERGIES, 0.0, 40))


@pytest.mark.parametrize("name", sorted(POTENTIALS))
@pytest.mark.parametrize("eps", [np.array(GRID), 0.0, -0.04],
                         ids=["grid", "real", "negative"])
def test_energy_batch_matches_per_energy_loop(name, eps, golden):
    pot = POTENTIALS[name]
    thetas = np.arange(17) / 17.0
    got = transfer_log_norms(pot, golden, thetas, ENERGIES, eps, 30)
    assert got.shape == ENERGIES.shape + np.shape(eps) + thetas.shape
    for row, E in zip(got, ENERGIES):
        assert np.array_equal(
            row, transfer_log_norms(pot, golden, thetas, float(E), eps, 30))


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_ladder_snapshots_match_separate_runs(name, golden):
    pot = POTENTIALS[name]
    thetas = np.arange(16) / 16.0
    ladder = (1, 7, 7, 23, 40)
    got = transfer_log_norms(pot, golden, thetas, ENERGIES[:3],
                             np.array(GRID), 40, ladder=ladder)
    assert got.shape == (len(ladder), 3, len(GRID), len(thetas))
    for snap, n in zip(got, ladder):
        assert np.array_equal(snap, transfer_log_norms(
            pot, golden, thetas, ENERGIES[:3], np.array(GRID), n))


def test_kernel_refuses_bad_ladders_and_energy_shapes(amo2, golden):
    thetas = np.array([0.0, 0.5])
    for ladder in ((4, 2), (0, 4), (4, 5)):
        with pytest.raises(ValueError):
            transfer_log_norms(amo2, golden, thetas, 0.5, 0.0, 4, ladder=ladder)
    with pytest.raises(ValueError):
        transfer_log_norms(amo2, golden, thetas, np.ones((2, 2)), 0.0, 4)
    with pytest.raises(ValueError):
        lyapunov_n(amo2, golden, 0.5, [], 0.0, K=4)


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_lyapunov_flat_order_is_energy_n_eps(name, golden):
    pot = POTENTIALS[name]
    Es, ns, grid = [0.5, 3.7], [8, 24], [0.0, 0.05, -0.02]
    ests = lyapunov_n(pot, golden, Es, ns, grid, K=32)
    assert len(ests) == len(Es) * len(ns) * len(grid)
    for est, (E, n, eps) in zip(ests, itertools.product(Es, ns, grid)):
        assert est == lyapunov_n(pot, golden, E, n, eps, K=32)
    # a scalar at every position but one still gives the flat tuple
    assert lyapunov_n(pot, golden, [0.5], 8, 0.0, K=32) == (
        lyapunov_n(pot, golden, 0.5, 8, 0.0, K=32),)


def test_energy_blocks_do_not_change_any_estimate(amo2, golden, monkeypatch):
    grid, K = [0.0, 0.03, 0.07], 64
    Es = np.linspace(-4.0, 4.0, 11)
    whole = lyapunov_n(amo2, golden, Es, [12, 20], grid, K=K)
    # three energies per block: the batch spans four blocks
    monkeypatch.setattr(cocycle, "_BLOCK", 3 * len(grid) * K)
    assert lyapunov_n(amo2, golden, Es, [12, 20], grid, K=K) == whole
    # below one energy's batch a block still holds one energy
    monkeypatch.setattr(cocycle, "_BLOCK", 1)
    assert lyapunov_n(amo2, golden, Es, [12, 20], grid, K=K) == whole


def test_acceleration_batch_matches_per_energy_calls(amo2, golden):
    grid = np.linspace(0.02, 0.1, 5)
    got = acceleration(amo2, golden, ENERGIES, grid, n=48, K=32)
    assert got == tuple(acceleration(amo2, golden, float(E), grid, n=48, K=32)
                        for E in ENERGIES)


def _strata_peak(count):
    cfg = ExperimentConfig.from_raw(
        {"energies": {"start": -3.0, "stop": 3.0, "count": count}, "n": 16})
    tracemalloc.start()
    try:
        _task_strata(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_strata_peak_memory_does_not_grow_with_energies():
    # at the default quadrature twelve energies fill one energy block
    small = _strata_peak(12)
    assert _strata_peak(240) <= 1.10 * small
