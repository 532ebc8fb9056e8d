"""The batched strip kernel against the loops it replaced.

`transfer_log_norms` runs one recurrence over an (E, eps, theta) batch and
builds every row's symbol from one cos/sin evaluation per step.  The first
reference below is the per-epsilon loop: one recurrence per eps, the symbol
from `Potential.eval_z` at the complex exponential (or the real cosine form
at eps = 0), and renormalization by division.  The energy axis and the
n-ladder are checked against per-energy and per-n calls of the kernel
itself.  Everything must agree bit for bit, which rests on the C library
property checked first.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from strata_lab import (Potential, acceleration, cocycle, lyapunov_n,
                        transfer_log_norms)
from strata_lab.cli_harness import ExperimentConfig, _task_strata

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


ENERGIES = np.array([-3.1, 0.5, 1.5, 3.7, 5.2])


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
