import math

import numpy as np
import pytest

from strata_lab import (det_at_phase, det_family, deviation_set,
                        dirichlet_eigenvalues, double_resonance_scan,
                        eigenfunction_decay, expansion_identity_check,
                        expansion_identity_scan, holder_exponent, ids,
                        sturm_count)
from strata_lab.spectral_localization import (DeviationSetGeometry,
                                              dirichlet_eigenpair)

LOG2 = math.log(2.0)


# ------------------------------------------------------------- spectrum

def test_free_three_site_eigenvalues(free, golden):
    spec = dirichlet_eigenvalues(free, golden, 0.0, 3)
    np.testing.assert_allclose(spec.eigenvalues,
                               [-math.sqrt(2.0), 0.0, math.sqrt(2.0)],
                               atol=1e-12)


def test_single_site_spectrum(amo2, golden):
    spec = dirichlet_eigenvalues(amo2, golden, 0.25, 1)
    assert spec.eigenvalues[0] == pytest.approx(
        float(np.real(amo2.eval_theta(0.25))), abs=1e-12)


def test_eigenvalues_match_dense_solver(amo2, golden, dense_box):
    n = 40
    spec = dirichlet_eigenvalues(amo2, golden, 0.3, n)
    oracle = np.linalg.eigvalsh(dense_box(amo2, golden, 0.3, n))
    np.testing.assert_allclose(spec.eigenvalues, oracle, atol=1e-10)


def test_sturm_count_matches_spectrum(amo2, golden):
    n = 150
    spec = dirichlet_eigenvalues(amo2, golden, 0.37, n)
    rng = np.random.default_rng(9)
    Es = rng.uniform(-6.5, 6.5, size=15)
    counts = sturm_count(amo2, golden, 0.37, Es, n)
    for E, c in zip(Es, counts):
        assert c == spec.count_below(float(E))


def test_eigenpair_residual_and_normalization(amo2, golden, dense_box):
    n = 60
    lam, v = dirichlet_eigenpair(amo2, golden, 0.0, n, 30)
    H = dense_box(amo2, golden, 0.0, n)
    assert np.linalg.norm(H @ v - lam * v) < 1e-9
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert v[int(np.argmax(np.abs(v)))] > 0  # deterministic sign convention


def test_eigenpair_index_validation(amo2, golden):
    with pytest.raises(ValueError):
        dirichlet_eigenpair(amo2, golden, 0.0, 10, 10)
    with pytest.raises(ValueError):
        dirichlet_eigenpair(amo2, golden, 0.0, 10, -1)


# ----------------------------------------------------------------- decay

def test_localized_state_decays_at_lyapunov_rate(amo2, golden):
    prof = eigenfunction_decay(amo2, golden, 0.0, 600, 300)
    assert prof.is_localized()
    assert prof.decay_rate == pytest.approx(LOG2, rel=0.15)


def test_free_state_is_not_localized(free, golden):
    prof = eigenfunction_decay(free, golden, 0.2, 600, 300)
    assert not prof.is_localized()
    assert abs(prof.decay_rate) < 0.05 or math.isnan(prof.decay_rate)


def test_decay_needs_room(amo2, golden):
    with pytest.raises(ValueError):
        eigenfunction_decay(amo2, golden, 0.0, 400, 200)


# ------------------------------------------------------------------- ids

def test_ids_free_values(free, golden):
    assert ids(free, golden, 0.0, 200, theta_samples=4).value == 0.5
    assert ids(free, golden, -3.0, 200, theta_samples=4).value == 0.0
    assert ids(free, golden, 3.0, 200, theta_samples=4).value == 1.0


def test_ids_monotone_in_energy(amo2, golden):
    vals = [ids(amo2, golden, E, 150, theta_samples=4).value
            for E in (-3.5, -1.0, 0.5, 2.0, 3.8)]
    assert vals == sorted(vals)


def test_ids_minimum_size(amo2, golden):
    with pytest.raises(ValueError):
        ids(amo2, golden, 0.5, 99)


# ---------------------------------------------------------------- holder

def test_holder_reports_spectral_gap(amo2, golden):
    ladder = list(np.geomspace(1e-4, 1e-2, 7))
    fit = holder_exponent(amo2, golden, 1.5, ladder, 1000)
    assert fit.in_gap
    assert fit.message == "in gap, locally constant IDS"
    assert math.isnan(fit.beta)


def test_holder_positive_at_spectrum_point(amo2, golden):
    # anchor at an eigenvalue of one of the phase-sample boxes, so the
    # smallest increment is guaranteed nonzero
    n = 1000
    theta4 = (4 + 0.5) / 8
    E0 = float(dirichlet_eigenvalues(amo2, golden, theta4, n).eigenvalues[500])
    fit = holder_exponent(amo2, golden, E0, list(np.geomspace(1e-3, 1e-1, 5)),
                          n)
    assert not fit.in_gap
    assert 0.1 < fit.beta < 2.0


def test_holder_ladder_validation(amo2, golden):
    with pytest.raises(ValueError, match="two decades"):
        holder_exponent(amo2, golden, 0.0,
                        list(np.geomspace(1e-3, 5e-3, 4)), 2000)
    with pytest.raises(ValueError, match="resolution guard"):
        holder_exponent(amo2, golden, 0.0, [1e-8, 1e-6, 1e-4, 1e-2], 100)


# --------------------------------------------------------- deviation sets

def test_deviation_set_empty_at_default_threshold(amo2, free, golden):
    assert deviation_set(amo2, golden, 0.5, 100).count == 0
    assert deviation_set(free, golden, 0.5, 100).count == 0


def test_deviation_set_arc_geometry(amo2, golden):
    geom = deviation_set(amo2, golden, 0.5, 100, threshold=0.05,
                         grid_size=4096 * 100)
    assert 0 < geom.count <= 263  # 2n + n^0.9 budget
    assert geom.measure == pytest.approx(
        sum(r - l for l, r in geom.intervals))
    # most arcs find their reflected partner
    pm = np.asarray(geom.pair_map)
    assert float(np.mean(pm >= 0)) > 0.9
    left, right = geom.intervals[0]
    assert geom.contains(0.5 * (left + right))
    assert not geom.contains((right + 0.31) % 1.0)


def test_deviation_set_lockstep_matches_scalar_bisection(amo2, golden):
    # reference: the per-endpoint bisection, one scalar call per step
    E, n = 0.5, 10
    geom = deviation_set(amo2, golden, E, n, threshold=0.05)
    assert geom.count > 0
    h = 1.0 / geom.grid_size
    u = det_family(amo2, golden, E, n).log_abs_per_site_circle(
        1.0, geom.grid_size)
    below = u < geom.level
    starts = np.flatnonzero(below & ~np.roll(below, 1))
    ends = np.sort(np.flatnonzero(below & ~np.roll(below, -1)))

    def g(theta):
        return det_at_phase(amo2, golden, theta, E, n)[0] / n - geom.level

    def refine(lo, hi, falling):
        g_lo, g_hi = g(lo), g(hi)
        if falling and not (g_lo >= 0 > g_hi):
            return hi
        if not falling and not (g_lo < 0 <= g_hi):
            return lo
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if (g(mid) < 0) == falling:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    expected = []
    for s in np.sort(starts).tolist():
        i = np.searchsorted(ends, s)
        e = int(ends[i] if i < len(ends) else ends[0])
        left = refine((s - 1) * h, s * h, True) % 1.0
        right = refine(e * h, (e + 1) * h, False)
        expected.append((left, left + ((right - left) % 1.0 or h)))
    assert geom.intervals == tuple(sorted(expected))


def test_deviation_set_validation(amo2, golden):
    with pytest.raises(ValueError):
        deviation_set(amo2, golden, 0.5, 100, grid_size=100)
    with pytest.raises(ValueError):
        # a negative threshold puts the level above the whole sample
        deviation_set(amo2, golden, 0.5, 100, threshold=-1.0)


def test_double_resonance_scan_flags_synthetic_arc(golden):
    geom = DeviationSetGeometry(E=0.5, n=100, threshold=0.1, level=0.5,
                                lyapunov_value=0.6, grid_size=6400,
                                intervals=((0.2, 0.45),), pair_map=(0,))
    rep = double_resonance_scan(geom, 0.3, golden, 150)
    assert not rep.clear
    assert rep.pair_index == 0
    assert len(rep.points) >= 2
    with pytest.raises(ValueError):
        double_resonance_scan(geom, 0.3, golden, 50)  # y must exceed n


def test_double_resonance_clear_on_thin_arcs(amo2, golden):
    geom = deviation_set(amo2, golden, 0.5, 100, threshold=0.10,
                         grid_size=8192 * 100)
    rep = double_resonance_scan(geom, 0.123, golden, 300)
    assert rep.clear


# ------------------------------------------------------------- expansion

def test_expansion_identity_on_free_solution(free, golden):
    # phi_k = sin((k+1) w) solves the free equation at E = 2 cos w
    w = 0.9
    phi = np.sin((np.arange(60) + 1) * w)
    E = 2.0 * math.cos(w)
    for y in (5, 20, 50):
        assert expansion_identity_check(free, golden, 0.0, E, phi,
                                        (5, 50), y) < 1e-10


def test_expansion_identity_validation(free, golden):
    phi = np.sin((np.arange(60) + 1) * 0.9)
    E = 2.0 * math.cos(0.9)
    with pytest.raises(ValueError):
        expansion_identity_check(free, golden, 0.0, E, phi, (5, 50), 3)
    with pytest.raises(ValueError, match="not a solution"):
        expansion_identity_check(free, golden, 0.0, 1.234, phi, (5, 50), 20)


def test_expansion_identity_on_localized_eigenvector(amo2, golden):
    n = 500
    spec = dirichlet_eigenvalues(amo2, golden, 0.0, n)
    lam, v = dirichlet_eigenpair(amo2, golden, 0.0, n, 250, spectrum=spec)
    c = int(np.argmax(np.abs(v)))
    # a window on the far side of the localization center, where the
    # boundary data actually carries the interior values
    wlen, margin = 120, 8
    l1 = c + margin if c <= n // 2 else c - margin - wlen
    l1 = min(max(1, l1), n - 2 - wlen)
    res, (a, b), y = expansion_identity_scan(amo2, golden, 0.0, lam, v,
                                             (l1, l1 + wlen))
    assert res < 1e-8
    assert 1 <= a <= y <= b <= n - 2
