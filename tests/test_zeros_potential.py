import math
import tracemalloc

import numpy as np
import pytest

from strata_lab import (Potential, circle_average_green, count_annulus,
                        det_family, find_zeros, green_annulus,
                        green_potential, jensen_identity_residual,
                        riesz_decompose, riesz_kappa, riesz_mass,
                        zero_count_vs_acceleration)
from strata_lab.cli_harness import ExperimentConfig, _task_riesz
from strata_lab.zeros_potential import (_BLOCK, RootConvergenceError,
                                        aberth_roots, check_green_range,
                                        clearest_eps)

TWO_PI = 2.0 * math.pi
R_STRIP = math.exp(TWO_PI * 0.05)


def set_distance(found, targets):
    return max(float(np.min(np.abs(found - t))) for t in targets)


# ---------------------------------------------------------------- roots

def test_aberth_recovers_seeded_roots():
    rng = np.random.default_rng(5)
    targets = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    coeffs = np.poly(targets)[::-1]  # ascending
    found = aberth_roots(coeffs)
    assert found.shape == (6,)
    assert set_distance(found, targets) < 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_aberth_roots_of_unity():
    # the zero interior coefficients stay off the Newton polygon, unlogged
    coeffs = np.zeros(41, dtype=complex)
    coeffs[0], coeffs[40] = -1.0, 1.0
    found = aberth_roots(coeffs)
    targets = np.exp(2j * np.pi * np.arange(40) / 40)
    assert set_distance(found, targets) < 1e-10
    assert set_distance(targets, found) < 1e-10


def test_aberth_serves_a_wide_coefficient_log_range(amo2, golden):
    # the coefficient moduli span 295 decades, so the roots spread over many
    # radii; starts on one circle of the mean modulus do not converge here
    inv = find_zeros(det_family(amo2, golden, 7.0, 600))
    assert len(inv.roots) == 1200


def test_find_zeros_refuses_underflowed_edge_coefficients(golden):
    # the edge coefficients lambda^n = 1e-400 of D_n underflow to zero
    fam = det_family(Potential.amo(0.01), golden, 0.5, 200)
    assert len(fam.poly.trimmed().coeffs) < len(fam.poly.coeffs)
    with pytest.raises(ValueError, match="underflow"):
        find_zeros(fam)


@pytest.mark.parametrize("coeffs, E, n", [
    ({1: 2.0, -1: 2.0}, 0.5, 16),                       # AMO(2), in the spectrum
    ({1: 2.0, -1: 2.0}, 6.0, 16),                       # AMO(2), off it
    ({1: 1.6, -1: 1.6, 2: 1.0, -2: 1.0}, 2.49, 10),     # two harmonics
])
def test_aberth_matches_50_digit_polyroots(golden, coeffs, E, n):
    mp = pytest.importorskip("mpmath")
    c = det_family(Potential(coeffs), golden, E, n).poly.trimmed().coeffs
    found = aberth_roots(c)
    with mp.workdps(50):
        ref = np.array([complex(r) for r in mp.polyroots(
            [mp.mpc(complex(x)) for x in c[::-1]], maxsteps=50, extraprec=50)])
    # the bound was fixed before running
    dist = np.abs(found[:, None] - ref[None, :]) / np.abs(ref)[None, :]
    assert len(found) == len(ref) == len(c) - 1
    assert np.max(np.min(dist, axis=0)) <= 1e-13
    assert np.max(np.min(dist, axis=1)) <= 1e-13


def test_aberth_rejects_degenerate_input():
    with pytest.raises(ValueError):
        aberth_roots(np.array([0.0, 1.0, 1.0]))  # vanishing constant term
    with pytest.raises(ValueError):
        aberth_roots(np.array([1.0, 1.0, 0.0]))  # vanishing leading term
    assert aberth_roots(np.array([1.0])).shape == (0,)  # constants are rootless
    assert issubclass(RootConvergenceError, RuntimeError)


# ------------------------------------------------------------ inventory

def test_in_spectrum_zeros_sit_on_circle(amo2, golden):
    inv = find_zeros(det_family(amo2, golden, 0.5, 40))
    assert len(inv.roots) == 80
    assert bool(np.all(inv.on_circle))
    assert float(np.max(inv.eps_coords())) < 1e-8


def test_gap_zeros_pair_under_inversion(amo2, golden):
    inv = find_zeros(det_family(amo2, golden, 1.5, 60))
    off = ~inv.on_circle
    assert int(off.sum()) > 0
    assert bool(np.all(inv.pair_inversive[off] >= 0))
    # pairing is an involution
    pi = inv.pair_inversive
    for i in np.nonzero(pi >= 0)[0]:
        assert pi[pi[i]] == i


def test_reflection_pairing_after_centering(amo2, golden):
    # even potential: zeros pair under w -> c / w, c = e^{-2 pi i (n-1) alpha}
    n = 50
    inv = find_zeros(det_family(amo2, golden, 1.5, n))
    pr = inv.pair_reflection
    assert pr is not None
    assert bool(np.all(pr >= 0))
    c = np.exp(-2j * np.pi * (n - 1) * golden)
    np.testing.assert_allclose(inv.roots[pr], c / inv.roots, rtol=0, atol=1e-6)


def test_free_family_has_no_zeros(free, golden):
    inv = find_zeros(det_family(free, golden, 0.5, 5))
    assert len(inv.roots) == 0


def test_count_annulus_monotone_and_boundary_flags(amo2, golden):
    inv = find_zeros(det_family(amo2, golden, 1.5, 60))
    eps_list = [0.0, 0.02, 0.05, 0.1, 0.3]
    counts = [count_annulus(inv, e).count for e in eps_list]
    assert counts == sorted(counts)
    # the two gap edge-state zeros sit on the circle itself
    at_zero = count_annulus(inv, 0.0)
    assert at_zero.count == int(inv.on_circle.sum())
    assert not at_zero.boundary_clear
    assert len(at_zero.flagged) == at_zero.count
    with pytest.raises(ValueError):
        count_annulus(inv, -0.01)


def test_clearest_eps_avoids_coordinates():
    out = clearest_eps(np.array([0.02]), 0.01, 0.03)
    assert 0.01 <= out <= 0.03
    assert abs(out - 0.02) >= 0.0099
    assert clearest_eps(np.array([]), 0.01, 0.03) == pytest.approx(0.02)


def _clearest_eps_oracle(coords, lo, hi):
    """Every candidate against every coordinate: the m x m formula."""
    if len(coords) == 0:
        return float(0.5 * (lo + hi))
    ends = np.concatenate([[lo], np.sort(coords[(coords > lo) & (coords < hi)]),
                           [hi]])
    cands = np.concatenate([[lo, hi], 0.5 * (ends[:-1] + ends[1:])])
    d = np.min(np.abs(cands[:, None] - coords[None, :]), axis=1)
    return float(cands[int(np.argmax(d))])


def test_clearest_eps_matches_the_all_pairs_oracle():
    # duplicates, coordinates outside [lo, hi], coordinates on its ends,
    # rounded draws with tied gaps, an empty window (hi < lo) and one
    # coordinate; the same floats, so the same argmax and the same ties
    rng = np.random.default_rng(30)
    for _ in range(3000):
        lo = float(rng.uniform(-1.0, 1.0))
        hi = lo + float(rng.uniform(-0.2, 1.0))
        coords = rng.uniform(lo - 0.5, hi + 0.5, int(rng.integers(1, 12)))
        if rng.random() < 0.5:
            coords = np.concatenate([coords, rng.choice(coords, 3)])
        if rng.random() < 0.3:
            coords, lo, hi = np.round(coords, 1), round(lo, 1), round(hi, 1)
        if rng.random() < 0.2:
            coords = np.concatenate([coords, [lo, hi]])
        assert clearest_eps(coords, lo, hi) == _clearest_eps_oracle(
            coords, lo, hi), (coords, lo, hi)
    for coords in (np.array([0.5]), np.array([0.0]), np.array([2.0])):
        assert clearest_eps(coords, 0.0, 1.0) == _clearest_eps_oracle(
            coords, 0.0, 1.0)


def test_clearest_eps_memory_is_linear_in_the_coordinates():
    # an all-pairs distance matrix on 4,000 coordinates would take 128 MB
    coords = np.random.default_rng(31).uniform(0.0, 1.0, 4000)
    tracemalloc.start()
    try:
        clearest_eps(coords, 0.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak


# ---------------------------------------------------------------- green

def test_green_served_range():
    check_green_range(R_STRIP)
    check_green_range(math.exp(TWO_PI * 0.005))
    R_max = math.exp(TWO_PI * 2.0)
    check_green_range(R_max)
    with pytest.raises(ValueError, match="too thin"):
        check_green_range(math.exp(TWO_PI * 0.00499))
    with pytest.raises(ValueError, match="too thin"):
        check_green_range(1.0001)
    for R in (0.9, 1.0, math.nextafter(R_max, math.inf), 1e50):
        with pytest.raises(ValueError, match="must lie in"):
            check_green_range(R)


def test_green_vanishes_on_boundary_and_is_symmetric():
    # the domain is the symmetric annulus 1/R <= |z| <= R
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = rng.uniform(1.01, R_STRIP / 1.01) * np.exp(2j * np.pi * rng.random())
        zb = (1.0 / R_STRIP if rng.random() < 0.5 else R_STRIP) * np.exp(
            2j * np.pi * rng.random())
        assert abs(green_annulus(zb, w, R_STRIP)) < 1e-10
        z = rng.uniform(1.01, R_STRIP / 1.01) * np.exp(2j * np.pi * rng.random())
        if abs(z - w) > 1e-3:
            assert green_annulus(z, w, R_STRIP) == pytest.approx(
                green_annulus(w, z, R_STRIP), abs=1e-12)


def test_circle_average_matches_quadrature():
    rng = np.random.default_rng(7)
    K = 4096
    phis = np.exp(2j * np.pi * np.arange(K) / K)
    for _ in range(5):
        w = rng.uniform(1.02, R_STRIP / 1.02) * np.exp(2j * np.pi * rng.random())
        r = float(rng.uniform(1.01, R_STRIP / 1.01))
        if abs(math.log(r / abs(w))) < 0.01:
            r = abs(w) * 1.02  # keep the quadrature off the kink
        quad = float(np.mean(green_annulus(r * phis, w, R_STRIP)))
        assert circle_average_green(r, R_STRIP, w) == pytest.approx(
            quad, abs=1e-9)


def test_circle_average_validates_radius():
    with pytest.raises(ValueError):
        circle_average_green(0.5, R_STRIP, 1.1)


# a NaN modulus fails every comparison with the radii; each entry point
# refuses it like a point outside the annulus

def test_green_annulus_refuses_a_nan_point():
    with pytest.raises(ValueError, match="outside the closed annulus"):
        green_annulus(complex(math.nan, 0.0), 1.1, R_STRIP)


def test_green_potential_refuses_a_nan_root():
    with pytest.raises(ValueError, match="outside the closed annulus"):
        green_potential(np.array([1.05]), np.array([complex(math.nan, 0.0)]),
                        R_STRIP, 10)


def test_circle_average_refuses_a_nan_radius():
    with pytest.raises(ValueError, match="outside the closed annulus"):
        circle_average_green(math.nan, R_STRIP, 1.1)


def test_green_potential_sums_pointwise():
    z = 1.01 * np.exp(2.1j)
    roots = np.array([1.02 * np.exp(0.7j), 1.03j])
    out = green_potential(np.array([z]), roots, R_STRIP, 10)
    manual = (TWO_PI / 10) * sum(green_annulus(z, w, R_STRIP) for w in roots)
    assert out[0] == pytest.approx(manual, rel=1e-12)
    empty = green_potential(np.array([z, 2.0 * z]),
                            np.array([], dtype=complex), R_STRIP, 10)
    np.testing.assert_array_equal(empty, 0.0)


def test_green_potential_is_the_blocked_kernel_sum(amo2, golden):
    # the root factors are hoisted out of the block loop, not changed
    inv = find_zeros(det_family(amo2, golden, -2.643653005, 64))
    mods = np.abs(inv.roots)
    roots = inv.roots[(mods <= R_STRIP) & (mods >= 1.0 / R_STRIP)]
    rng = np.random.default_rng(4)
    m = 3 * (_BLOCK // len(roots)) + 5
    zs = (np.exp(rng.uniform(-0.3, 0.3, m))
          * np.exp(2j * np.pi * rng.uniform(0, 1, m)))
    step = _BLOCK // len(roots)
    blocked = np.concatenate([
        np.sum(green_annulus(zs[a:a + step, None], roots[None, :], R_STRIP), axis=1)
        for a in range(0, m, step)]) * TWO_PI / 64
    assert np.array_equal(green_potential(zs, roots, R_STRIP, 64), blocked)


# ----------------------------------------------------------- riesz split

def test_riesz_decomposition_certificates(amo2, golden):
    fam = det_family(amo2, golden, 0.5, 100)
    boundary_max_dev, mean_value_max_resid, h_min, h_max = riesz_decompose(
        fam, find_zeros(fam), R_STRIP, 256)
    assert boundary_max_dev < 1e-8
    assert mean_value_max_resid < 1e-5
    # harmonic part sits at the strip Lyapunov value L + 2 pi eps
    target = math.log(2.0) + TWO_PI * 0.05
    assert abs(h_min - target) < 0.05
    assert abs(h_max - target) < 0.05


def test_jensen_identity_amo_and_free(amo2, free, golden):
    fam = det_family(amo2, golden, 0.5, 100)
    inv = find_zeros(fam)
    r1, r2 = math.exp(TWO_PI * 0.01), math.exp(TWO_PI * 0.04)
    assert jensen_identity_residual(fam, inv, r1, r2, K=2048) < 1e-8
    fam0 = det_family(free, golden, 0.5, 5)
    assert jensen_identity_residual(fam0, find_zeros(fam0), r1, r2,
                                    K=64) < 1e-14


def _c6_radii(inv):
    """c6's Jensen radii: clear of every zero modulus, near eps 0.01, 0.04."""
    coords = inv.eps_coords()
    return (math.exp(TWO_PI * clearest_eps(coords, 0.005, 0.01)),
            math.exp(TWO_PI * clearest_eps(coords, 0.04, 0.045)))


@pytest.mark.parametrize("K", [16, 64, 512, 4096])
def test_jensen_residual_sees_a_missing_or_moved_root(amo2, golden, K):
    # the circle means come from the coefficients of D_n and the jumps from
    # the inventory, so an inventory that drops a root, or moves one that
    # lies between the radii, no longer balances; the inventory side is the
    # exact K-point mean, so a clean inventory balances at every K
    fam = det_family(amo2, golden, 0.5, 200)
    inv = find_zeros(fam)
    r1, r2 = _c6_radii(inv)
    assert jensen_identity_residual(fam, inv, r1, r2, K=K) <= 1e-14
    short = inv._replace(roots=inv.roots[1:])
    assert jensen_identity_residual(fam, short, r1, r2, K=K) > 1e-6

    fam = det_family(amo2, golden, 1.5, 128)
    inv = find_zeros(fam)
    r1, r2 = _c6_radii(inv)
    mods = np.abs(inv.roots)
    k = int(np.flatnonzero((mods > r1) & (mods < r2))[0])
    roots = inv.roots.copy()
    roots[k] *= 1.01
    assert abs(roots[k]) < r2
    assert jensen_identity_residual(fam, inv, r1, r2, K=K) <= 1e-14
    moved = inv._replace(roots=roots)
    assert jensen_identity_residual(fam, moved, r1, r2, K=K) > 1e-6


def test_riesz_task_is_exact_at_small_K():
    # K = 64 is far below the zeros' reach of the circles: the quadrature
    # error is removed, not made small
    cfg = ExperimentConfig.from_raw({"energies": [0.5, 1.5], "n": 128,
                                     "riesz": {"K": 64}})
    for E in cfg.energies:
        row, = _task_riesz(cfg, E)["tables"]["riesz.csv"]
        assert row["jensen_residual"] <= 1e-14
        assert abs(row["mass_u"] - row["count_ratio"]) <= 1e-12


def test_jensen_radius_validation(amo2, golden):
    fam = det_family(amo2, golden, 0.5, 30)
    inv = find_zeros(fam)
    with pytest.raises(ValueError):
        jensen_identity_residual(fam, inv, 1.2, 1.1, 4096)
    with pytest.raises(ValueError):
        jensen_identity_residual(fam, inv, 0.9, 1.1, 4096)
    with pytest.raises(ValueError):
        # every zero of the in-spectrum family lies on the unit circle
        jensen_identity_residual(fam, inv, 1.0, 1.1, 4096)


def test_riesz_mass_flux_matches_count(amo2, golden):
    fam = det_family(amo2, golden, 0.5, 200)
    kappa = riesz_kappa(amo2, golden, 0.5, 0.02, 256, 128)
    mass_v, mass_u, count_ratio = riesz_mass(fam, find_zeros(fam), 0.02, 2048)
    assert kappa == 1
    assert abs(mass_v - 2.0) < 0.3
    assert mass_u == pytest.approx(count_ratio, abs=1e-6)
    assert count_ratio == pytest.approx(2.0, abs=1e-12)


# ------------------------------------------------------ count vs slope

def test_zero_count_tracks_acceleration(amo2, golden):
    rep = zero_count_vs_acceleration(amo2, golden, 0.5, 0.05, (50, 100),
                                     kappa_n=256, kappa_K=128)
    assert rep.kappa == 1
    assert rep.counts == (2 * 50, 2 * 100)
    assert rep.deviations == (0.0, 0.0)
    assert rep.decay_exponent is None  # nothing left to fit
    assert rep.boundary_clear


def test_zero_count_refuses_slope_break(amo2, golden):
    with pytest.raises(ValueError, match="slope break"):
        zero_count_vs_acceleration(amo2, golden, 1.5, 0.05, (30,),
                                   kappa_n=256, kappa_K=128)
