import math

import numpy as np
import pytest

from strata_lab import (circle_average_green, count_annulus, det_family,
                        find_zeros, green_annulus, green_circle_mean,
                        green_potential, jensen_identity_residual,
                        riesz_decompose, riesz_mass,
                        zero_count_vs_acceleration)
from strata_lab.zeros_potential import (RootConvergenceError, aberth_roots,
                                        clearest_eps, green_trunc_order)

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


def test_aberth_roots_of_unity():
    coeffs = np.zeros(41, dtype=complex)
    coeffs[0], coeffs[40] = -1.0, 1.0
    found = aberth_roots(coeffs)
    targets = np.exp(2j * np.pi * np.arange(40) / 40)
    assert set_distance(found, targets) < 1e-10
    assert set_distance(targets, found) < 1e-10


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
    assert inv.total == 80
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
    from strata_lab import center_family

    inv = find_zeros(center_family(det_family(amo2, golden, 1.5, 50)))
    assert inv.pair_reflection is not None
    assert bool(np.all(inv.pair_reflection >= 0))


def test_free_family_has_no_zeros(free, golden):
    inv = find_zeros(det_family(free, golden, 0.5, 5))
    assert inv.total == 0


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


# ---------------------------------------------------------------- green

def test_green_truncation_order():
    assert green_trunc_order(R_STRIP) == 19
    assert green_trunc_order(math.exp(TWO_PI * 0.01432)) == 64
    with pytest.raises(ValueError, match="too thin"):
        green_trunc_order(1.0001)  # 64 orders leave a tail far above 1e-10
    for R in (0.9, 1.0, 1e51):
        with pytest.raises(ValueError):
            green_trunc_order(R)


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


def test_green_potential_sums_pointwise():
    z = 1.01 * np.exp(2.1j)
    roots = np.array([1.02 * np.exp(0.7j), 1.03j])
    out = green_potential(np.array([z]), roots, R_STRIP, 10)
    manual = (TWO_PI / 10) * sum(green_annulus(z, w, R_STRIP) for w in roots)
    assert out[0] == pytest.approx(manual, rel=1e-12)
    empty = green_potential(np.array([z, 2.0 * z]),
                            np.array([], dtype=complex), R_STRIP, 10)
    np.testing.assert_array_equal(empty, 0.0)


@pytest.mark.parametrize("E", [0.5, 3.339680829])
@pytest.mark.parametrize("n", [64, 200])
def test_green_circle_mean_matches_quadrature(amo2, golden, E, n):
    inv = find_zeros(det_family(amo2, golden, E, n))
    mods = np.abs(inv.roots)
    roots = inv.roots[(mods <= R_STRIP) & (mods >= 1.0 / R_STRIP)]
    assert len(roots) > 0

    def quadrature(center, rho, K):
        zs = center + rho * np.exp(2j * math.pi * np.arange(K) / K)
        return float(np.mean(green_potential(zs, roots, R_STRIP, n)))

    circles = [(0.0, math.exp(TWO_PI * eps), K)
               for eps in (-0.03, 0.0071, 0.045) for K in (64, 4096)]
    # mean-value rings as riesz_decompose builds them on its default grid
    radii = np.exp(np.linspace(-TWO_PI * 0.05, TWO_PI * 0.05, 9))
    for r in radii[1:-1:2]:
        for theta in (0.0, 0.3125, 0.78125):
            zc = r * np.exp(2j * math.pi * theta)
            circles.append((zc, 0.3 * min(R_STRIP - abs(zc),
                                          abs(zc) - 1.0 / R_STRIP), 16))
    for center, rho, K in circles:
        closed = green_circle_mean(center, rho, K, roots, R_STRIP, n)
        assert abs(closed - quadrature(center, rho, K)) <= 1e-13, (center, rho, K)


def test_green_circle_mean_edge_cases():
    empty = np.array([], dtype=complex)
    assert green_circle_mean(0.0, 1.01, 4096, empty, R_STRIP, 10) == 0.0
    roots = np.array([1.02 * np.exp(0.7j)])
    with pytest.raises(ValueError):
        green_circle_mean(0.0, 1.5 * R_STRIP, 64, roots, R_STRIP, 10)
    with pytest.raises(ValueError):
        green_circle_mean(0.0, 1.01, 64, roots, 1.0, 10)


# ----------------------------------------------------------- riesz split

def test_riesz_decomposition_certificates(amo2, golden):
    fam = det_family(amo2, golden, 0.5, 100)
    dec = riesz_decompose(fam, find_zeros(fam), R_STRIP)
    assert dec.boundary_max_dev < 1e-8
    assert dec.mean_value_max_resid < 1e-5
    # harmonic part sits at the strip Lyapunov value L + 2 pi eps
    target = math.log(2.0) + TWO_PI * 0.05
    assert abs(dec.h_min - target) < 0.05
    assert abs(dec.h_max - target) < 0.05
    assert dec.to_json_dict()["R"] == pytest.approx(R_STRIP)


def test_jensen_identity_amo_and_free(amo2, free, golden):
    fam = det_family(amo2, golden, 0.5, 100)
    inv = find_zeros(fam)
    r1, r2 = math.exp(TWO_PI * 0.01), math.exp(TWO_PI * 0.04)
    assert jensen_identity_residual(fam, inv, r1, r2, R_STRIP, K=2048) < 1e-8
    fam0 = det_family(free, golden, 0.5, 5)
    assert jensen_identity_residual(fam0, find_zeros(fam0), r1, r2,
                                    R_STRIP, K=64) < 1e-14


def test_jensen_radius_validation(amo2, golden):
    fam = det_family(amo2, golden, 0.5, 30)
    inv = find_zeros(fam)
    with pytest.raises(ValueError):
        jensen_identity_residual(fam, inv, 1.2, 1.1, R_STRIP)
    with pytest.raises(ValueError):
        # every zero of the in-spectrum family lies on the unit circle
        jensen_identity_residual(fam, inv, 1.0, 1.1, R_STRIP)


def test_riesz_mass_flux_matches_count(amo2, golden):
    rep = riesz_mass(amo2, golden, 0.5, 200, 0.02, K=2048,
                     kappa_n=256, kappa_K=128)
    assert rep.kappa == 1
    assert abs(rep.mass_v - 2.0) < 0.3
    assert rep.mass_u == pytest.approx(rep.count_ratio, abs=1e-6)
    assert rep.count_ratio == pytest.approx(2.0, abs=1e-12)


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
