import math

import numpy as np
import pytest

from strata_lab import Potential, det_at_phase, det_family, transfer_log_norms
from strata_lab.determinant import (_ZERO_POLY, DEFAULT_DEGREE_CAP,
                                   DegreeCapError, ScaledLaurentPoly,
                                   _horner_pair)


def poly_value(poly, z):
    la, u = poly.eval_log(z)
    return u * np.exp(la)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 14])
def test_matches_dense_determinant(amo2, golden, dense_box, n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        E = float(rng.uniform(-4.0, 4.0))
        theta = float(rng.uniform(0.0, 1.0))
        oracle = np.linalg.det(E * np.eye(n) - dense_box(amo2, golden, theta, n))
        la, sg = det_at_phase(amo2, golden, theta, E, n)
        assert sg * math.exp(la) == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_det_at_phase_vector_energy(amo2, golden):
    Es = np.array([-1.0, 0.5, 2.0])
    las, sgs = det_at_phase(amo2, golden, 0.3, Es, 7)
    for E, la, sg in zip(Es, las, sgs):
        la1, sg1 = det_at_phase(amo2, golden, 0.3, float(E), 7)
        assert la == pytest.approx(la1, abs=1e-12)
        assert sg == sg1


def test_det_at_phase_theta_batch_equals_scalar_calls(amo2, golden):
    Es = np.array([-1.0, 0.5, 2.0])
    thetas = np.linspace(-0.3, 1.2, 11)
    las, sgs = det_at_phase(amo2, golden, thetas, Es, 9)
    assert las.shape == sgs.shape == (3, 11)
    for i, E in enumerate(Es.tolist()):
        for j, theta in enumerate(thetas.tolist()):
            la, sg = det_at_phase(amo2, golden, theta, E, 9)
            assert isinstance(la, float) and isinstance(sg, float)
            assert np.array_equal((las[i, j], sgs[i, j]), (la, sg))


def test_sign_zero_flags_exact_root(free, golden):
    # free boxes: D_1(E) = E and D_2(E) = E^2 - 1 vanish exactly in floats
    assert det_at_phase(free, golden, 0.0, 0.0, 1)[1] == 0
    assert det_at_phase(free, golden, 0.0, 1.0, 2)[1] == 0


def test_free_determinant_is_chebyshev(free, golden):
    # f = 0 gives D_n(E) = U_n(E/2), second-kind Chebyshev
    for E in (0.7, 1.3):
        w = math.acos(E / 2.0)
        for n in (3, 5, 8):
            la, sg = det_at_phase(free, golden, 0.0, E, n)
            assert sg * math.exp(la) == pytest.approx(
                math.sin((n + 1) * w) / math.sin(w), rel=1e-11)


@pytest.mark.parametrize("E", [0.0, 1.0, -1.0])
def test_free_family_survives_a_vanishing_predecessor(free, golden, E):
    # E is a free Dirichlet eigenvalue, so some D_{j-1} vanishes identically
    # and D_j = -D_{j-2}; every D_n is a constant 0 or +-1
    for n in range(1, 7):
        poly = det_family(free, golden, E, n).poly
        value = 0.0 if poly.is_zero else (complex(poly.coeffs[0])
                                          * math.exp(poly.log_scale))
        la, sg = det_at_phase(free, golden, 0.0, E, n)
        assert value == sg * math.exp(la)
        assert sg in (-1.0, 0.0, 1.0)


def test_polynomial_evaluation_matches_phase(amo2, golden):
    for n, thetas in ((11, (0.0, 0.21, 0.77)), (1, (0.137,)), (5, (0.137,)),
                      (12, (0.137,))):
        fam = det_family(amo2, golden, 0.5, n)
        for theta in thetas:
            z = np.exp(2j * np.pi * theta)
            val = complex(poly_value(fam.poly, z))
            la, sg = det_at_phase(amo2, golden, theta, 0.5, n)
            assert val == pytest.approx(sg * math.exp(la), rel=1e-9,
                                        abs=1e-9)


TWO_HARMONIC = Potential({1: 1.6, -1: 1.6, 2: 1.0, -2: 1.0})


def _mp_family(potential, alpha, E, n):
    """D_n's coefficients over their largest modulus, and the log of that
    modulus, from the recurrence at 50 digits on the phases j alpha."""
    mp = pytest.importorskip("mpmath")
    k0 = potential.k0
    base = [mp.mpc(complex(c)) for c in potential.laurent_coeffs()]
    with mp.workdps(50):
        prev2, prev = [], [mp.mpc(1)]
        for j in range(n):
            mult = [-c * mp.expjpi(2 * (i - k0) * j * mp.mpf(alpha))
                    for i, c in enumerate(base)]
            mult[k0] += E
            new = [mp.mpc(0)] * (len(prev) + 2 * k0)
            for i, m in enumerate(mult):
                for l, p in enumerate(prev):
                    new[i + l] += m * p
            for l, p in enumerate(prev2):
                new[2 * k0 + l] -= p
            prev2, prev = prev, new
        top = max(abs(c) for c in prev)
        return np.array([complex(c / top) for c in prev]), float(mp.log(top))


@pytest.mark.parametrize("potential", [Potential.amo(2.0), TWO_HARMONIC],
                         ids=["amo2", "two_harmonic"])
@pytest.mark.parametrize("n", [40, 60])
def test_family_matches_50_digit_recurrence(potential, golden, n):
    # bounds fixed before the recurrence moved to the strip kernel's phases
    # and power-of-two scaling; there the worst were 5.7e-13 and 2.2e-13
    for E in (-3.0, 0.5, 5.5):
        ref, log_top = _mp_family(potential, golden, E, n)
        poly = det_family(potential, golden, E, n).poly
        top = float(np.max(np.abs(poly.coeffs)))
        assert poly.lo == -potential.k0 * n and len(poly.coeffs) == len(ref)
        assert np.max(np.abs(poly.coeffs / top - ref)) <= 1.5e-12
        assert abs(poly.log_scale + math.log(top) - log_top) <= 1e-12


@pytest.mark.parametrize("potential", [Potential.amo(2.0), TWO_HARMONIC],
                         ids=["amo2", "two_harmonic"])
@pytest.mark.parametrize("n", [64, 256])
def test_family_on_the_circle_matches_the_strip_kernel(potential, golden, n):
    # in each of 32 cells, the phase of largest |D_n| on a 16-point grid:
    # no zero of D_n sits next to it.  The bound was fixed before the
    # recurrence moved to the kernel's phases; there the worst was 2.0e-11
    cells = (np.arange(32)[:, None] + (np.arange(16) + 0.5) / 16) / 32
    for E in (0.5, -1.5):
        grid = det_at_phase(potential, golden, cells.ravel(), E, n)[0]
        thetas = cells[np.arange(32), np.argmax(grid.reshape(32, 16), axis=1)]
        fam = det_family(potential, golden, E, n)
        got = fam.poly.eval_log(np.exp(2j * np.pi * thetas))[0]
        want = det_at_phase(potential, golden, thetas, E, n)[0]
        assert np.max(np.abs(got - want)) <= 1e-10


def test_span_and_coefficient_normalization(amo2, golden):
    n = 16
    fam = det_family(amo2, golden, 0.5, n)
    assert (fam.poly.lo, fam.poly.hi) == (-n, n)
    m = float(np.max(np.abs(fam.poly.coeffs)))
    assert 0.5 <= m <= 2.0


def test_transfer_matrix_carries_determinants(amo2, golden):
    # A_n = [[D_n(th), -D_{n-1}(th+a)], [D_{n-1}(th), -D_{n-2}(th+a)]]
    theta, E, n = 0.137, 0.5, 8
    logs, units = transfer_log_norms(amo2, golden, np.array([theta]), E, 0.0,
                                     n, return_matrices=True)
    M = math.exp(logs[0]) * units[0]

    def D(k, phase):
        if k == 0:
            return 1.0
        la, sg = det_at_phase(amo2, golden, phase, E, k)
        return sg * math.exp(la)

    expected = np.array([[D(n, theta), -D(n - 1, theta + golden)],
                         [D(n - 1, theta), -D(n - 2, theta + golden)]])
    np.testing.assert_allclose(M, expected, rtol=1e-9, atol=1e-9)


def test_degree_cap_and_length_validation(amo2, golden):
    with pytest.raises(DegreeCapError):
        det_family(amo2, golden, 0.5, DEFAULT_DEGREE_CAP + 1)  # k0 = 1
    assert issubclass(DegreeCapError, ValueError)
    with pytest.raises(ValueError):
        det_family(amo2, golden, 0.5, 0)


def test_inversive_defect_small_for_real_energy(amo2, golden):
    # a self-adjoint box at real energy: D(1/conj(z)) = conj(D(z)), so the
    # coefficients are self-inversive, coeff[k] = conj(coeff[-k])
    for E in (0.5, 1.5):
        c = det_family(amo2, golden, E, 20).poly.coeffs
        assert np.max(np.abs(c - np.conj(c[::-1]))) < 1e-10 * np.max(np.abs(c))


def test_centered_modulus_reflection(amo2, golden):
    # even potential: |D_n(c/z)| = |D_n(z)|, c = e^{-2 pi i (n-1) alpha}
    n = 15
    fam = det_family(amo2, golden, 1.5, n)
    c = np.exp(-2j * np.pi * (n - 1) * golden)
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = (0.9 + 0.2 * rng.random()) * np.exp(2j * np.pi * rng.random())
        la1, _ = fam.poly.eval_log(z)
        la2, _ = fam.poly.eval_log(c / z)
        assert la1 == pytest.approx(la2, abs=1e-9)


def test_circle_scan_matches_pointwise(amo2, golden):
    fam = det_family(amo2, golden, 0.5, 10)
    m, r = 8, 1.02
    scan = fam.poly.eval_circle_log(r, m) / fam.n
    for j in range(m):
        z = r * np.exp(2j * np.pi * j / m)
        assert scan[j] == pytest.approx(fam.poly.eval_log(z)[0] / fam.n,
                                        abs=1e-10)


def test_scaled_poly_trimmed_drops_zero_edges():
    t = ScaledLaurentPoly(-1, np.array([0.0, 2.0, 1.0, 0.0]), 0.0).trimmed()
    assert (t.lo, t.hi) == (0, 1)


def test_scaled_poly_circle_log_matches_eval_log():
    rng = np.random.default_rng(3)
    p = ScaledLaurentPoly(
        -3, rng.standard_normal(7) + 1j * rng.standard_normal(7), 0.0)
    vals = p.eval_circle_log(1.1, 16)
    assert vals.shape == (16,)
    for j in (0, 5, 11):
        z = 1.1 * np.exp(2j * np.pi * j / 16)
        assert vals[j] == pytest.approx(p.eval_log(z)[0], abs=1e-10)


# ------------------------------------------------- blocked evaluator

def _mp_reference(poly, zs):
    """log|p(z)| and the condition sum_k |c_k| |z|^k / |p(z)|, 60 digits."""
    mp = pytest.importorskip("mpmath")
    c = [mp.mpc(complex(x)) for x in poly.coeffs[::-1]]
    ca = [abs(x) for x in c]
    ref, cond = [], []
    with mp.workdps(60):
        for z in zs:
            z = mp.mpc(complex(z))
            v = mp.polyval(c, z) * z ** poly.lo
            ref.append(float(mp.log(abs(v)) + mp.mpf(poly.log_scale)))
            cond.append(float(mp.polyval(ca, abs(z)) * abs(z) ** poly.lo / abs(v)))
    return np.array(ref), np.array(cond)


def _eval_bound(cond):
    # fixed before the evaluator was written
    return 1e-13 * (1.0 + cond)


# ring points of riesz_decompose (n_radii 9, n_angles 256) at the riesz
# workload's E for seed 703; the first eight are where the exp-sum
# evaluator this one replaced was worst (7.5e-12 at index 1928)
_RING_INDICES = [1928, 2238, 1887, 2385, 2237, 1895, 1207, 2398,
                 1653, 2319, 2286, 1815, 2270, 2121] + list(range(0, 3584, 256))


def test_eval_log_matches_60_digits_at_riesz_ring_points(amo2, golden):
    fam = det_family(amo2, golden, -2.643653005, 256)
    R = math.exp(2.0 * math.pi * 0.05)
    radii = np.exp(np.linspace(-math.log(R), math.log(R), 9))
    grid = radii[:, None] * np.exp(2j * np.pi * np.arange(256) / 256)[None, :]
    zc = grid[1:-1, ::8, None]
    rho = 0.3 * np.minimum(R - np.abs(zc), np.abs(zc) - 1.0 / R)
    rings = (zc + rho * np.exp(2j * np.pi * np.arange(16) / 16)).ravel()
    la = fam.poly.eval_log(rings)[0][_RING_INDICES]
    ref, cond = _mp_reference(fam.poly, rings[_RING_INDICES])
    assert np.all(np.abs(la - ref) <= _eval_bound(cond))


def _spaced_bound(ref, cond):
    # at |log_abs| ~ 1e6 (|z| = 1e+-100) or 3e4 (the degree cap) a double
    # holds log_abs only to its spacing, 1.2e-10 or 3.6e-12
    return _eval_bound(cond) + 4.0 * np.spacing(np.abs(ref))


def test_eval_log_at_the_degree_cap_and_extreme_moduli(golden):
    two = Potential({1: 1.6, -1: 1.6, 2: 1.0, -2: 1.0})
    fam = det_family(two, golden, 2.49, DEFAULT_DEGREE_CAP // two.k0)
    assert fam.poly.hi == DEFAULT_DEGREE_CAP
    zs = np.array([1e-100 * np.exp(0.3j), 1e100 * np.exp(-2.0j),
                   0.97 * np.exp(1.1j), 1.02 * np.exp(-0.4j)])
    la, unit = fam.poly.eval_log(zs)
    ref, cond = _mp_reference(fam.poly, zs)
    assert np.all(np.abs(la - ref) <= _spaced_bound(ref, cond))
    assert np.allclose(np.abs(unit), 1.0)


def test_eval_log_with_zero_blocks_and_zero_ends():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(135) + 1j * rng.standard_normal(135)
    c[:3] = c[-4:] = 0.0          # exact zero ends, trimmed before summing
    c[35:67] = 0.0                # an all-zero block, in z and in 1/z
    p = ScaledLaurentPoly(-60, c, 3.0)
    zs = np.array([0.5 * np.exp(1j), 0.999 * np.exp(2j), np.exp(0.7j),
                   1.7 * np.exp(-1j), 3e-5 + 0j, -4e4 + 1j,
                   1e-100 * np.exp(2.5j), 1e100 * np.exp(-0.5j)])
    la, _ = p.eval_log(zs)
    ref, cond = _mp_reference(p, zs)
    assert np.all(np.abs(la - ref) <= _spaced_bound(ref, cond))


def test_eval_log_scalar_zero_and_exact_root():
    rng = np.random.default_rng(11)
    p = ScaledLaurentPoly(-40, rng.standard_normal(81) + 0j, 0.0)
    la, u = p.eval_log(0.8 + 0.3j)
    assert isinstance(la, float) and isinstance(u, complex)
    las, us = p.eval_log(np.array([0.8 + 0.3j, 2.0, 0.1j]))
    assert la == pytest.approx(las[0], abs=1e-13)
    assert u == pytest.approx(us[0], abs=1e-13)
    with pytest.raises(ValueError):
        p.eval_log(np.array([1.0, 0.0]))
    # z - 1 vanishes exactly at z = 1
    z_minus_1 = ScaledLaurentPoly(0, np.array([-1.0, 1.0 + 0j]), 0.0)
    assert z_minus_1.eval_log(1.0) == (-np.inf, 0j)
    assert _ZERO_POLY.eval_log(2.0) == (-np.inf, 0j)


@pytest.mark.parametrize("degree", [0, 4, 31, 32, 100])
def test_horner_pair_matches_exact_sums(degree):
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(degree)
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    x = rng.uniform(0.0, 1.0, 9) * np.exp(2j * np.pi * rng.uniform(0, 1, 9))
    p, dp = _horner_pair(c, x)
    for xi, pi, dpi in zip(x, p, dp):
        X = mp.mpc(complex(xi))
        exact = mp.fsum(mp.mpc(complex(ck)) * X ** k for k, ck in enumerate(c))
        dexact = mp.fsum(k * mp.mpc(complex(ck)) * X ** (k - 1)
                         for k, ck in enumerate(c) if k)
        scale = sum(abs(ck) * abs(xi) ** k for k, ck in enumerate(c))
        dscale = sum(k * abs(ck) * abs(xi) ** (k - 1) for k, ck in enumerate(c))
        assert abs(complex(pi) - complex(exact)) <= 1e-14 * scale
        assert abs(complex(dpi) - complex(dexact)) <= 1e-14 * (1.0 + dscale)
    # real coefficients at real points stay real
    pr, dpr = _horner_pair(np.abs(c), np.abs(x))
    assert pr.dtype == dpr.dtype == np.float64
    np.testing.assert_allclose(pr, np.polynomial.polynomial.polyval(np.abs(x), np.abs(c)),
                               rtol=1e-14)
