import math

import numpy as np
import pytest

from strata_lab import (Potential, center_family, det_at_phase, det_family,
                        transfer_log_norms)
from strata_lab.determinant import (DEFAULT_DEGREE_CAP, DegreeCapError,
                                   ScaledLaurentPoly)


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
    assert det_family(amo2, golden, 0.5, 20).inversive_defect() < 1e-10
    assert det_family(amo2, golden, 1.5, 20).inversive_defect() < 1e-10


def test_centered_family_is_palindromic(amo2, golden):
    fam = det_family(amo2, golden, 1.5, 15)
    with pytest.raises(ValueError):
        fam.palindrome_defect()
    cen = center_family(fam)
    assert cen.centered
    assert cen.palindrome_defect() < 1e-10


def test_centering_requires_even_potential(golden):
    odd = Potential({1: 1.0 + 0.5j, -1: 1.0 - 0.5j})
    with pytest.raises(ValueError):
        center_family(det_family(odd, golden, 0.5, 10))


def test_centered_modulus_reflection(amo2, golden):
    # palindromic coefficients force |D_c(1/z)| = |D_c(z)|
    cen = center_family(det_family(amo2, golden, 1.5, 15))
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = (0.9 + 0.2 * rng.random()) * np.exp(2j * np.pi * rng.random())
        la1, _ = cen.poly.eval_log(z)
        la2, _ = cen.poly.eval_log(1.0 / z)
        assert la1 == pytest.approx(la2, abs=1e-9)


def test_circle_scan_matches_pointwise(amo2, golden):
    fam = det_family(amo2, golden, 0.5, 10)
    m, r = 8, 1.02
    scan = fam.log_abs_per_site_circle(r, m)
    for j in range(m):
        z = r * np.exp(2j * np.pi * j / m)
        assert scan[j] == pytest.approx(fam.log_abs_per_site(z), abs=1e-10)


def test_scaled_poly_normalizes_into_log_scale():
    p = ScaledLaurentPoly.make(-2, np.array([4.0, 0.0, 1.0, 0.0, 8.0]),
                               log_scale=1.0)
    assert 0.5 <= float(np.max(np.abs(p.coeffs))) <= 2.0
    # value survives the renormalization: (4 + 1 + 8) e at z = 1
    assert complex(poly_value(p, 1.0 + 0.0j)) == pytest.approx(
        13.0 * math.e, rel=1e-12)


def test_scaled_poly_trimmed_drops_zero_edges():
    t = ScaledLaurentPoly.make(-1, np.array([0.0, 2.0, 1.0, 0.0])).trimmed()
    assert (t.lo, t.hi) == (0, 1)


def test_scaled_poly_circle_log_matches_eval_log():
    rng = np.random.default_rng(3)
    p = ScaledLaurentPoly.make(
        -3, rng.standard_normal(7) + 1j * rng.standard_normal(7))
    vals = p.eval_circle_log(1.1, 16)
    assert vals.shape == (16,)
    for j in (0, 5, 11):
        z = 1.1 * np.exp(2j * np.pi * j / 16)
        assert vals[j] == pytest.approx(p.eval_log(z)[0], abs=1e-10)
