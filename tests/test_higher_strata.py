"""The m-fold potential f(theta) = 2 lam cos(2 pi m theta), m = 2 and 3,
against the AMO oracle.

Along the orbit, f(theta + j alpha) = 2 lam cos(2 pi (m theta + j m alpha)),
so the operator is the almost Mathieu operator at frequency m alpha mod 1
and phase m theta.  Hence D_n(z) = D_n^AMO(z^m): the coefficients off
multiples of m vanish, the others are the AMO family's, the m-th powers of
the zeros are the AMO zeros, each m times, the acceleration is m times the
AMO one and the annulus holds 2 n m zeros; and the box at phase theta has
the AMO box's Sturm counts at phase m theta.  These checks run the k0 = m
paths of the determinant recurrence, the root finder, the Sturm pivots and
the strip kernel.  The Lyapunov identity L^(m)(E, eps) = L^AMO(E, m eps) at
frequency m alpha mod 1 checks the strip kernel's rotation of the k = m
term by cos and sin of 2 pi m r_j.  For lam > 1 the eigenvectors are the
AMO ones, so they decay at the AMO rate log lam.
"""

import math

import numpy as np
import pytest

from strata_lab import (Potential, acceleration, count_annulus, det_at_phase,
                        det_family, dirichlet_eigenvalues, eigenfunction_decay,
                        find_zeros, lyapunov_n, sturm_count)

LAM, N = 2.0, 60
AMO = Potential.amo(LAM)


def _fold(m):
    return Potential({m: LAM, -m: LAM})


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("E", [0.5, 1.5, 3.7])
def test_determinant_is_the_amo_determinant_at_z_to_the_m(E, m, golden):
    fold = det_family(_fold(m), golden, E, N).poly
    amo = det_family(AMO, (m * golden) % 1.0, E, N).poly
    assert (fold.lo, fold.hi) == (m * amo.lo, m * amo.hi)
    # the exponents lo + i are multiples of m exactly where i is
    assert np.all(fold.coeffs[np.arange(len(fold.coeffs)) % m != 0] == 0.0)
    kept = fold.coeffs[::m] * math.exp(fold.log_scale - amo.log_scale)
    # the largest relative error read 2.1e-12 (m = 3, E = 1.5)
    scale = np.max(np.abs(amo.coeffs))
    assert np.max(np.abs(kept - amo.coeffs)) <= 1e-11 * scale


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("E", [0.5, 1.5, 3.7])
def test_mth_powers_of_the_zeros_are_the_amo_zeros(E, m, golden):
    roots = find_zeros(det_family(_fold(m), golden, E, N)).roots
    amo = find_zeros(det_family(AMO, (m * golden) % 1.0, E, N)).roots
    assert len(roots) == m * len(amo)
    dist = np.abs(roots[:, None] ** m - amo[None, :])
    nearest = np.argmin(dist, axis=1)
    # each AMO zero is the m-th power of exactly m zeros; the largest
    # distance read 9.8e-14 (m = 3, E = 3.7)
    assert np.all(np.bincount(nearest, minlength=len(amo)) == m)
    assert np.max(dist[np.arange(len(roots)), nearest]) <= 1e-12


@pytest.mark.parametrize("m", [2, 3])
def test_sturm_counts_are_the_amo_counts_at_m_theta(m, golden):
    energies = np.linspace(-6.5, 6.5, 181)
    thetas = np.array([0.0, 0.123, 0.61])
    fold = sturm_count(_fold(m), golden, thetas, energies, 200)
    amo = sturm_count(AMO, (m * golden) % 1.0, (m * thetas) % 1.0,
                      energies, 200)
    assert np.array_equal(fold, amo)


@pytest.mark.parametrize("lam", [1.6, 2.0])
@pytest.mark.parametrize("m", [2, 3])
def test_m_fold_eigenvectors_decay_at_log_lambda(m, lam, golden):
    # the 10 middle eigenvectors of the n = 1000 box at theta = 0, within
    # the 5% of the (1.6, 1.0) S2+ decay test
    pot, n = Potential({m: lam, -m: lam}), 1000
    Es = dirichlet_eigenvalues(pot, golden, 0.0, n, np.arange(10) + n // 2 - 5)
    profiles = eigenfunction_decay(pot, golden, 0.0, n, Es)
    rates = [p.decay_rate for p in profiles]
    np.testing.assert_allclose(rates, math.log(lam), rtol=0.05, atol=0.0)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("E", [0.5, 1.5, 3.7])
def test_det_at_phase_is_the_amo_value_at_m_theta(E, m, golden):
    for theta in np.arange(7) / 7.0 + 0.01:
        la, sign = det_at_phase(_fold(m), golden, theta, E, N)
        la_amo, sign_amo = det_at_phase(AMO, (m * golden) % 1.0,
                                        (m * theta) % 1.0, E, N)
        assert sign == sign_amo
        assert la == pytest.approx(la_amo, abs=1e-10)


@pytest.mark.parametrize("m", [2, 3])
def test_acceleration_is_m_times_the_amo_one(m, golden):
    est = acceleration(_fold(m), golden, 0.5, np.linspace(0.02, 0.1, 5),
                       n=512, K=256)
    assert est.kappa == m
    assert not est.non_affine


@pytest.mark.parametrize("m", [2, 3])
def test_annulus_holds_two_n_m_zeros(m, golden):
    inv = find_zeros(det_family(_fold(m), golden, 0.5, N))
    assert len(inv.roots) == 2 * N * m
    assert count_annulus(inv, 0.025).count == 2 * N * m


# |L_n^(m)(E, eps) - L_n^AMO(E, m eps)| over the grid below read at most
# 3.3e-12 (m = 3, lam = 3) when the kernel took its phases as
# fl(theta + fl(j alpha)) mod 1; the bound leaves a factor 3
MFOLD_BOUND = 1e-11


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
def test_lyapunov_is_the_amo_exponent_at_m_alpha_and_m_eps(m, lam, golden):
    # the K phases i/K map to m i/K mod 1, each of the K/gcd(m, K) AMO
    # phases gcd(m, K) times, so the two trapezoid means are the same sum
    n, K, grid = 256, 64, [0.0, 0.01, 0.03, 0.08]
    energies = [-2.5, 0.5, 1.5, 3.7]
    fold = lyapunov_n(Potential({m: lam, -m: lam}), golden, energies, n, grid,
                      K=K)
    amo = lyapunov_n(Potential.amo(lam), (m * golden) % 1.0, energies, n,
                     [m * eps for eps in grid], K=K // math.gcd(m, K))
    assert fold.shape == amo.shape == (2, len(energies), len(grid))
    assert np.max(np.abs(fold[0] - amo[0])) <= MFOLD_BOUND
