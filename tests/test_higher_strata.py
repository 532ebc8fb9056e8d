"""The 2-fold potential f(theta) = 2 lam cos(4 pi theta) against the AMO oracle.

Along the orbit, f(theta + j alpha) = 2 lam cos(2 pi (2 theta + j 2 alpha)),
so the operator is the almost Mathieu operator at frequency 2 alpha mod 1 and
phase 2 theta.  Hence D_n(z) = D_n^AMO(z^2): the coefficients at odd exponents
vanish, the even ones are the AMO family's, the acceleration doubles and the
annulus holds 2 n * 2 zeros.  These checks run the k0 = 2 paths of the
determinant recurrence, the root finder and the strip kernel.  The same
identity for m = 2 and 3, L^(m)(E, eps) = L^AMO(E, m eps) at frequency
m alpha mod 1, checks the strip kernel's rotation of the k = m term by
cos and sin of 2 pi m r_j.
"""

import math

import numpy as np
import pytest

from strata_lab import (Potential, acceleration, count_annulus, det_at_phase,
                        det_family, find_zeros, lyapunov_n)

LAM, N = 2.0, 60
COS4PI = Potential({2: LAM, -2: LAM})
AMO = Potential.amo(LAM)


@pytest.mark.parametrize("E", [0.5, 1.5, 3.7])
def test_determinant_is_the_amo_determinant_at_z_squared(E, golden):
    two = det_family(COS4PI, golden, E, N).poly
    amo = det_family(AMO, (2.0 * golden) % 1.0, E, N).poly
    assert (two.lo, two.hi) == (2 * amo.lo, 2 * amo.hi)
    assert np.all(two.coeffs[1::2] == 0.0)
    even = two.coeffs[::2] * math.exp(two.log_scale - amo.log_scale)
    assert np.max(np.abs(even - amo.coeffs)) <= 1e-11 * np.max(np.abs(amo.coeffs))


@pytest.mark.parametrize("E", [0.5, 1.5, 3.7])
def test_det_at_phase_is_the_amo_value_at_doubled_phase(E, golden):
    for theta in np.arange(7) / 7.0 + 0.01:
        la, sign = det_at_phase(COS4PI, golden, theta, E, N)
        la_amo, sign_amo = det_at_phase(AMO, (2.0 * golden) % 1.0,
                                        (2.0 * theta) % 1.0, E, N)
        assert sign == sign_amo
        assert la == pytest.approx(la_amo, abs=1e-10)


def test_acceleration_doubles(golden):
    est = acceleration(COS4PI, golden, 0.5, np.linspace(0.02, 0.1, 5))
    assert est.kappa == 2
    assert not est.non_affine


def test_annulus_holds_four_n_zeros(golden):
    inv = find_zeros(det_family(COS4PI, golden, 0.5, N))
    assert len(inv.roots) == 4 * N
    assert count_annulus(inv, 0.025).count == 4 * N


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
