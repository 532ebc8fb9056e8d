"""The dual-nome annulus Green kernel against two independent oracles.

`green_annulus` evaluates theta_1 after Jacobi's imaginary transformation,
a series of one or a few terms.  The first oracle is the image product in
complex log-sum form: four complex factors per image order, one absolute
value and log per run of 16 orders, with enough orders for a 1e-17 tail.
The second is `mpmath.jtheta` at 40 digits in the original nome
e^{-2 log R}.  The kernel must agree with both to roundoff across the
served range of R, vanish on both boundary circles, and keep its accuracy
next to the pole.
"""

import math

import numpy as np
import pytest

from strata_lab import green_annulus
from strata_lab.zeros_potential import _dual_theta_poly

TWO_PI = 2.0 * math.pi
# the thinnest served annulus (R_eps = 0.005, the log-sum oracle's 300
# image orders read 1.7e-14), two thin ones, the riesz default, three wide
# ones and the widest served annulus (R_eps = 2; at 3 the log-sum oracle
# reads 5.8e-12)
R_EPS = (0.005, 0.008, 0.0144, 0.05, 0.3, 1.0, 1.5, 2.0)


def _reference_green(z, w, R):
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    lr = math.log(R)
    term1 = ((np.log(np.abs(z)) - lr) * (np.log(np.abs(w)) - lr)
             / (4.0 * math.pi * lr))
    S = np.log(np.abs(z - w) / R)
    zw, wz = z / w, w / z
    wzc, izw = w * np.conj(z), 1.0 / (np.conj(z) * w)
    # order k's factors differ from 1 by O(R^{-4k}): a 1e-17 tail; one log
    # per run of 16 orders' complex product
    orders = range(1, math.ceil(17.0 * math.log(10.0) / (4.0 * lr)) + 1)
    for a in range(0, len(orders), 16):
        num, den = np.ones(S.shape, complex), np.ones(S.shape, complex)
        for k in orders[a:a + 16]:
            e4k = math.exp(-4.0 * k * lr)
            e4k2 = math.exp(-(4.0 * k - 2.0) * lr)
            num *= (1.0 - zw * e4k) * (1.0 - wz * e4k)
            den *= (1.0 - wzc * e4k2) * (1.0 - izw * e4k2)
        S = S + np.log(np.abs(num / den))
    return term1 + S / TWO_PI


def _jtheta_green(z, w, R):
    """G from theta_1 in the nome e^{-2 log R}, at 40 digits."""
    import mpmath
    with mpmath.workdps(40):
        z, w = mpmath.mpc(z), mpmath.mpc(w)
        lr = mpmath.log(mpmath.mpf(R))
        zeta, zeta_w = mpmath.log(z), mpmath.log(w)
        q = mpmath.exp(-2 * lr)
        v = 1j * (zeta - zeta_w) / 2
        v_mirror = 1j * (zeta + mpmath.conj(zeta_w) - 2 * lr) / 2
        g = (mpmath.log(abs(mpmath.jtheta(1, v, q)))
             - mpmath.log(abs(mpmath.jtheta(1, v_mirror, q)))) / (2 * mpmath.pi)
        g += ((mpmath.log(abs(z)) - lr) * (mpmath.log(abs(w)) - lr)
              / (4 * mpmath.pi * lr))
        return float(g)


def _draw(rng, lr, m):
    return (np.exp(rng.uniform(-lr, lr, m))
            * np.exp(1j * TWO_PI * rng.uniform(0.0, 1.0, m)))


@pytest.mark.parametrize("R_eps", R_EPS)
def test_kernel_matches_log_sum_oracle(R_eps):
    R = math.exp(TWO_PI * R_eps)
    lr = math.log(R)
    rng = np.random.default_rng(11)
    z, w = _draw(rng, lr, 300), _draw(rng, lr, 300)
    rim = np.exp(1j * TWO_PI * rng.uniform(0.0, 1.0, 100))
    for zs in (z, R * rim, rim / R):
        got = green_annulus(zs[:, None], w[None, :], R)
        want = _reference_green(zs[:, None], w[None, :], R)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("R_eps", R_EPS)
def test_kernel_matches_jtheta_oracle(R_eps):
    R = math.exp(TWO_PI * R_eps)
    lr = math.log(R)
    rng = np.random.default_rng(23)
    z, w = _draw(rng, lr, 30), _draw(rng, lr, 30)
    for a, b in zip(z, w):
        assert abs(green_annulus(a, b, R) - _jtheta_green(a, b, R)) <= 1e-13
    # on both circles the kernel vanishes up to the rounding of |z|
    rim = np.exp(1j * TWO_PI * rng.uniform(0.0, 1.0, 30))
    for zs in (R * rim, rim / R):
        assert np.max(np.abs(green_annulus(zs[:, None], w[None, :], R))) <= 1e-14


@pytest.mark.parametrize("R_eps", R_EPS)
@pytest.mark.parametrize("dist", [1e-3, 1e-5, 1e-7, 1e-9])
def test_kernel_keeps_its_accuracy_next_to_the_pole(R_eps, dist):
    R = math.exp(TWO_PI * R_eps)
    for w in (R ** 0.6 * np.exp(0.4j), np.exp(2.9j), R ** -0.8 * np.exp(-1.3j)):
        z = w + dist * np.exp(0.7j)
        assert abs(green_annulus(z, w, R) - _jtheta_green(z, w, R)) <= 5e-12


def test_dual_series_term_counts():
    # M = floor(sqrt(7.5 log R)) + 1 terms; |F|^2 has one row per power of
    # sin^2 X, 2M - 1 in all
    for R_eps, M in ((0.005, 1), (0.0144, 1), (0.05, 2), (0.3, 4), (1.0, 7),
                     (1.5, 9), (2.0, 10)):
        assert len(_dual_theta_poly(TWO_PI * R_eps)) == 2 * M - 1


def _numpy_dual_theta_poly(lr):
    """_dual_theta_poly with its Chebyshev tables from numpy.polynomial."""
    M = int(math.sqrt(7.5 * lr)) + 1
    q = math.exp(-math.pi ** 2 / (2.0 * lr))
    t = [(-1) ** m * q ** (m * (m + 1)) for m in range(M)]
    c = [sum(t)] + [2.0 * sum(t[j:]) for j in range(1, M)]
    A = np.zeros((2 * M - 1, 2 * M - 1))
    for j in range(M):
        for k in range(M):
            A[j + k, abs(j - k)] += 0.5 * c[j] * c[k]
    P = np.polynomial
    TS, TH = (np.array([np.pad(P.Chebyshev.basis(p)(P.Polynomial([1.0, x])).coef,
                               (0, 2 * M - 2 - p)) for p in range(2 * M - 1)])
              for x in (-2.0, 2.0))
    B = TS.T @ (A + A.T) @ TH
    return tuple(tuple(np.trim_zeros(row, "b")) for row in B)


def test_dual_series_tables_match_numpy_polynomial_bit_for_bit():
    # one log R per term count M = 1..10 that the served range reaches, and
    # both ends of that range
    lrs = [0.1] + [(M - 0.5) ** 2 / 7.5 for M in range(2, 11)]
    lrs += [10.0 * math.log(10.0) / 256.0, 4.0 * math.pi]
    assert sorted({int(math.sqrt(7.5 * lr)) + 1 for lr in lrs}) == list(range(1, 11))
    for lr in lrs:
        got, want = _dual_theta_poly(lr), _numpy_dual_theta_poly(lr)
        assert ([np.array(row).tobytes() for row in got]
                == [np.array(row).tobytes() for row in want])


@pytest.mark.parametrize("R_eps", R_EPS)
def test_kernel_vanishes_next_to_a_boundary_mirror_point(R_eps):
    # the pole sits 1e-7 from the mirror image of z across |z| = R
    R = math.exp(TWO_PI * R_eps)
    for phi in (0.3, 1.0, 2.5, 4.0):
        z = R * np.exp(1j * phi)
        w = (R - 1e-9) * np.exp(1j * (phi + 1e-7))
        assert abs(green_annulus(z, w, R)) <= 1e-10
        assert abs(_reference_green(z, w, R)) <= 1e-10


def test_kernel_keeps_scalar_and_broadcast_shapes():
    R = math.exp(TWO_PI * 0.05)
    z, w = 1.1 * np.exp(0.4j), np.array([0.95, 1.2j, -1.05])
    assert isinstance(green_annulus(z, complex(w[0]), R), float)
    np.testing.assert_allclose(green_annulus(z, w, R),
                               [green_annulus(z, complex(x), R) for x in w],
                               rtol=0.0, atol=1e-15)
    assert green_annulus(np.asarray(z)[None, None], w[None, :], R).shape == (1, 3)
