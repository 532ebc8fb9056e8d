"""The real-arithmetic annulus Green kernel against the loop it replaced.

`green_annulus` multiplies the image factors out into real polynomials in
(r/s + s/r, rs + 1/(rs), cos(phi - psi)) and takes one log per group of
eight orders.  The reference below is the complex log-sum form: four
complex factors, absolute values and logs per image order.  Both truncate
the same product at `green_trunc_order(R)` orders, so they must agree to
roundoff, across the served range of R and on both boundary circles.
"""

import math

import numpy as np
import pytest

from strata_lab import green_annulus
from strata_lab.zeros_potential import green_trunc_order

TWO_PI = 2.0 * math.pi
# the thinnest served annulus (64 orders), the riesz default, a wide one
R_EPS = (0.0144, 0.05, 0.3)


def _reference_green(z, w, R):
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    lr = math.log(R)
    term1 = ((np.log(np.abs(z)) - lr) * (np.log(np.abs(w)) - lr)
             / (4.0 * math.pi * lr))
    S = np.log(np.abs(z - w) / R)
    zw, wz = z / w, w / z
    wzc, izw = w * np.conj(z), 1.0 / (np.conj(z) * w)
    for k in range(1, green_trunc_order(R) + 1):
        e4k = math.exp(-4.0 * k * lr)
        e4k2 = math.exp(-(4.0 * k - 2.0) * lr)
        S = S + np.log(np.abs(1.0 - zw * e4k)) + np.log(np.abs(1.0 - wz * e4k)) \
              - np.log(np.abs(1.0 - wzc * e4k2)) - np.log(np.abs(1.0 - izw * e4k2))
    return term1 + S / TWO_PI


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
def test_kernel_vanishes_next_to_a_boundary_mirror_point(R_eps):
    # the k = 1 denominator |1 - w conj(z) / R^2| is about 1e-7 here
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
