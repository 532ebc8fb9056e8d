"""The in-place Green kernel against the kernel it replaced, bit for bit.

`_green_pairs` writes every operation of G(z, w) into work arrays that its
caller takes once (`_green_buffers`): `green_annulus` one set of the pair
shape, `green_potential` one set of one row block, reused for every block.
The reference below is the kernel as it was written before: one fresh
array per operation, the diagonal checked over every pair before any
arithmetic, the near-pole pairs picked by a boolean mask and both Horner
evaluations folded with `functools.reduce`.  The in-place kernel applies
the same ufuncs to the same operands in the same order, so the two must
agree to the bit on every pair: next to the pole, on both boundary circles,
in a short last block, and across the served range of R.
"""

import functools
import math

import numpy as np
import pytest

from strata_lab import green_annulus, green_potential, zeros_potential
from strata_lab.zeros_potential import _dual_theta_poly, _green_terms

TWO_PI = 2.0 * math.pi
# R_eps = 0.0144, 0.05, 0.3 and 1 (M = 1, 2, 4, 7 dual-nome terms) and the
# widest served annulus, R_eps = 2 (M = 10)
RS = [math.exp(TWO_PI * e) for e in (0.0144, 0.05, 0.3, 1.0, 2.0)]


def _same(got, want):
    return np.array_equal(got, want) and bool(np.all(np.isfinite(got)))


def _horner(coef, x):
    return functools.reduce(lambda acc, c: acc * x + c, coef[-2::-1], coef[-1])


def _reference_pairs(zt, wt, lr):
    (z, sz, cz, pz, az), (w, sw, cw, pw, aw) = zt, wt
    if np.any(z == w):
        raise ValueError("Green's function is singular on the diagonal z = w")
    alpha = math.pi / (4.0 * lr)
    t1, t2 = sz * cw, cz * sw
    sx2, sxm2 = (t1 - t2) ** 2, (t1 + t2) ** 2        # sin^2 X, sin^2 X*
    d = np.abs(az - aw)
    sh2 = np.sinh(alpha * np.minimum(d, TWO_PI - d)) ** 2
    N = np.asarray(sx2 + sh2)
    near = N < 1e-2
    if np.any(near):    # log(z / w) = log1p(t), t = (z - w) / w
        zb, wb = (np.broadcast_to(v, N.shape)[near] for v in (z, w))
        t = (zb - wb) / wb
        X = 0.5 * alpha * np.log1p(2.0 * t.real + (t.real ** 2 + t.imag ** 2))
        Y = alpha * np.arctan2(t.imag, 1.0 + t.real)
        N[near] = np.sin(X) ** 2 + np.sinh(Y) ** 2
    g = [_horner(row, sh2) for row in _dual_theta_poly(lr)]
    P = (4.0 * pz) * pw                              # sin^2 X* - sin^2 X
    return np.log(N * _horner(g, sx2) / ((N + P) * _horner(g, sxm2))) / (4 * math.pi)


def _reference_annulus(z, w, R):
    return _reference_pairs(_green_terms(z, R), _green_terms(w, R), math.log(R))


def _reference_potential(zs, roots, R, n, block):
    zt, wt = _green_terms(zs[:, None], R), _green_terms(roots, R)
    step = max(1, block // len(roots))
    out = np.zeros(len(zs))
    for a in range(0, len(zs), step):
        out[a:a + step] = np.sum(
            _reference_pairs([t[a:a + step] for t in zt], wt, math.log(R)), axis=1)
    return out * TWO_PI / n


def _draw(rng, lr, m):
    return (np.exp(rng.uniform(-lr, lr, m))
            * np.exp(1j * TWO_PI * rng.uniform(0.0, 1.0, m)))


def _near_pole(w, rng):
    """Points at relative distances 1e-3 .. 1e-10 of the poles w, moved
    towards the unit circle so that they stay inside the annulus."""
    dist = 10.0 ** -rng.uniform(3.0, 10.0, len(w))
    step = dist * np.exp(1j * rng.uniform(-1.2, 1.2, len(w)))
    return w * np.exp(-np.sign(np.log(np.abs(w))) * step)


def _pole_factor(z, w, R):
    """sin^2 X + sinh^2 Y from the separate factors, before the fix."""
    zt, wt = _green_terms(z, R), _green_terms(w, R)
    alpha = math.pi / (4.0 * math.log(R))
    d = np.abs(zt[4] - wt[4])
    return ((zt[1] * wt[2] - zt[2] * wt[1]) ** 2
            + np.sinh(alpha * np.minimum(d, TWO_PI - d)) ** 2)


@pytest.mark.parametrize("R", RS)
def test_pairs_match_the_reference_bit_for_bit(R):
    lr = math.log(R)
    rng = np.random.default_rng(31)
    w = _draw(rng, lr, 40)
    rim = np.exp(1j * TWO_PI * rng.uniform(0.0, 1.0, 25))
    near = _near_pole(w, rng)
    assert np.all(_pole_factor(near, w, R) < 1e-2)
    for z in (_draw(rng, lr, 60), R * rim, rim / R, near):
        got = green_annulus(z[:, None], w[None, :], R)          # 2-D broadcast
        assert _same(got, _reference_annulus(z[:, None], w[None, :], R))
    got = green_annulus(near, w, R)                              # 1-D, pole pairs
    assert _same(got, _reference_annulus(near, w, R))


@pytest.mark.parametrize("R", RS)
def test_scalar_calls_are_the_one_element_kernel(R):
    # on numpy scalars the reference squares with libm pow, which differs
    # from x * x in the last bit for about 1 value in 1200; the kernel
    # writes into 0-d arrays, so a scalar call gives the array bits
    rng = np.random.default_rng(37)
    lr = math.log(R)
    w = _draw(rng, lr, 12)
    rim = np.exp(1j * np.angle(w[:4]))
    z = np.concatenate([_draw(rng, lr, 4), _near_pole(w[4:8], rng),
                        R * rim[:2], rim[2:] / R])
    for a, b in zip(z, w):
        got = green_annulus(complex(a), complex(b), R)
        assert isinstance(got, float)
        assert _same(got, _reference_annulus(np.array([a]), np.array([b]), R)[0])


@pytest.mark.parametrize("R", RS)
def test_potential_matches_the_reference_with_a_short_last_block(R):
    lr = math.log(R)
    rng = np.random.default_rng(41)
    roots = _draw(rng, lr, 300)
    step = zeros_potential._BLOCK // len(roots)
    m = 2 * step + 7                                   # the last block has 7 rows
    zs = _draw(rng, lr, m)
    zs[:40:4] = _near_pole(roots[:10], rng)            # pole pairs in the first block
    zs[-3:] = _near_pole(roots[-3:], rng)              # and in the last
    zs[1], zs[-4] = R * np.exp(0.3j), np.exp(2.0j) / R  # both circles
    got = green_potential(zs, roots, R, 64)
    assert _same(got, _reference_potential(zs, roots, R, 64, zeros_potential._BLOCK))


def test_diagonal_pair_in_a_later_block_is_refused():
    R = math.exp(TWO_PI * 0.05)
    rng = np.random.default_rng(43)
    roots = _draw(rng, math.log(R), 200)
    step = zeros_potential._BLOCK // len(roots)
    zs = _draw(rng, math.log(R), 3 * step)
    k = 2 * step + 5                                   # in the third block
    zs[k - 2:k + 3] = _near_pole(roots[[7, 8, 9, 10, 11]], rng)
    zs[k] = roots[9]                                   # the diagonal, among pole pairs
    with pytest.raises(ValueError, match="diagonal"):
        green_potential(zs, roots, R, 64)
    with pytest.raises(ValueError, match="diagonal"):
        _reference_potential(zs, roots, R, 64, zeros_potential._BLOCK)
    with pytest.raises(ValueError, match="diagonal"):
        green_annulus(zs[k - 2:k + 3, None], roots[None, :], R)
