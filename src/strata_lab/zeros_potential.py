"""Zero inventories of determinant polynomials and annulus potential theory.

The zero set of D_n(z, E) inside thin annuli around the unit circle carries
the same information as the acceleration: per-site zero count and twice the
acceleration agree in the large-n limit.  This module finds all zeros
(simultaneous Aberth iteration), counts them in annuli, and implements the
annulus Green's function (one dual-nome kernel) with its circle averages,
the Riesz split of the per-site log-determinant into Green potential plus
harmonic part, Jensen's formula checked on D_n itself, and the Riesz-mass
flux estimators.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .cocycle import TAU_POS, acceleration, line_fit, lyapunov_n
from .determinant import DeterminantFamily, _horner_pair, det_family
from .model import TWO_PI, Potential


class RootConvergenceError(RuntimeError):
    """The simultaneous root iteration failed its residual certificate."""


# Pairwise loops (roots x roots, points x roots) run in row blocks of about
# this many elements, so that their temporaries and the Green kernel's work
# arrays, taken once per call and filled in place, stay in the L2 cache.
_BLOCK = 1 << 14

# every root passes |p(w)| <= _ROOT_TOL * sum_i |c_i| |w|^i
_ROOT_TOL = 1e-12
# roots within _CIRCLE_TOL of |w| = 1 count as on the unit circle, and
# roots within _BOUNDARY_TOL of an annulus circle as on that circle
_CIRCLE_TOL = 1e-8
_BOUNDARY_TOL = 1e-9
# reflection partners w -> phase / w pair within this distance
_REFLECTION_TOL = 1e-6


# ----------------------------------------------------------------------
# polynomial roots (Aberth simultaneous iteration)
# ----------------------------------------------------------------------

def _newton_ratio(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """p(z)/p'(z), computed in ratio form so |z| >> 1 cannot overflow.

    For |z| > 1 the reversed polynomial q(w) = w^d p(1/w) is evaluated at
    w = 1/z; then p/p' = z q / (d q - w q').  A zero denominator gives a
    small fixed step instead.
    """
    num, den = np.empty_like(z), np.empty_like(z)
    inner = np.abs(z) <= 1.0
    if np.any(inner):
        num[inner], den[inner] = _horner_pair(c, z[inner])
    if np.any(~inner):
        zz = z[~inner]
        w = 1.0 / zz
        q, dq = _horner_pair(c[::-1], w)
        num[~inner], den[~inner] = zz * q, (len(c) - 1) * q - w * dq
    bad = den == 0
    out = num / np.where(bad, 1.0, den)
    out[bad] = 1e-3 * (1.0 + np.abs(z[bad])) * (0.6 + 0.8j)
    return out


def _relative_residuals(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|p(z)| / sum_i |c_i| |z|^i, overflow-safe for any |z|."""
    ca = np.abs(c)
    out = np.empty(len(z), dtype=np.float64)
    inner = np.abs(z) <= 1.0
    for sel, cs, cas, x in ((inner, c, ca, z[inner]),
                            (~inner, c[::-1], ca[::-1], 1.0 / z[~inner])):
        if np.any(sel):
            p, _ = _horner_pair(cs, x)
            b, _ = _horner_pair(cas, np.abs(x))
            out[sel] = np.abs(p) / np.maximum(b, 1e-300)
    return out


def _newton_polygon_starts(c: np.ndarray) -> np.ndarray:
    """m starts evenly spaced on the tropical radius |c_i / c_j|^{1/m} of
    each edge i -> j = i + m of the upper convex hull of (k, log|c_k|),
    offset per edge; exactly-zero interior coefficients stay off the hull."""
    ks = np.nonzero(c)[0].tolist()
    ys = np.log(np.abs(c[ks])).tolist()
    hull = [0]
    for i in range(1, len(ks)):
        # drop the last vertex b while it lies on or below the chord a -> i
        while len(hull) > 1:
            a, b = hull[-2], hull[-1]
            if (ys[b] - ys[a]) * (ks[i] - ks[a]) > (ys[i] - ys[a]) * (ks[b] - ks[a]):
                break
            hull.pop()
        hull.append(i)
    z = []
    for a, b in zip(hull[:-1], hull[1:]):
        m = int(ks[b] - ks[a])
        ang = TWO_PI * ((np.arange(m) + 0.5) / m + ks[a] / ks[-1]) + 0.31
        z.append(math.exp((ys[a] - ys[b]) / m) * np.exp(1j * ang))
    return np.concatenate(z)


def aberth_roots(coeffs) -> np.ndarray:
    """All roots of an ordinary polynomial given by ascending coefficients.

    Simultaneous third-order iteration: Newton corrections coupled through
    pairwise repulsion, for the roots not yet converged.  Starting points
    come from the Newton polygon (_newton_polygon_starts).  Every returned
    root passes the backward-error certificate
    |p(w)| <= _ROOT_TOL * sum_i |c_i| |w|^i, within 500 iterations.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if len(c) == 0 or c[0] == 0 or c[-1] == 0:
        raise ValueError("coefficients must be trimmed of zero ends")
    c = c / np.max(np.abs(c))
    d = len(c) - 1
    if d == 0:
        return np.zeros(0, dtype=np.complex128)

    z = _newton_polygon_starts(c)
    active = np.arange(d)
    for _ in range(500):
        za = z[active]
        w = _newton_ratio(c, za)
        # pairwise repulsion sums, chunked to bound memory at large degree
        S = np.empty(len(active), dtype=np.complex128)
        step = max(1, _BLOCK // d)
        for a in range(0, len(active), step):
            diff = za[a:a + step, None] - z[None, :]
            diff[np.arange(len(diff)), active[a:a + step]] = np.inf
            S[a:a + step] = np.sum(1.0 / diff, axis=1)
        den = 1.0 - w * S
        corr = w / np.where(den == 0, 1.0, den)
        corr = np.where(np.isfinite(corr), corr, w)
        z[active] = za - corr
        active = active[np.abs(corr) > _ROOT_TOL * (1.0 + np.abs(z[active]))]
        if not len(active):
            break

    # Newton polish, then certify backward error
    for _ in range(2):
        z = z - _newton_ratio(c, z)
    resid = _relative_residuals(c, z)
    bad = np.nonzero(resid > _ROOT_TOL)[0]
    if len(bad):
        raise RootConvergenceError(
            f"{len(bad)} roots failed the residual certificate "
            f"(worst {float(np.max(resid)):.3e}); indices {bad[:8].tolist()}")
    # by angle, then modulus: rounding the angle keeps the pairs w, 1/conj(w)
    # (equal angles up to rounding) in modulus order
    order = np.lexsort((np.abs(z), np.round(np.angle(z), 9)))
    return z[order]


# ----------------------------------------------------------------------
# zero inventories
# ----------------------------------------------------------------------

class ZeroInventory(NamedTuple):
    """The full zero set of one determinant family, with symmetry pairings.

    pair_inversive[i] is the index of the root closest to 1/conj(roots[i])
    when that distance is within 1e-7, else -1; roots on the unit
    circle (within _CIRCLE_TOL) are their own inversive partners and carry
    -1.  pair_reflection is the analogous map for
    w -> e^{-2 pi i (n-1) alpha} / w (even potentials only), or None.
    """

    roots: np.ndarray            # complex zeros, deterministically ordered
    pair_inversive: np.ndarray   # int indices or -1
    pair_reflection: Optional[np.ndarray]
    on_circle: np.ndarray        # bool, | |w| - 1 | <= _CIRCLE_TOL

    def eps_coords(self) -> np.ndarray:
        """|log|w|| / 2 pi per root: the annulus half-width that reaches it."""
        return np.abs(np.log(np.abs(self.roots))) / TWO_PI


def _nearest_pairing(roots: np.ndarray, targets: np.ndarray, tol: float,
                     skip: np.ndarray) -> np.ndarray:
    """Index of the root nearest each target within tol; -1 where skipped."""
    N = len(roots)
    out = np.full(N, -1, dtype=np.int64)
    if N == 0:
        return out
    step = max(1, _BLOCK // N)
    for a in range(0, N, step):
        d2 = np.abs(targets[a:a + step, None] - roots[None, :])
        j = np.argmin(d2, axis=1)
        best = d2[np.arange(len(j)), j]
        sel = (best <= tol) & ~skip[a:a + step]
        out[a:a + step] = np.where(sel, j, -1)
    return out


def find_zeros(fam: DeterminantFamily) -> ZeroInventory:
    """Locate all zeros of D_n and build the symmetry pairings.

    The edge coefficients of D_n never vanish, so an edge coefficient that
    trimmed() drops has underflowed; the inventory would then miss roots,
    and it is refused.  Real energy forces the zero set to be invariant
    under w -> 1/conj(w); even potentials add the reflection
    w -> e^{-2 pi i (n-1) alpha} / w.
    """
    poly = fam.poly.trimmed()
    if poly.is_zero:
        raise ValueError("determinant is identically zero; no inventory")
    dropped = len(fam.poly.coeffs) - len(poly.coeffs)
    if dropped:
        raise ValueError(
            f"{dropped} of {len(fam.poly.coeffs)} coefficients of D_n underflow "
            "below 1e-300 of the largest; the inventory would miss their roots")
    roots = aberth_roots(poly.coeffs)
    on_circle = np.abs(np.abs(roots) - 1.0) <= _CIRCLE_TOL

    inv_targets = 1.0 / np.conj(roots) if len(roots) else roots
    pair_inv = _nearest_pairing(roots, inv_targets, 1e-7, skip=on_circle)

    pair_ref = None
    if fam.potential.is_even and len(roots):
        ref_targets = np.exp(-1j * TWO_PI * (fam.n - 1) * fam.alpha) / roots
        fixed = np.abs(roots - ref_targets) <= _REFLECTION_TOL
        pair_ref = _nearest_pairing(roots, ref_targets, _REFLECTION_TOL,
                                    skip=fixed)
        idx = np.nonzero(fixed)[0]
        pair_ref[idx] = idx  # fixed points of the reflection pair with themselves

    return ZeroInventory(roots=roots, pair_inversive=pair_inv,
                         pair_reflection=pair_ref, on_circle=on_circle)


class AnnulusCount(NamedTuple):
    """Zero count of a closed annulus, with boundary bookkeeping."""

    count: int                 # zeros with e^{-2 pi eps} <= |w| <= e^{2 pi eps}
    boundary_margin: float     # smallest distance of any root to either circle
    flagged: Tuple[int, ...]   # indices within _BOUNDARY_TOL of a circle

    @property
    def boundary_clear(self) -> bool:
        return len(self.flagged) == 0


def count_annulus(inv: ZeroInventory, eps: float) -> AnnulusCount:
    """Count inventory zeros in the closed annulus of half-width eps.

    Roots within _BOUNDARY_TOL of either circle are counted as inside and
    flagged, so borderline counts are visible to the caller.
    """
    if eps < 0:
        raise ValueError("annulus half-width must be nonnegative")
    R = math.exp(TWO_PI * eps)
    mods = np.abs(inv.roots)
    dist = np.minimum(np.abs(mods - R), np.abs(mods - 1.0 / R))
    inside = (mods <= R + _BOUNDARY_TOL) & (mods >= 1.0 / R - _BOUNDARY_TOL)
    flagged = np.nonzero(dist <= _BOUNDARY_TOL)[0]
    margin = float(np.min(dist)) if len(dist) else math.inf
    return AnnulusCount(count=int(np.sum(inside)), boundary_margin=margin,
                        flagged=tuple(int(i) for i in flagged))


def clearest_eps(coords: np.ndarray, lo: float, hi: float) -> float:
    """The eps in [lo, hi] farthest from every coordinate in `coords`.

    Candidates are the interval ends and midpoints of gaps between sorted
    coordinates; used to place quadrature circles away from zero moduli.
    """
    if len(coords) == 0:
        return float(0.5 * (lo + hi))
    s = np.concatenate([[-np.inf], np.sort(coords), [np.inf]])
    ends = np.concatenate([[lo], s[(s > lo) & (s < hi)], [hi]])
    cands = np.concatenate([[lo, hi], 0.5 * (ends[:-1] + ends[1:])])
    k = np.searchsorted(s, cands)   # s[k - 1] < cand <= s[k]
    d = np.minimum(cands - s[k - 1], s[k] - cands)
    return float(cands[int(np.argmax(d))])


# ----------------------------------------------------------------------
# annulus Green's function
# ----------------------------------------------------------------------

_R_MAX = math.exp(4.0 * math.pi)    # the widest served annulus, R_eps = 2


def check_green_range(R: float) -> None:
    """Refuse an annulus outside the range the Green kernel serves:
    log(R) / 2 pi < 0.005, and log(R) / 2 pi > 2.  Both ends are the
    thinnest and the widest annulus the kernel's oracle tests cover; past
    the ceiling the dual-nome polynomial loses digits to cancellation."""
    if not 1.0 < R <= _R_MAX:
        raise ValueError(f"annulus parameter R = {R:.6g} must lie in (1, e^(4 pi)]")
    lr = math.log(R)
    if lr < TWO_PI * 0.005:
        raise ValueError(f"annulus too thin: R = {R:.6g} has log(R) / 2 pi = "
                         f"{lr / TWO_PI:.6g} < 0.005")


def _check_in_annulus(R: float, *moduli: np.ndarray) -> None:
    slack = 1.0 + 1e-12
    for m in moduli:    # a NaN modulus fails both comparisons
        if not np.all((m <= R * slack) & (m >= 1.0 / (R * slack))):
            raise ValueError("argument outside the closed annulus")


@functools.lru_cache(maxsize=16)
def _dual_theta_poly(lr: float) -> Tuple[Tuple[float, ...], ...]:
    """|F(X + iY)|^2 as rows a of coefficients of sin^2a X sinh^2b Y.

    F(u) = sum_{m<M} (-1)^m q^{m(m+1)} U_{2m}(cos u) = sum_j c_j cos(2ju),
    q = e^{-pi^2/(2 lr)}, M = floor(sqrt(7.5 lr)) + 1 for a 1e-16 tail.
    |F|^2 = (1/2) sum_{j,k} c_j c_k [T_{j+k}(C) T_{|j-k|}(H) + (C <-> H)],
    C = cos 2X = 1 - 2 sin^2 X, H = cosh 2Y = 1 + 2 sinh^2 Y.
    """
    M = int(math.sqrt(7.5 * lr)) + 1
    q = math.exp(-math.pi ** 2 / (2.0 * lr))
    t = [(-1) ** m * q ** (m * (m + 1)) for m in range(M)]
    c = [sum(t)] + [2.0 * sum(t[j:]) for j in range(1, M)]
    A = np.zeros((2 * M - 1, 2 * M - 1))
    for j, k in itertools.product(range(M), repeat=2):
        A[j + k, abs(j - k)] += 0.5 * c[j] * c[k]
    TS, TH = (_chebyshev_table(x, 2 * M - 1) for x in (-2, 2))
    B = TS.T @ (A + A.T) @ TH
    return tuple(tuple(np.trim_zeros(row, "b")) for row in B)


def _chebyshev_table(x: int, size: int) -> np.ndarray:
    """Row p: the coefficients of T_p(1 + x s) in s, p < size, from
    T_{p+1}(y) = 2y T_p(y) - T_{p-1}(y) in integers, exact in doubles while
    they stay below 2^53 (p <= 18 at the widest served annulus)."""
    rows = [[1], [1, x]]
    while len(rows) < size:
        a, b = rows[-1], rows[-2]
        rows.append([2 * (ai + x * aj) - bi for ai, aj, bi in
                     zip(a + [0], [0] + a, b + [0, 0])])
    return np.array([r + [0] * (size - len(r)) for r in rows[:size]], dtype=float)


def _horner_into(coef, x, out):
    """sum_i coef[i] x^i, written into out unless coef has one entry."""
    acc = coef[-1]
    for c in coef[-2::-1]:
        acc = np.add(np.multiply(acc, x, out=out), c, out=out)
    return acc


def _radial_sin_cos(log_mod: np.ndarray, alpha: float, lr: float):
    """sin a, cos a for a = alpha (log|z| - lr); inside the unit circle from
    b = a + pi/2, so that sin 2a is an exact zero on both circles."""
    inner = log_mod < 0.0
    b = alpha * (log_mod + np.where(inner, lr, -lr))
    sb, cb = np.sin(b), np.cos(b)
    return np.where(inner, -cb, sb), np.where(inner, sb, cb)


def _green_terms(v, R: float):
    """(v, sin a, cos a, sin a cos a, arg v) at annulus points v, with
    a = alpha (log|v| - log R): the per-point factors of the Green kernel."""
    v = np.asarray(v, dtype=np.complex128)
    check_green_range(R)
    lr = math.log(R)
    _check_in_annulus(R, np.abs(v))
    s, c = _radial_sin_cos(np.log(np.abs(v)), math.pi / (4.0 * lr), lr)
    return v, s, c, s * c, np.angle(v)


def _green_buffers(lr: float, shape) -> list:
    return [np.empty(shape) for _ in range(4 + len(_dual_theta_poly(lr)))]


def _green_pairs(zt, wt, lr: float, buf: list) -> np.ndarray:
    """G(z, w) for the broadcast pairs of two `_green_terms` tuples, computed
    in place in buf, the `_green_buffers` of the pair shape."""
    (z, sz, cz, pz, az), (w, sw, cw, pw, aw) = zt, wt
    alpha = math.pi / (4.0 * lr)
    sxm2, sh2, sx2, N, *gbuf = buf
    t1, t2 = np.multiply(sz, cw, out=sxm2), np.multiply(cz, sw, out=sh2)
    np.square(np.subtract(t1, t2, out=sx2), out=sx2)          # sin^2 X
    np.square(np.add(t1, t2, out=t1), out=t1)                 # sin^2 X*
    d = np.abs(np.subtract(az, aw, out=sh2), out=sh2)
    np.minimum(d, np.subtract(TWO_PI, d, out=N), out=d)
    np.square(np.sinh(np.multiply(alpha, d, out=d), out=d), out=d)   # sinh^2 Y
    np.add(sx2, sh2, out=N)
    near = np.flatnonzero(N < 1e-2)
    if len(near):       # log(z / w) = log1p(t), t = (z - w) / w
        zb, wb = (np.broadcast_to(v, N.shape).flat[near] for v in (z, w))
        if np.any(zb == wb):                         # z = w has N = 0
            raise ValueError("Green's function is singular on the diagonal z = w")
        t = (zb - wb) / wb
        X = 0.5 * alpha * np.log1p(2.0 * t.real + (t.real ** 2 + t.imag ** 2))
        Y = alpha * np.arctan2(t.imag, 1.0 + t.real)
        N.flat[near] = np.sin(X) ** 2 + np.sinh(Y) ** 2
    g = [_horner_into(row, sh2, out) for row, out in zip(_dual_theta_poly(lr), gbuf)]
    h, hm = _horner_into(g, sx2, sh2), _horner_into(g, sxm2, sx2)
    P = np.multiply(4.0 * pz, pw, out=sxm2)          # sin^2 X* - sin^2 X
    np.multiply(np.add(N, P, out=P), hm, out=P)
    G = np.divide(np.multiply(N, h, out=sh2), P, out=sh2)
    return np.divide(np.log(G, out=G), 4 * math.pi, out=G)


def green_annulus(z, w, R: float):
    """Green's function of the annulus 1/R <= |z| <= R with pole at w.

    log|theta_1| at the pole minus at the mirror point, after Jacobi's
    imaginary transformation (DLMF 20.7.30) to the nome e^{-pi^2/(2 lr)},
    lr = log R (2 terms at R = e^{2 pi 0.05}, 7 at e^{2 pi}), whose Gaussian
    factors cancel the separable term.  With alpha = pi/(4 lr), a =
    alpha (log|.| - lr), X = a_z - a_w, X* = a_z + a_w, Y = alpha (arg z -
    arg w wrapped to (-pi, pi]) and F from _dual_theta_poly, G = (1/4pi)
    log[(sin^2 X + sinh^2 Y) |F(X + iY)|^2 / ((sin^2 X* + sinh^2 Y)
    |F(X* + iY)|^2)]; sin^2 X* - sin^2 X = sin 2a_z sin 2a_w vanishes exactly
    on both circles, and near the pole sin^2 X + sinh^2 Y comes from the
    exact z - w.  Served for 10^(10/256) <= R <= e^(4 pi).
    """
    zt, wt, lr = _green_terms(z, R), _green_terms(w, R), math.log(R)
    buf = _green_buffers(lr, np.broadcast_shapes(zt[0].shape, wt[0].shape))
    out = _green_pairs(zt, wt, lr, buf)
    return float(out) if out.ndim == 0 else out


def circle_average_green(r: float, R: float, w) -> float:
    """Mean of G_R(r e^{i phi}, w) over phi in [0, 2 pi), closed form.

    The radial profile of the circle mean is piecewise linear in log r with
    a unit slope break at log |w|; both branches meet at |w| = r and vanish
    at r = R and r = 1/R.
    """
    w = np.asarray(w, dtype=np.complex128)
    aw = np.abs(w)
    _check_in_annulus(R, r, aw)
    outer = math.log(r * R) * np.log(aw / R)
    inner = math.log(r / R) * np.log(aw * R)
    out = np.where(aw >= r, outer, inner) / (2.0 * math.log(R) * TWO_PI)
    return float(out) if out.ndim == 0 else out


def green_potential(zs: np.ndarray, roots: np.ndarray, R: float,
                    n: int) -> np.ndarray:
    """(2 pi / n) sum_k G_R(z, w_k) over the root set, vectorized in z."""
    zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
    out = np.zeros(len(zs), dtype=np.float64)
    if len(roots) == 0:
        return out
    zt, wt = _green_terms(zs[:, None], R), _green_terms(roots, R)   # once per call
    lr, step = math.log(R), max(1, _BLOCK // len(roots))
    buf = _green_buffers(lr, (min(step, len(zs)), len(roots)))      # once per call
    for a in range(0, len(zs), step):
        block = _green_pairs([t[a:a + step] for t in zt], wt, lr,
                             [b[:len(zs) - a] for b in buf])     # a short last block
        np.sum(block, axis=1, out=out[a:a + step])
    return out * TWO_PI / n


# ----------------------------------------------------------------------
# Riesz decomposition of the per-site log-determinant
# ----------------------------------------------------------------------

def riesz_decompose(
    fam: DeterminantFamily,
    inv: ZeroInventory,
    R: float,
    n_angles: int,
) -> Tuple[float, float, float, float]:
    """Split (1/n) log|D_n| into Green potential plus harmonic part on A_R.

    The Green part is the per-site Green potential 2 pi G of the zeros
    strictly inside the annulus; the harmonic part, the rest, must match u
    on the boundary circles and have the mean-value property inside.  The
    split is sampled on 9 circles of n_angles points from 1/R to R.
    Returns its certificates: the largest |harmonic - u| on the two
    boundary circles, the worst interior mean-value defect, and the least
    and greatest harmonic value on the interior circles.  A root within
    _BOUNDARY_TOL of either circle, or a grid sample where D_n vanishes in
    double precision, is an error.
    """
    mods = np.abs(inv.roots)
    offenders = np.nonzero((np.abs(mods - R) < _BOUNDARY_TOL)
                           | (np.abs(mods - 1.0 / R) < _BOUNDARY_TOL))[0]
    if len(offenders):
        k = int(offenders[0])
        raise ValueError(
            f"zero {inv.roots[k]} lies on the annulus boundary (index {k})")
    roots = inv.roots[(mods <= R) & (mods >= 1.0 / R)]

    s = np.linspace(-math.log(R), math.log(R), 9)
    radii = np.exp(s)
    thetas = np.arange(n_angles) / n_angles
    u = np.stack([fam.poly.eval_circle_log(r, n_angles) / fam.n for r in radii])
    grid = radii[:, None] * np.exp(2j * math.pi * thetas)[None, :]
    if np.any(np.isneginf(u)):  # harm - u would take -inf - -inf
        i, j = np.argwhere(np.isneginf(u))[0]
        raise ValueError(f"D_n vanishes at the grid sample [{i}, {j}], "
                         f"z = {grid[i, j]:.6g}")
    green = green_potential(grid.ravel(), roots, R, fam.n).reshape(grid.shape)
    harm = u - green

    boundary_max_dev = float(np.max(np.abs(harm[[0, -1], :] - u[[0, -1], :])))

    # discrete mean-value property of the harmonic part at interior nodes,
    # on a ring of 16 points around every 8th node of each interior row
    ang_mv = np.exp(2j * math.pi * np.arange(16) / 16)
    zc = grid[1:-1, ::8, None]
    rho = 0.3 * np.minimum(R - np.abs(zc), np.abs(zc) - 1.0 / R)
    rings = zc + rho * ang_mv
    g_rings = green_potential(rings.ravel(), roots, R, fam.n).reshape(rings.shape)
    u_rings = (fam.poly.eval_log(rings.ravel())[0] / fam.n).reshape(rings.shape)
    h_means = np.mean(u_rings - g_rings, axis=-1)
    worst = float(np.max(np.abs(h_means - harm[1:-1, ::8])))

    interior = harm[1:-1, :]
    return (boundary_max_dev, worst, float(np.min(interior)),
            float(np.max(interior)))


# ----------------------------------------------------------------------
# Jensen's formula on D_n
# ----------------------------------------------------------------------

def _quadrature_excess(roots: np.ndarray, r: float, K: int) -> float:
    """The K-point mean of sum_w log|z - w| on |z| = r minus its circle
    mean sum_w log max(r, |w|), exactly: prod_k (r omega^k - w) = +-(r^K -
    w^K) for the K-th root of unity omega, so each root w adds (1/K)
    log|1 - q^K|, with q = w/r or r/w, whichever has |q| <= 1."""
    q = np.where(np.abs(roots) <= r, roots / r, r / roots)
    return float(np.sum(np.log(np.abs(1.0 - q ** K)))) / K


def jensen_identity_residual(
    fam: DeterminantFamily,
    inv: ZeroInventory,
    r1: float,
    r2: float,
    K: int,
) -> float:
    """Residual of Jensen's formula for D_n between radii r1 < r2.

    With D_n = z^lo p(z), the mean of log|D_n| on |z| = r is a constant
    plus lo log r + sum_j log max(r, |w_j|) over the zeros w_j of p, a
    multiple zero listed once per multiplicity.  The residual is |u(r2) -
    u(r1) - (1/n) [lo log(r2/r1) + J(r2) - J(r1)]|, u(r) the K-point mean
    of (1/n) log|D_n| on |z| = r (one FFT) and J(r) the K-point mean of
    sum_j log|z - w_j| there, sum_j log max(r, |w_j|) plus
    `_quadrature_excess`, so the identity is exact at every K.  The means
    come from the coefficients and the steps from the inventory, so a root
    the inventory misses or misplaces between r1 and r2 shows.  find_zeros
    refuses underflowed edge coefficients, so lo is that of the factored
    polynomial.
    """
    if not 1.0 <= r1 < r2:
        raise ValueError("radii must satisfy 1 <= r1 < r2")
    mods = np.abs(inv.roots)
    for r in (r1, r2):
        if len(mods) and np.min(np.abs(mods - r)) < 1e-9:
            raise ValueError(f"a zero lies on the quadrature circle r = {r}")
    u1, u2 = (float(np.mean(fam.poly.eval_circle_log(r, K) / fam.n))
              for r in (r1, r2))
    jumps = float(np.sum(np.log(np.maximum(r2, mods))
                         - np.log(np.maximum(r1, mods)))) + (
        _quadrature_excess(inv.roots, r2, K)
        - _quadrature_excess(inv.roots, r1, K))
    return abs(u2 - u1 - (fam.poly.lo * math.log(r2 / r1) + jumps) / fam.n)


# ----------------------------------------------------------------------
# Riesz mass flux estimators
# ----------------------------------------------------------------------

# riesz_mass's finite-difference half-step: its flux circles sit at
# |eps| = eps_r + delta +- delta
_FLUX_DELTA = 1e-3


def _kappa_window(eps_r: float) -> np.ndarray:
    return np.linspace(max(eps_r * 0.4, 1e-3), eps_r * 1.6, 5)


def _count_window(eps: float) -> np.ndarray:
    return np.linspace(eps * 0.2, eps * 1.2, 6)


def _affine_kappa(potential: Potential, alpha: float, E: float,
                  window: np.ndarray, n: int, K: int) -> int:
    """The acceleration fitted on the ascending eps `window`.  Raises
    ValueError when L(E, eps) has a kink inside it: the fit is non-affine
    and the characterizations that read kappa do not apply there."""
    est = acceleration(potential, alpha, E, window, n=n, K=K)
    if est.non_affine:
        raise ValueError(
            f"slope break inside [{window[0]:.3f}, {window[-1]:.3f}]: the fit "
            f"is non-affine (residual {est.residual:.3f})")
    return est.kappa


def riesz_kappa(
    potential: Potential,
    alpha: float,
    E: float,
    eps_r: float,
    kappa_n: int,
    kappa_K: int,
) -> int:
    """The acceleration riesz_mass compares with, from a window around eps_r;
    a kink of L(E, .) inside the window raises (`_affine_kappa`)."""
    return _affine_kappa(potential, alpha, E, _kappa_window(eps_r),
                         kappa_n, kappa_K)


def riesz_mass(
    fam: DeterminantFamily,
    inv: ZeroInventory,
    eps_r: float,
    K: int,
) -> Tuple[float, float, float]:
    """Estimate the Riesz mass of the annulus A_{r e^{2 pi delta}} two ways;
    returns (mass_v, mass_u, count_ratio), with r = e^{2 pi eps_r}.

    mass_v, expected near 2 kappa (`riesz_kappa`), is the net outward flux
    of the transfer log-norm through the two boundary circles over 2 pi,
    with radial derivatives by central differences of circle averages (step
    delta = _FLUX_DELTA).  mass_u, expected near count_ratio (the per-site
    inventory count of that annulus), is the radial slope of the circle
    average of the per-site log-determinant over pi.  That profile is
    piecewise linear, so the difference quotient is exact between kinks;
    the kink-free step is chosen from the inventory `inv` of `fam`, and
    each K-point mean drops its exact `_quadrature_excess`.
    Potential, frequency, energy and n come from `fam`.
    """
    delta = _FLUX_DELTA
    eps_flux = eps_r + delta

    # f(theta - i eps) is the conjugate of f(theta + i eps) bit for bit, so
    # the strip kernel is even in eps and the inner circles' difference is
    # minus the outer one's: (outer - inner) / (4 pi delta) = outer / (2 pi delta)
    n = fam.n
    v_hi, v_lo = lyapunov_n(fam.potential, fam.alpha, fam.E, n,
                            [eps_flux + delta, eps_flux - delta], K)[0]
    mass_v = (v_hi - v_lo) / (TWO_PI * delta)
    coords = inv.eps_coords()

    # place the u-route difference points mid-gap between zero moduli
    du = delta
    if len(coords):
        lo_pt = clearest_eps(coords, eps_flux - 3 * delta, eps_flux - delta / 4)
        hi_pt = clearest_eps(coords, eps_flux + delta / 4, eps_flux + 3 * delta)
        du = 0.5 * (hi_pt - lo_pt)
        center = 0.5 * (hi_pt + lo_pt)
    else:
        center = eps_flux

    def circle_mean_u(eps: float) -> float:
        r = math.exp(TWO_PI * eps)
        return float(np.mean(fam.poly.eval_circle_log(r, K) / fam.n)
                     - _quadrature_excess(inv.roots, r, K) / fam.n)

    slope_u = (circle_mean_u(center + du) - circle_mean_u(center - du)) / (2.0 * du)
    mass_u = slope_u / math.pi

    count_ratio = count_annulus(inv, eps_flux).count / n

    return float(mass_v), mass_u, count_ratio


# ----------------------------------------------------------------------
# zero-count characterization of the acceleration
# ----------------------------------------------------------------------

class ZeroCountReport(NamedTuple):
    """Per-site zero counts against 2*kappa along an n-ladder."""

    kappa: int
    L0: float
    counts: Tuple[int, ...]          # N_n at half-width eps/2
    deviations: Tuple[float, ...]    # |N/(2n) - kappa|
    decay_exponent: Optional[float]  # fitted gamma in dev ~ n^-gamma
    boundary_clear: bool             # no count was boundary-ambiguous


def zero_count_vs_acceleration(
    potential: Potential,
    alpha: float,
    E: float,
    eps: float,
    ns: Sequence[int],
    kappa_n: int,
    kappa_K: int,
) -> ZeroCountReport:
    """Compare annulus zero counts at half-width eps/2 with the acceleration.

    Preconditions are checked numerically: the Lyapunov exponent at the real
    phase must clear TAU_POS, and the slope over (0, 1.2 eps] must be affine
    (single integer slope), otherwise the characterization does not apply.
    """
    L0 = lyapunov_n(potential, alpha, E, kappa_n, 0.0, kappa_K)[0]
    if L0 < TAU_POS:
        raise ValueError(
            f"Lyapunov exponent {L0:.4f} below positivity threshold {TAU_POS}")
    kappa = _affine_kappa(potential, alpha, E, _count_window(eps),
                          kappa_n, kappa_K)

    acs = [count_annulus(find_zeros(det_family(potential, alpha, E, int(n))),
                         eps / 2.0) for n in ns]
    counts = [ac.count for ac in acs]
    devs = [abs(ac.count / (2.0 * n) - kappa) for ac, n in zip(acs, ns)]
    clear = all(ac.boundary_clear for ac in acs)

    decay = None
    if all(d > 0 for d in devs) and len(devs) >= 2:
        decay = -line_fit(np.log(ns), np.log(devs))[0]

    return ZeroCountReport(
        kappa=kappa, L0=float(L0), counts=tuple(counts),
        deviations=tuple(devs), decay_exponent=decay, boundary_clear=clear)
