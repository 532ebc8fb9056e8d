"""Zero inventories of determinant polynomials and annulus potential theory.

The zero set of D_n(z, E) inside thin annuli around the unit circle carries
the same information as the acceleration: per-site zero count and twice the
acceleration agree in the large-n limit.  This module finds all zeros
(simultaneous Aberth iteration), counts them in annuli, and implements the
annulus Green's function with its circle averages, the Riesz split of the
per-site log-determinant into Green potential plus harmonic part, the
Jensen-type average identity, and the Riesz-mass flux estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .cocycle import TAU_POS, acceleration, lyapunov_n
from .determinant import DeterminantFamily, det_family
from .model import TWO_PI, Potential


class RootConvergenceError(RuntimeError):
    """The simultaneous root iteration failed its residual certificate."""


# Pairwise loops (roots x roots, points x roots) run in row blocks of about
# this many elements, so that their temporaries stay in the L2 cache.
_BLOCK = 1 << 13

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

def _horner_pair(c: np.ndarray, x: np.ndarray):
    """Value and derivative of the ascending-coefficient polynomial at x."""
    p = np.zeros_like(x)
    dp = np.zeros_like(x)
    for coef in c[::-1]:
        dp = dp * x + p
        p = p * x + coef
    return p, dp


def _newton_ratio(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """p(z)/p'(z), computed in ratio form so |z| >> 1 cannot overflow.

    For |z| > 1 the reversed polynomial q(w) = w^d p(1/w) is evaluated at
    w = 1/z; then p/p' = z q / (d q - w q').
    """
    d = len(c) - 1
    out = np.empty_like(z)
    inner = np.abs(z) <= 1.0
    if np.any(inner):
        p, dp = _horner_pair(c, z[inner])
        bad = dp == 0
        dp = np.where(bad, 1.0, dp)
        r = p / dp
        r[bad] = 1e-3 * (1.0 + np.abs(z[inner][bad])) * (0.6 + 0.8j)
        out[inner] = r
    if np.any(~inner):
        zz = z[~inner]
        w = 1.0 / zz
        q, dq = _horner_pair(c[::-1], w)
        den = d * q - w * dq
        bad = den == 0
        den = np.where(bad, 1.0, den)
        r = zz * q / den
        r[bad] = 1e-3 * (1.0 + np.abs(zz[bad])) * (0.6 + 0.8j)
        out[~inner] = r
    return out


def _relative_residuals(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|p(z)| / sum_i |c_i| |z|^i, overflow-safe for any |z|."""
    ca = np.abs(c)
    out = np.empty(len(z), dtype=np.float64)
    inner = np.abs(z) <= 1.0
    if np.any(inner):
        p, _ = _horner_pair(c, z[inner])
        b, _ = _horner_pair(ca, np.abs(z[inner]))
        out[inner] = np.abs(p) / np.maximum(b, 1e-300)
    if np.any(~inner):
        w = 1.0 / z[~inner]
        q, _ = _horner_pair(c[::-1], w)
        b, _ = _horner_pair(ca[::-1], np.abs(w))
        out[~inner] = np.abs(q) / np.maximum(b, 1e-300)
    return out


def aberth_roots(coeffs) -> np.ndarray:
    """All roots of an ordinary polynomial given by ascending coefficients.

    Simultaneous third-order iteration: Newton corrections coupled through
    pairwise repulsion.  Starting points are roots of unity at the geometric
    mean modulus of the root set (|c_0/c_d|^{1/d}), offset angularly to
    break symmetries.  Every returned root passes the backward-error
    certificate |p(w)| <= _ROOT_TOL * sum_i |c_i| |w|^i, within 500
    iterations.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if len(c) == 0 or c[0] == 0 or c[-1] == 0:
        raise ValueError("coefficients must be trimmed of zero ends")
    c = c / np.max(np.abs(c))
    d = len(c) - 1
    if d == 0:
        return np.zeros(0, dtype=np.complex128)

    r0 = abs(c[0] / c[-1]) ** (1.0 / d)
    ang = TWO_PI * (np.arange(d) + 0.5) / d + 0.31
    z = r0 * np.exp(1j * ang)
    active = np.ones(d, dtype=bool)

    for _ in range(500):
        w = _newton_ratio(c, z)
        # pairwise repulsion sums, chunked to bound memory at large degree
        S = np.zeros(d, dtype=np.complex128)
        step = max(1, _BLOCK // d)
        for a in range(0, d, step):
            diff = z[a:a + step, None] - z[None, :]
            np.fill_diagonal(diff[:, a:a + step], np.inf)
            S[a:a + step] = np.sum(1.0 / diff, axis=1)
        den = 1.0 - w * S
        den = np.where(den == 0, 1.0, den)
        corr = w / den
        corr = np.where(np.isfinite(corr), corr, w)
        z = np.where(active, z - corr, z)
        done = np.abs(corr) <= _ROOT_TOL * (1.0 + np.abs(z))
        active &= ~done
        if not np.any(active):
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
    order = np.lexsort((np.abs(z), np.angle(z)))
    return z[order]


# ----------------------------------------------------------------------
# zero inventories
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroInventory:
    """The full zero set of one determinant family, with symmetry pairings.

    pair_inversive[i] is the index of the root closest to 1/conj(roots[i])
    when that distance is within 1e-7, else -1; roots on the unit
    circle (within circle_tol) are their own inversive partners and carry
    -1.  pair_reflection is the analogous map for w -> phase/w (even
    potentials only, phase = 1 for centered families), or None.
    """

    roots: np.ndarray            # complex zeros, deterministically ordered
    multiplicities: np.ndarray   # int, parallel to roots
    n: int                       # box length of the source determinant
    E: float
    alpha: float
    centered: bool
    pair_inversive: np.ndarray   # int indices or -1
    pair_reflection: Optional[np.ndarray]
    on_circle: np.ndarray        # bool, | |w| - 1 | <= circle_tol
    circle_tol: float

    @property
    def total(self) -> int:
        return int(np.sum(self.multiplicities))

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

    Exactly-zero edge coefficients are deflated before root finding (they
    correspond to the excluded point z = 0).  Real energy forces the zero
    set to be invariant under w -> 1/conj(w); even potentials add the
    reflection w -> e^{-2 pi i (n-1) alpha} / w (w -> 1/w after centering).
    """
    poly = fam.poly.trimmed()
    if poly.is_zero:
        raise ValueError("determinant is identically zero; no inventory")
    roots = aberth_roots(poly.coeffs)
    mult = np.ones(len(roots), dtype=np.int64)
    on_circle = np.abs(np.abs(roots) - 1.0) <= _CIRCLE_TOL

    inv_targets = 1.0 / np.conj(roots) if len(roots) else roots
    pair_inv = _nearest_pairing(roots, inv_targets, 1e-7, skip=on_circle)

    pair_ref = None
    if fam.potential.is_even and len(roots):
        phase = 1.0 if fam.centered else np.exp(-1j * TWO_PI * (fam.n - 1) * fam.alpha)
        ref_targets = phase / roots
        fixed = np.abs(roots - ref_targets) <= _REFLECTION_TOL
        pair_ref = _nearest_pairing(roots, ref_targets, _REFLECTION_TOL,
                                    skip=fixed)
        idx = np.nonzero(fixed)[0]
        pair_ref[idx] = idx  # fixed points of the reflection pair with themselves

    return ZeroInventory(
        roots=roots, multiplicities=mult, n=fam.n, E=fam.E, alpha=fam.alpha,
        centered=fam.centered, pair_inversive=pair_inv, pair_reflection=pair_ref,
        on_circle=on_circle, circle_tol=_CIRCLE_TOL)


@dataclass(frozen=True)
class AnnulusCount:
    """Zero count of a closed annulus, with boundary bookkeeping."""

    count: int                 # zeros with e^{-2 pi eps} <= |w| <= e^{2 pi eps}
    eps: float
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
    return AnnulusCount(
        count=int(np.sum(inv.multiplicities[inside])), eps=float(eps),
        boundary_margin=margin, flagged=tuple(int(i) for i in flagged))


def clearest_eps(coords: np.ndarray, lo: float, hi: float) -> float:
    """The eps in [lo, hi] farthest from every coordinate in `coords`.

    Candidates are the interval ends and midpoints of gaps between sorted
    coordinates; used to place quadrature circles away from zero moduli.
    """
    cands = [lo, hi]
    inside = np.sort(coords[(coords > lo) & (coords < hi)])
    prev = lo
    for c in inside:
        cands.append(0.5 * (prev + c))
        prev = c
    cands.append(0.5 * (prev + hi))
    cands = np.array(cands)
    if len(coords) == 0:
        return float(0.5 * (lo + hi))
    d = np.min(np.abs(cands[:, None] - coords[None, :]), axis=1)
    return float(cands[int(np.argmax(d))])


# ----------------------------------------------------------------------
# annulus Green's function
# ----------------------------------------------------------------------

def green_trunc_order(R: float) -> int:
    """Image orders K that bring the product's O(R^{-4K}) tail to 1e-10.
    Refuses R that needs more than 64 (log(R) / 2 pi < 0.014315), and
    R > 1e50, where green_annulus's squares would overflow."""
    if not 1.0 < R <= 1e50:
        raise ValueError(f"annulus parameter R = {R:.6g} must lie in (1, 1e50]")
    K = max(1, math.ceil(10.0 * math.log(10.0) / (4.0 * math.log(R))))
    if K > 64:
        raise ValueError(f"annulus too thin: R = {R:.6g} needs {K} > 64 image "
                         "orders for a 1e-10 tail (log(R) / 2 pi >= 0.014315)")
    return K


def _check_in_annulus(R: float, *moduli: np.ndarray) -> None:
    slack = 1.0 + 1e-12
    for m in moduli:
        if np.any(m > R * slack) or np.any(m < 1.0 / (R * slack)):
            raise ValueError("argument outside the closed annulus")


def green_annulus(z, w, R: float):
    """Green's function of the annulus 1/R <= |z| <= R with pole at w.

    The separable boundary term plus the log of the image product over
    reflections across both circles, truncated at K = green_trunc_order(R)
    orders (tail O(R^{-4K})); served for 10^(10/256) <= R <= 1e50.
    Symmetric in (z, w), rotation invariant, zero on both circles.

    Real form: with z = r e^{i phi}, w = s e^{i psi}, c = cos(phi - psi),
    each image factor is |1 - a e^{+-i(phi - psi)}| with a real, and
    |1 - a e^{it}|^2 = (1 - a)^2 + a d, d = 2 - 2c.  Order k's numerators
    (a = q r/s, q s/r; q = R^{-4k}) multiply out to N_k = 1 + q^4
    + q^2 (u^2 + 4c^2 - 2) - 2q (1 + q^2) c u, u = r/s + s/r; its
    denominators (a = p rs, p/(rs); p = R^{2-4k}) to D_k, the same in p and
    v = rs + 1/(rs).  Both k = 1 denominators keep the (1 - a)^2 + a d form:
    they vanish at mirror points on the boundary, where the expanded form
    cancels.  d = (|z - w|^2 - (r - s)^2) / (rs), from the exact z - w,
    makes them equal |z - w|^2 / R^2 there to rounding.
    """
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    K = green_trunc_order(R)
    lr = math.log(R)
    r, s = np.abs(z), np.abs(w)
    _check_in_annulus(R, r, s)
    if np.any(z == w):
        raise ValueError("Green's function is singular on the diagonal z = w")

    q, p = math.exp(-4.0 * lr), math.exp(-2.0 * lr)
    dx, dy = z.real - w.real, z.imag - w.imag
    dist2 = dx * dx + dy * dy
    rs = r * s
    d = np.maximum((dist2 - (r - s) ** 2) / rs, 0.0)
    c = 1.0 - 0.5 * d
    c2 = 4.0 * c * c - 2.0
    u, v = r / s + s / r, rs + 1.0 / rs
    xn, yn, xd, yd = q * (u * u + c2), q * c * u, v * v + c2, c * v
    a1, a2 = rs * p, p / rs
    # One log per group of 8 orders.  For R >= 10^(10/256) each N_k, and
    # D_k for k >= 2, lies in [(1 - R^-2)^4, 16] = [7e-4, 16]: 8 ratios stay
    # in [1e-35, 1e35].  Group 1 also holds |z - w|^2 / R^2 over both k = 1
    # denominators, < (1 - R^-2)^-2 < 37 as |z - w| <= R|1 - p w conj(z)|,
    # R rs|1 - p/(conj(z) w)| (Moebius); underflow needs |z - w| < 1e-136 R.
    prod = (1.0 + q ** 4 + q * xn - 2.0 * (1.0 + q * q) * yn) * (dist2 * p) \
        / (((1.0 - a1) ** 2 + a1 * d) * ((1.0 - a2) ** 2 + a2 * d))
    t = 4.0 * lr * np.arange(2, K + 1)                      # -log q_k
    an, bn = 2.0 * q * np.cosh(2.0 * t), 4.0 * np.cosh(t)
    ad, bd = 2.0 * np.cosh(2.0 * t - 4.0 * lr), 4.0 * np.cosh(t - 2.0 * lr)
    S = 0.0
    for j in range(K - 1):      # N_k / D_k, both divided by p_k^2
        prod *= (xn + an[j] - bn[j] * yn) / (xd + ad[j] - bd[j] * yd)
        if j % 8 == 6:          # order j + 2 closes a group
            S, prod = S + np.log(prod), 1.0
    S = S + np.log(prod) + (np.log(r) - lr) * ((np.log(s) - lr) / lr)
    out = S / (2.0 * TWO_PI)
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


def _roots_in_annulus(inv: ZeroInventory, R: float) -> np.ndarray:
    mods = np.abs(inv.roots)
    return inv.roots[(mods <= R) & (mods >= 1.0 / R)]


def green_potential(zs: np.ndarray, roots: np.ndarray, R: float,
                    n: int) -> np.ndarray:
    """(2 pi / n) sum_k G_R(z, w_k) over the root set, vectorized in z."""
    zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
    out = np.zeros(len(zs), dtype=np.float64)
    if len(roots) == 0:
        return out
    step = max(1, _BLOCK // len(roots))
    for a in range(0, len(zs), step):
        block = green_annulus(zs[a:a + step, None], roots[None, :], R)
        out[a:a + step] = np.sum(block, axis=1)
    return out * TWO_PI / n


def _mean_log_abs(a, b, K: int):
    """(1/K) sum_j log|a + b e^{2 pi i j/K}|, exactly and elementwise.

    Over the K-th roots of unity, prod_j (a + b e^{2 pi i j/K}) equals
    a^K - (-b)^K.  The larger of |a|, |b| is factored out, so the K-th
    power stays in the unit disc and cannot overflow.
    """
    swap = np.abs(b) > np.abs(a)
    big = np.where(swap, b, a)
    u = -np.where(swap, a, b) / big
    return np.log(np.abs(big)) + np.log(np.abs(1.0 - u ** K)) / K


def green_circle_mean(
    center: complex, rho: float, K: int, roots: np.ndarray, R: float, n: int,
) -> float:
    """Mean of green_potential over the K points center + rho e^{2 pi i j/K}.

    Every factor of the truncated image product is log|a + b e^{+-2 pi i j/K}|
    on these points, and its K-point mean has the closed form of
    _mean_log_abs.  The result is the K-point quadrature of green_potential
    (not the exact circle mean) at O(roots * Kt) cost instead of
    O(K * roots * Kt), Kt = green_trunc_order(R).
    """
    roots = np.asarray(roots, dtype=np.complex128)
    if len(roots) == 0:
        return 0.0
    Kt = green_trunc_order(R)
    if K < 1:
        raise ValueError("the circle needs K >= 1 points")
    lr = math.log(R)
    c = complex(center)
    zs = c + rho * np.exp(2j * math.pi * np.arange(K) / K)
    aw = np.abs(roots)
    _check_in_annulus(R, np.abs(zs), aw)
    law = np.log(aw)

    w = roots[:, None]
    k = np.arange(1, Kt + 1, dtype=np.float64)[None, :]
    e4k = np.exp(-4.0 * k * lr)
    e4k2 = np.exp(-(4.0 * k - 2.0) * lr)
    # The image factors are taken in the order of green_annulus, with
    # log|1 - e4k w/z| = log|z - e4k w| - log|z| and
    # log|1 - e4k2/(conj(z) w)| = log|conj(z) - e4k2/w| - log|z|; the two
    # mean log|z| terms cancel.  conj(z_j) runs over the same circle with
    # e^{-2 pi i j/K}, which leaves the K-point mean unchanged.
    cc = c.conjugate()
    images = (_mean_log_abs(1.0 - c * e4k / w, -rho * e4k / w, K)
              + _mean_log_abs(c - w * e4k, rho, K)
              - _mean_log_abs(1.0 - w * cc * e4k2, -w * rho * e4k2, K)
              - _mean_log_abs(cc - e4k2 / w, rho, K))
    S = _mean_log_abs(c - roots, rho, K) - lr + np.sum(images, axis=1)
    mean_log_z = float(_mean_log_abs(c, rho, K))
    term1 = (mean_log_z - lr) * (law - lr) / (4.0 * math.pi * lr)
    out = float(np.sum(term1 + S / TWO_PI)) * TWO_PI / n
    if not math.isfinite(out):
        raise ValueError("a root lies on the circle's quadrature points")
    return out


# ----------------------------------------------------------------------
# Riesz decomposition of the per-site log-determinant
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RieszDecomposition:
    """Sampled split u = green_part + harmonic_part on a polar grid.

    green_part is the Green potential 2 pi G of the zero measure (per
    site); harmonic_part is the difference, which must match u on the
    boundary circles and satisfy the discrete mean-value property inside.
    """

    R: float
    radii: Tuple[float, ...]         # grid circles, ascending, ends on boundary
    n_angles: int
    u_samples: np.ndarray            # (n_radii, n_angles)
    green_part: np.ndarray
    harmonic_part: np.ndarray
    boundary_max_dev: float          # max |harmonic - u| on the two boundary rows
    mean_value_max_resid: float      # worst interior mean-value defect of harmonic
    h_min: float                     # harmonic range over interior rows
    h_max: float

    def to_json_dict(self) -> dict:
        return {
            "R": self.R,
            "radii": list(self.radii),
            "n_angles": self.n_angles,
            "u": [list(map(float, row)) for row in self.u_samples],
            "green": [list(map(float, row)) for row in self.green_part],
            "harmonic": [list(map(float, row)) for row in self.harmonic_part],
            "boundary_max_dev": self.boundary_max_dev,
            "mean_value_max_resid": self.mean_value_max_resid,
            "h_min": self.h_min,
            "h_max": self.h_max,
        }


def riesz_decompose(
    fam: DeterminantFamily,
    inv: ZeroInventory,
    R: float,
    n_radii: int = 9,
    n_angles: int = 256,
) -> RieszDecomposition:
    """Split (1/n) log|D_n| into Green potential plus harmonic part on A_R.

    Only zeros strictly inside the annulus feed the Green potential; the
    harmonic remainder absorbs everything else.  Requires a zero-free
    boundary: any root within _BOUNDARY_TOL of either circle is an error.
    """
    mods = np.abs(inv.roots)
    offenders = np.nonzero((np.abs(mods - R) < _BOUNDARY_TOL)
                           | (np.abs(mods - 1.0 / R) < _BOUNDARY_TOL))[0]
    if len(offenders):
        k = int(offenders[0])
        raise ValueError(
            f"zero {inv.roots[k]} lies on the annulus boundary (index {k})")
    roots = _roots_in_annulus(inv, R)

    s = np.linspace(-math.log(R), math.log(R), n_radii)
    radii = np.exp(s)
    thetas = np.arange(n_angles) / n_angles
    u = np.stack([fam.log_abs_per_site_circle(r, n_angles) for r in radii])
    grid = radii[:, None] * np.exp(2j * math.pi * thetas)[None, :]
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
    # one eval_log call per ring keeps its (points x coefficients) temporaries small
    u_rings = np.array([fam.poly.eval_log(ring)[0]
                        for ring in rings.reshape(-1, len(ang_mv))])
    h_means = np.mean(u_rings.reshape(rings.shape) / fam.n - g_rings, axis=-1)
    worst = float(np.max(np.abs(h_means - harm[1:-1, ::8])))

    interior = harm[1:-1, :]
    return RieszDecomposition(
        R=float(R), radii=tuple(float(r) for r in radii), n_angles=n_angles,
        u_samples=u, green_part=green, harmonic_part=harm,
        boundary_max_dev=boundary_max_dev, mean_value_max_resid=float(worst),
        h_min=float(np.min(interior)), h_max=float(np.max(interior)))


# ----------------------------------------------------------------------
# Jensen-type average identity
# ----------------------------------------------------------------------

def jensen_identity_residual(
    fam: DeterminantFamily,
    inv: ZeroInventory,
    r1: float,
    r2: float,
    R: float,
    K: int = 4096,
) -> float:
    """Residual of the circle-average identity between radii r1 < r2.

    The identity reads: the difference of circle averages of u equals
    (pi/n) times the exact integral of the annulus zero-counting step
    function plus the difference of harmonic-part averages.  The harmonic
    part is h = u - g, so the u-averages cancel algebraically and the
    residual is |(g(r2) - g(r1)) - (pi/n) * integral of the step|, with g
    the K-point circle mean of the Green potential (green_circle_mean, the
    truncated product formula in closed form) and the step-function
    integral from the inventory.  A nonzero residual therefore measures
    disagreement between the product formula and the zero inventory, not
    shared roundoff.
    """
    if not (1.0 <= r1 < r2 <= R):
        raise ValueError("radii must satisfy 1 <= r1 < r2 <= R")
    mods = np.abs(inv.roots)
    for r in (r1, r2):
        if len(mods) and np.min(np.abs(mods - r)) < 1e-9:
            raise ValueError(f"a zero lies on the quadrature circle r = {r}")
    roots = _roots_in_annulus(inv, R)
    g1 = green_circle_mean(0.0, r1, K, roots, R, fam.n)
    g2 = green_circle_mean(0.0, r2, K, roots, R, fam.n)
    e1 = math.log(r1) / TWO_PI
    e2 = math.log(r2) / TWO_PI
    coords = inv.eps_coords()
    mult = inv.multiplicities.astype(np.float64)
    step_integral = float(np.sum(mult * np.clip(e2 - np.maximum(e1, coords), 0.0, None)))
    return abs((g2 - g1) - (math.pi / fam.n) * step_integral)


# ----------------------------------------------------------------------
# Riesz mass flux estimators
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RieszMassReport:
    """Flux estimates of the zero/Riesz mass in the annulus A_r.

    mass_v comes from the transfer log-norm flux (expected near 2 kappa);
    mass_u from the log-determinant circle-average slope (expected to match
    the direct per-site zero count).
    """

    eps_r: float          # log-radius of the target annulus / 2 pi
    delta: float          # finite-difference half-step
    mass_v: float         # (1/2pi) net outward flux of grad v_n
    mass_u: float         # slope of the u_n circle average / pi
    kappa: int            # acceleration used for the comparison
    dev_from_2kappa: float
    count_ratio: float    # N_n(flux annulus)/n from the inventory
    n: int
    quadrature_points: int


# riesz_mass's finite-difference half-step: its flux circles sit at
# |eps| = eps_r + delta +- delta
_FLUX_DELTA = 1e-3


def _kappa_window(eps_r: float) -> np.ndarray:
    return np.linspace(max(eps_r * 0.4, 1e-3), eps_r * 1.6, 5)


def _count_window(eps: float) -> np.ndarray:
    return np.linspace(eps * 0.2, eps * 1.2, 6)


def window_reach(eps: float, eps_r: float) -> float:
    """Largest |eps| at which the verify and riesz pipelines evaluate L(E, .).

    That is the top of the slope window of `zero_count_vs_acceleration`
    at `eps`, and at `eps_r` the top of the `riesz_kappa` window and the
    outer flux circle of `riesz_mass`.  A config whose reach stays inside
    the potential's strip never fails there late."""
    return float(max(_count_window(eps)[-1], np.max(_kappa_window(eps_r)),
                     eps_r + 2.0 * _FLUX_DELTA))


def riesz_kappa(
    potential: Potential,
    alpha: float,
    E: float,
    eps_r: float,
    kappa_n: int = 512,
    kappa_K: int = 256,
) -> int:
    """The acceleration riesz_mass compares with, from a window around eps_r.

    Raises ValueError when L(E, eps) has a kink inside the window (the
    slope fit is non-affine): the flux comparison does not apply there.
    """
    est = acceleration(potential, alpha, E, _kappa_window(eps_r),
                       n=kappa_n, K=kappa_K)
    if est.non_affine:
        raise ValueError(
            f"slope window around eps_r is non-affine (residual {est.residual:.3f})")
    return est.kappa


def riesz_mass(
    potential: Potential,
    alpha: float,
    E: float,
    n: int,
    eps_r: float,
    K: int = 4096,
    kappa: Optional[int] = None,
    fam: Optional[DeterminantFamily] = None,
    inv: Optional[ZeroInventory] = None,
    kappa_n: int = 512,
    kappa_K: int = 256,
) -> RieszMassReport:
    """Estimate the Riesz mass of the annulus A_{r e^{2 pi delta}} two ways.

    The v-route takes the net outward flux of the transfer log-norm through
    the two boundary circles, with radial derivatives by central differences
    of circle averages (step delta = _FLUX_DELTA).  The u-route
    differentiates the circle average of the per-site log-determinant,
    whose radial profile is piecewise linear, so the difference quotient is
    exact between kinks; the kink-free step is chosen from the inventory
    when one is supplied.
    """
    if kappa is None:
        kappa = riesz_kappa(potential, alpha, E, eps_r, kappa_n, kappa_K)

    delta = _FLUX_DELTA
    eps_flux = eps_r + delta

    # the four flux circles in one batched call
    v_out_hi, v_out_lo, v_in_hi, v_in_lo = (
        est.value for est in lyapunov_n(
            potential, alpha, E, n,
            [eps_flux + delta, eps_flux - delta,
             -eps_flux + delta, -eps_flux - delta], K))
    outer = v_out_hi - v_out_lo
    inner = v_in_hi - v_in_lo
    mass_v = (outer - inner) / (4.0 * math.pi * delta)

    if fam is None:
        fam = det_family(potential, alpha, E, n)
    if inv is None:
        inv = find_zeros(fam)
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
        return float(np.mean(fam.log_abs_per_site_circle(math.exp(TWO_PI * eps), K)))

    slope_u = (circle_mean_u(center + du) - circle_mean_u(center - du)) / (2.0 * du)
    mass_u = slope_u / math.pi

    count_ratio = count_annulus(inv, eps_flux).count / n

    return RieszMassReport(
        eps_r=float(eps_r), delta=float(delta), mass_v=float(mass_v),
        mass_u=float(mass_u), kappa=int(kappa),
        dev_from_2kappa=float(abs(mass_v - 2.0 * kappa)),
        count_ratio=count_ratio, n=n, quadrature_points=K)


# ----------------------------------------------------------------------
# zero-count characterization of the acceleration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroCountReport:
    """Per-site zero counts against 2*kappa along an n-ladder."""

    E: float
    eps: float
    kappa: int
    L0: float
    ns: Tuple[int, ...]
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
    kappa_n: int = 512,
    kappa_K: int = 256,
) -> ZeroCountReport:
    """Compare annulus zero counts at half-width eps/2 with the acceleration.

    Preconditions are checked numerically: the Lyapunov exponent at the real
    phase must clear TAU_POS, and the slope over (0, 1.2 eps] must be affine
    (single integer slope), otherwise the characterization does not apply.
    """
    L0 = lyapunov_n(potential, alpha, E, kappa_n, 0.0, kappa_K).value
    if L0 < TAU_POS:
        raise ValueError(
            f"Lyapunov exponent {L0:.4f} below positivity threshold {TAU_POS}")
    est = acceleration(potential, alpha, E, _count_window(eps),
                       n=kappa_n, K=kappa_K)
    if est.non_affine:
        raise ValueError(
            f"slope break inside (0, {1.2 * eps:.3f}]: residual {est.residual:.3f}")
    kappa = est.kappa

    counts = []
    devs = []
    clear = True
    for n in ns:
        fam = det_family(potential, alpha, E, int(n))
        inv = find_zeros(fam)
        ac = count_annulus(inv, eps / 2.0)
        counts.append(ac.count)
        devs.append(abs(ac.count / (2.0 * n) - kappa))
        clear = clear and ac.boundary_clear

    decay = None
    if all(d > 0 for d in devs) and len(devs) >= 2:
        fit = np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(devs), 1)
        decay = float(-fit[0])

    return ZeroCountReport(
        E=float(E), eps=float(eps), kappa=kappa, L0=float(L0),
        ns=tuple(int(n) for n in ns), counts=tuple(counts),
        deviations=tuple(devs), decay_exponent=decay, boundary_clear=clear)
