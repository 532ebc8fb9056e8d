"""Finite-volume Dirichlet spectra, IDS regularity, and localization probes.

The box operator on sites [0, n-1] with Dirichlet ends is the symmetric
tridiagonal matrix with diagonal f(theta + j alpha) and unit off-diagonals.
This module covers its spectrum (Sturm counts, eigenvalues by multisection
on those counts, and eigenvectors by twisted factorization on their LDL^T
pivots), the integrated density of states and its Hoelder exponent, the
sublevel-set geometry of u_n = (1/n) log|D_n| on the unit circle, a
double-resonance orbit scan over that geometry, and the interior expansion
of a solution through window determinants.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import Potential
from .cocycle import TAU_POS, line_fit, lyapunov_n
from .determinant import det_at_phase, det_family

# pivot floor for the inertia recurrence; a pivot this small is treated as
# negative so an eigenvalue sitting exactly at E counts as below E
_PIVMIN = 1e-300


def dirichlet_diagonal(potential: Potential, alpha: float, theta,
                       n: int) -> np.ndarray:
    """Diagonal f(theta + j alpha), j = 0..n-1, of the n-site box, with shape
    (n,) + theta.shape: one column per phase of the scalar or array theta.

    theta is reduced mod 1 exactly (the identity on (-1, 1)) before it
    meets j alpha, so a huge phase keeps its quasi-periodic diagonal."""
    if n < 1:
        raise ValueError("box length n must be >= 1")
    return potential.eval_theta(np.add.outer(alpha * np.arange(n),
                                             np.fmod(theta, 1.0)))


def _pivots(d: np.ndarray, E):
    """LDL^T pivots of the box minus E, one per site, in site order.

    q_j = (d_j - E) - 1/q_{j-1} from q_{-1} = inf.  Rows of `d` may carry
    batch axes that broadcast against E.  Pivots smaller in magnitude than
    the floor are clamped negative.
    """
    q = math.inf
    for dj in d:
        q = (dj - E) - 1.0 / q
        q = np.where(np.abs(q) < _PIVMIN, -_PIVMIN, q)
        yield q


def sturm_count(potential: Potential, alpha: float, theta, E,
                n: int) -> np.ndarray:
    """Number of box eigenvalues at or below E (LDL^T inertia count), with
    shape theta.shape + E.shape: one count per phase and energy.

    Counts the negative pivots of one `_pivots` sweep over every phase and
    energy.  The pivot floor makes an exact hit count as below.
    """
    E = np.asarray(E, dtype=np.float64)
    d = dirichlet_diagonal(potential, alpha, theta, n)
    if d.ndim > 1:  # the phase axes ahead of the energy axes
        d = d.reshape(d.shape + (1,) * E.ndim)
    return sum(q < 0 for q in _pivots(d, E))


def dirichlet_eigenvalues(potential: Potential, alpha: float, theta: float,
                          n: int, indices: Sequence[int]) -> np.ndarray:
    """Box eigenvalues at the strictly ascending spectral `indices` (0 the
    lowest), by multisection on `sturm_count`: from the Gershgorin bracket
    [min d - 2, max d + 2], each sweep counts at 32 equispaced points in
    every live bracket and keeps the cell where the count passes the index,
    down to 2 ulp of max(|min d - 2|, |max d + 2|), the counts' resolution.
    The midpoint is returned; unit off-diagonals make the order strict."""
    d = dirichlet_diagonal(potential, alpha, theta, n)
    k = np.asarray(indices, dtype=np.int64)
    if (k.ndim != 1 or np.any(k < 0) or np.any(k >= n)
            or np.any(np.diff(k) <= 0)):
        raise ValueError("indices must be strictly ascending in [0, n)")
    lo, hi = (np.full(k.shape, v) for v in (np.min(d) - 2.0, np.max(d) + 2.0))
    tol = 2.0 * np.spacing(max(2.0 - np.min(d), np.max(d) + 2.0))
    frac = np.arange(1, 33) / 33  # the 32 interior points of a bracket
    live = np.arange(k.size)
    while live.size:
        # count(lo) <= k < count(hi); keep the cell where the count passes k
        grid = np.column_stack([lo[live], lo[live, None] + frac * (
            hi - lo)[live, None], hi[live]])
        above = sturm_count(potential, alpha, theta, grid[:, 1:-1], n) > \
            k[live, None]
        first = np.where(above.any(axis=1), above.argmax(axis=1), frac.size)
        lo[live], hi[live] = np.take_along_axis(grid, first[:, None] + [0, 1],
                                                axis=1).T
        live = live[hi[live] - lo[live] > tol]
    evs = 0.5 * (lo + hi)
    if np.any(np.diff(evs) <= 0):
        raise ValueError("eigenvalues must be strictly increasing")
    return evs


def dirichlet_eigenpair(potential: Potential, alpha: float, theta: float,
                        n: int, eigenvalues: Sequence[float]) -> list:
    """log|phi| and sign(phi) of the unit eigenvector, positive at its peak,
    at each of the box `eigenvalues`, by twisted factorization.

    One sweep of `_pivots` runs forward on the diagonal and backward on it
    reversed, for all eigenvalues.  At the twist k minimizing |gamma_j| =
    |fwd_j + bwd_j - (d_j - lam)|, the vector with z_k = 1,
    z_j = -z_{j+1}/fwd_j left of k and z_j = -z_{j-1}/bwd_j right of k
    solves (T - lam) z = gamma_k e_k exactly, so |gamma_k| / |z| is its
    residual.  Raises RuntimeError when that residual exceeds 1e-10 of the
    matrix scale.
    """
    lams = np.asarray(eigenvalues, dtype=np.float64)
    d = dirichlet_diagonal(potential, alpha, theta, n)
    piv = np.array(list(_pivots(np.c_[d, d[::-1]][..., None], lams)))
    pairs = []
    for lam, fwd, bwd in zip(lams.tolist(), piv[:, 0].T, piv[::-1, 1].T):
        gamma = fwd + bwd - (d - lam)
        k = int(np.argmin(np.abs(gamma)))
        left, right = fwd[:k][::-1], bwd[k + 1:]
        logs = np.concatenate([np.cumsum(-np.log(np.abs(left)))[::-1], [0.0],
                               np.cumsum(-np.log(np.abs(right)))])
        sign = np.concatenate([np.cumprod(-np.sign(left))[::-1], [1.0],
                               np.cumprod(-np.sign(right))])
        peak = int(np.argmax(logs))
        log_norm = logs[peak] + 0.5 * math.log(
            float(np.sum(np.exp(2.0 * (logs - logs[peak])))))
        resid = abs(float(gamma[k])) * math.exp(-log_norm)
        if resid > 1e-10 * (2.0 + float(np.max(np.abs(d))) + abs(lam)):
            raise RuntimeError(f"eigenvector residual {resid:.3e} too large")
        pairs.append((logs - log_norm, sign * sign[peak]))
    return pairs


# ----------------------------------------------------------------------
# eigenfunction decay
# ----------------------------------------------------------------------

class DecayProfile(NamedTuple):
    """Exponential decay diagnostics for one box eigenvector.

    `log_abs` is log|phi| of the unit eigenvector at every site, including
    those where `eigenvector` underflows to 0.  Slopes are decay rates in
    nats per site, fitted on `log_abs` strictly outside a central window of
    width n/8 around the peak, one fit per side; residuals are the RMS
    misfit of each line.  A side with fewer than five sites reports nan.
    """

    eigenvalue: float
    eigenvector: np.ndarray
    log_abs: np.ndarray
    center: int
    slope_left: float
    slope_right: float
    resid_left: float
    resid_right: float
    fit_sites_left: int
    fit_sites_right: int

    @property
    def decay_rate(self) -> float:
        """Mean of the finite side rates, nan if neither side fits."""
        rates = [s for s in (self.slope_left, self.slope_right)
                 if math.isfinite(s)]
        if not rates:
            return math.nan
        return float(np.mean(rates))

    def is_localized(self) -> bool:
        r = self.decay_rate
        return math.isfinite(r) and r >= TAU_POS


def _side_fit(dist: np.ndarray, logs: np.ndarray):
    """Decay rate (nats per site) and RMS misfit of a line fitted to
    log|phi| against `dist`, the distance from the peak, on one side."""
    if len(dist) < 5:
        return math.nan, math.nan, 0
    slope, _, ssr = line_fit(dist, logs)
    return -slope, math.sqrt(ssr / len(dist)), len(dist)


def eigenfunction_decay(potential: Potential, alpha: float, theta: float,
                        n: int, eigenvalues: Sequence[float]
                        ) -> List[DecayProfile]:
    """Decay profiles of the eigenvectors at the box `eigenvalues`, one per
    eigenvalue, from one `dirichlet_eigenpair` call."""
    if n < 500:
        raise ValueError("decay diagnostics need n >= 500")
    half, profiles = max(1, n // 16), []
    for lam, (logs, sign) in zip(np.asarray(eigenvalues).tolist(),
                                 dirichlet_eigenpair(potential, alpha, theta,
                                                     n, eigenvalues)):
        center = int(np.argmax(logs))
        (s_l, r_l, m_l), (s_r, r_r, m_r) = (
            _side_fit(np.abs(side - center).astype(np.float64), logs[side])
            for side in (np.arange(center - half),
                         np.arange(center + half + 1, n)))
        profiles.append(DecayProfile(
            eigenvalue=lam, eigenvector=sign * np.exp(logs), log_abs=logs,
            center=center, slope_left=s_l, slope_right=s_r,
            resid_left=r_l, resid_right=r_r,
            fit_sites_left=m_l, fit_sites_right=m_r))
    return profiles


# ----------------------------------------------------------------------
# integrated density of states
# ----------------------------------------------------------------------

def ids(potential: Potential, alpha: float, Es: Sequence[float], n: int,
        theta_samples: int) -> Tuple[np.ndarray, np.ndarray]:
    """IDS approximants k_n(E) at the energies Es: eigenvalue fractions
    below E, averaged over the phases (i + 1/2) / theta_samples; returns
    (values, spreads), one entry per energy.

    Boundary effects move at most O(1) eigenvalues, so the per-phase
    values agree to O(1/n); the spread, the largest minus the least
    per-phase value, is reported as a sanity band.
    """
    if n < 100:
        raise ValueError("IDS estimates need n >= 100")
    if theta_samples < 1:
        raise ValueError("need at least one phase sample")
    phases = (np.arange(theta_samples) + 0.5) / theta_samples
    vals = sturm_count(potential, alpha, phases, Es, n) / n
    return np.mean(vals, axis=0), np.max(vals, axis=0) - np.min(vals, axis=0)


def check_delta_ladder(delta_ladder: Sequence[float], n: int) -> np.ndarray:
    """The sorted ladder of IDS half-widths; ValueError names a broken rule.

    The ladder needs three or more positive rungs spanning at least two
    decades, all above the eigenvalue-spacing resolution 10/n^2 of the box.
    """
    deltas = np.sort(np.asarray(delta_ladder, dtype=np.float64))
    if deltas.size < 3:
        raise ValueError("delta ladder needs at least three rungs")
    if np.any(deltas <= 0):
        raise ValueError("delta ladder must be positive")
    if math.log10(deltas[-1] / deltas[0]) < 2.0 - 1e-9:
        raise ValueError("delta ladder must span at least two decades")
    if deltas[0] < 10.0 / n ** 2:
        raise ValueError(
            f"smallest delta {deltas[0]:g} is below the resolution "
            f"guard 10/n^2 = {10.0 / n ** 2:g}")
    return deltas


def holder_exponent(
    potential: Potential,
    alpha: float,
    E0,
    delta_ladder: Sequence[float],
    n: int,
    theta_samples: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Hoelder exponents of the IDS at the energies E0 from a ladder of
    increments; returns (betas, beta_stderrs), the slopes and their standard
    errors, each of E0's shape.

    Fits log(k(E0+delta) - k(E0-delta)) against log delta, one fit per E0,
    on the values of one `ids` call over every E0 +- delta.  Symmetric
    increments cancel the odd part of the finite-volume error.  The ladder
    must pass `check_delta_ladder`.  A vanishing increment at the smallest
    half-width means the IDS is locally constant: a gap, not fitted, and
    reported as (nan, nan), the only NaN returned.
    """
    deltas = check_delta_ladder(delta_ladder, n)
    E0 = np.asarray(E0, dtype=np.float64)
    Es = np.concatenate([E0[..., None] + deltas, E0[..., None] - deltas], -1)
    vals = ids(potential, alpha, Es, n, theta_samples)[0]
    incs = vals[..., :deltas.size] - vals[..., deltas.size:]
    x = np.log(deltas)  # three or more rungs over two decades: not constant
    sxx = float(np.sum((x - np.mean(x)) ** 2))
    betas, stderrs = np.full(E0.shape, math.nan), np.full(E0.shape, math.nan)
    for i in np.ndindex(E0.shape):
        if incs[i][0] > 0.0:  # else a gap
            betas[i], _, ssr = line_fit(x, np.log(incs[i]))
            stderrs[i] = math.sqrt(ssr / (x.size - 2) / sxx)
    return betas, stderrs


# ----------------------------------------------------------------------
# sublevel-set geometry of u_n on the unit circle
# ----------------------------------------------------------------------

class DeviationSetGeometry(NamedTuple):
    """Arcs of phase where u_n drops below its transfer-matrix mean.

    Arcs are (left, right) with left in [0, 1) and right > left; at most
    the last arc may cross 1 (wrap).  `pair_map[j]` is the index of an arc
    overlapping the reflection -(n-1)alpha - U_j, or -1; None when the
    potential is not even so no reflection symmetry is expected.
    """

    E: float
    n: int
    threshold: float
    level: float
    lyapunov_value: float
    grid_size: int
    intervals: Tuple[Tuple[float, float], ...]
    pair_map: Optional[Tuple[int, ...]]


def _arcs_overlap(a: Tuple[float, float], b: Tuple[float, float],
                  tol: float = 1e-9) -> bool:
    # circular interval intersection with a small slack
    la, ra = a
    lb, rb = b
    return ((lb - la) % 1.0 <= (ra - la) + tol
            or (la - lb) % 1.0 <= (rb - lb) + tol)


def deviation_set(
    potential: Potential,
    alpha: float,
    E: float,
    n: int,
    threshold: Optional[float],
    *,
    grid_size: int,
    lyapunov_K: int,
) -> DeviationSetGeometry:
    """Extract the arcs where u_n(e^{2 pi i theta}) < L_n - threshold.

    Scans u_n by FFT on an equispaced grid, groups sub-level runs into
    maximal arcs, and refines all endpoints by bisection in lockstep on
    `det_at_phase`, down to a bracket of 1e-12.  A threshold of None takes
    n^{-0.3}, an explicit reporting convention; at desk scale the arcs
    shrink like e^{-n t}, so seeing structure needs thresholds around
    (grid resolution) log / n.
    """
    if threshold is None:
        threshold = float(n) ** (-0.3)
    if grid_size < 64 * n:
        raise ValueError("grid must have at least 64 n points")

    fam = det_family(potential, alpha, E, n)
    if fam.poly.is_zero:
        raise ValueError("determinant is identically zero")
    u = fam.poly.eval_circle_log(1.0, grid_size) / fam.n
    L = lyapunov_n(potential, alpha, E, n, 0.0, K=lyapunov_K)[0]
    level = L - threshold

    below = u < level
    if bool(np.all(below)):
        raise ValueError("threshold so large the sublevel set covers "
                         "the whole circle")
    if not bool(np.any(below)):
        return DeviationSetGeometry(
            E=float(E), n=n, threshold=float(threshold), level=float(level),
            lyapunov_value=float(L), grid_size=int(grid_size),
            intervals=(), pair_map=(() if potential.is_even else None))

    starts = np.flatnonzero(below & ~np.roll(below, 1))
    ends = np.flatnonzero(below & ~np.roll(below, -1))
    # align each start with its closing end (circularly)
    ends = np.sort(ends)
    runs = [(int(s), int(ends[np.searchsorted(ends, s) % len(ends)]))
            for s in np.sort(starts)]

    h = 1.0 / grid_size
    m = len(runs)
    # each endpoint is bracketed by one grid cell; the first m are left
    # ends, where u falls from above the level at lo to below it at hi,
    # the last m right ends, where it rises
    cells = np.array([s - 1 for s, _ in runs] + [e for _, e in runs])
    lo, hi = cells * h, (cells + 1) * h
    falling = np.arange(2 * m) < m
    g = det_at_phase(potential, alpha, np.concatenate([lo, hi]), E, n)[0]
    g = g / n - level
    g_lo, g_hi = g[:2 * m], g[2 * m:]
    valid = np.where(falling, (g_lo >= 0) & (g_hi < 0),
                     (g_lo < 0) & (g_hi >= 0))
    fallback = np.where(falling, hi, lo)
    # bisect every valid bracket in lockstep, one batched call per level
    active = np.flatnonzero(valid & (hi - lo > 1e-12))
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        below = det_at_phase(potential, alpha, mid, E, n)[0] / n - level < 0
        to_hi = below == falling[active]
        hi[active[to_hi]] = mid[to_hi]
        lo[active[~to_hi]] = mid[~to_hi]
        active = active[hi[active] - lo[active] > 1e-12]
    ends = np.where(valid, 0.5 * (lo + hi), fallback).tolist()

    intervals = []
    for left, right in zip(ends[:m], ends[m:]):
        left %= 1.0
        width = (right - left) % 1.0
        if width == 0.0:
            width = h
        intervals.append((left, left + width))
    intervals.sort()
    intervals = tuple(intervals)

    pair_map: Optional[Tuple[int, ...]] = None
    if potential.is_even:
        c = (-(n - 1) * alpha) % 1.0
        # each arc's partner: the first arc that meets its reflection, else -1
        refl = [((c - r) % 1.0, (c - r) % 1.0 + (r - l)) for l, r in intervals]
        pair_map = tuple(next((k for k, arc in enumerate(intervals)
                               if _arcs_overlap(arc, x)), -1) for x in refl)

    return DeviationSetGeometry(
        E=float(E), n=n, threshold=float(threshold), level=float(level),
        lyapunov_value=float(L), grid_size=int(grid_size),
        intervals=intervals, pair_map=pair_map)


def double_resonance_scan(
    geometry: DeviationSetGeometry,
    theta: float,
    alpha: float,
    y: int,
) -> int:
    """Scan orbit points against arc pairs U_j u (-(n-1)alpha - U_j).

    The two offset windows are [-floor(7n/8), -floor(n/8)] and its shift
    by y, with n = geometry.n and n < y < 10 n.  A pair holding two or
    more orbit points is a double resonance.  Returns the index of the
    first such pair, or -1 when every pair caught at most one orbit point
    (the scan is clear).
    """
    n = geometry.n
    if not (n < y < 10 * n):
        raise ValueError("window offset y must satisfy n < y < 10 n")

    lo, hi = (7 * n) // 8, n // 8
    offs = np.concatenate([np.arange(-lo, -hi + 1),
                           np.arange(y - lo, y - hi + 1)])
    pts = (theta + offs * alpha) % 1.0

    c = (-(n - 1) * alpha) % 1.0
    for j, (l, r) in enumerate(geometry.intervals):
        width = r - l
        in_arc = (pts - l) % 1.0 <= width
        refl_l = (c - r) % 1.0
        in_refl = (pts - refl_l) % 1.0 <= width
        mask = in_arc | in_refl
        if int(np.sum(mask)) >= 2:
            return j
    return -1


# ----------------------------------------------------------------------
# interior expansion through window determinants
# ----------------------------------------------------------------------

def expansion_identity_check(
    potential: Potential,
    alpha: float,
    theta: float,
    E: float,
    phi: np.ndarray,
    interval: Tuple[int, int],
    y: int,
) -> float:
    """Residual of the window-determinant expansion of a solution.

    For a sequence satisfying the eigenvalue equation on [l1, l2] (with
    Dirichlet zeros padded outside its own index range),

        phi_y = [ D_{l2-y}(theta+(y+1)alpha) phi_{l1-1}
                + D_{y-l1}(theta+l1 alpha)   phi_{l2+1} ] / D_W(theta+l1 alpha)

    with W = l2-l1+1 and determinants in the det(E - H) normalization.
    Terms are assembled in the log domain from `det_at_phase`, so window
    size is not limited by double-precision range.  Returns
    |phi_y - expansion| / |phi_y|, relative to the value it reproduces, so
    a wrong expansion reads about 1 however small phi_y is; raises
    ValueError when phi_y is 0.
    """
    phi = np.asarray(phi, dtype=np.float64)
    N = phi.shape[0]
    l1, l2 = int(interval[0]), int(interval[1])
    if not (0 <= l1 <= y <= l2 <= N - 1):
        raise ValueError("need 0 <= l1 <= y <= l2 within the sequence")
    W = l2 - l1 + 1
    norm = float(np.max(np.abs(phi)))
    if norm == 0.0:
        raise ValueError("zero sequence")

    # the equation must hold on the window before the expansion means anything
    ext = np.concatenate([[0.0], phi, [0.0]])
    f = dirichlet_diagonal(potential, alpha, theta + l1 * alpha, W)
    idx = np.arange(l1, l2 + 1)
    eq = ext[idx] + ext[idx + 2] + f * phi[idx] - E * phi[idx]
    eq_resid = float(np.max(np.abs(eq))) / norm
    if eq_resid > 1e-8:
        raise ValueError(
            f"sequence is not a solution on the window: residual {eq_resid:.3e}")
    if phi[y] == 0.0:
        raise ValueError("phi_y is 0, so no relative residual exists")
    expansion = _window_expansion(potential, alpha, theta, E, phi, (l1, l2), y)
    return abs(float(phi[y]) - expansion) / abs(float(phi[y]))


def _window_expansion(potential: Potential, alpha: float, theta: float,
                      E: float, phi: np.ndarray, window: Tuple[int, int],
                      y: int) -> float:
    """The right-hand side of `expansion_identity_check`'s identity."""
    l1, l2 = window
    phi_left = phi[l1 - 1] if l1 >= 1 else 0.0
    phi_right = phi[l2 + 1] if l2 + 1 < len(phi) else 0.0

    def det(order: int, phase: float):
        # D_order at the phase, with D_0 = 1
        if order == 0:
            return 0.0, 1.0
        return det_at_phase(potential, alpha, phase, E, order)

    p1 = theta + l1 * alpha
    la_den, s_den = det(l2 - l1 + 1, p1)
    if not math.isfinite(la_den):
        raise ValueError("E is a Dirichlet eigenvalue of the window")

    def term(order: int, phase: float, boundary: float) -> float:
        if boundary == 0.0:
            return 0.0
        la, sign = det(order, phase)
        if not math.isfinite(la):
            return 0.0
        expo = la - la_den + math.log(abs(boundary))
        # terms much larger than phi_y cancel against each other; past 15
        # nats the roundoff floor, relative to phi_y, exceeds what a 1e-9
        # certificate needs, so the window is unusable, not just noisy
        if expo > 15.0 + math.log(abs(phi[y])):
            raise ValueError(
                "window expansion is ill-conditioned: the window "
                "determinant is near-resonant at this energy")
        return sign * s_den * math.copysign(math.exp(expo), boundary)

    return (term(l2 - y, theta + (y + 1) * alpha, phi_left)
            + term(y - l1, p1, phi_right))


def tail_window(center: int, n: int, margin: int, length: int) -> int:
    """Left end l1 of the expansion window [l1, l1 + length] in an n-site box.

    The window starts `margin` sites past the localization center, on the
    roomier side of it: a window containing the center has a near-resonant
    determinant.  l1 is clamped to [1, n - 2 - length].
    """
    l1 = center + margin if center <= n // 2 else center - margin - length
    return min(max(1, l1), n - 2 - length)


def expansion_identity_scan(
    potential: Potential,
    alpha: float,
    theta: float,
    E: float,
    phi: np.ndarray,
    interval: Tuple[int, int],
) -> Tuple[float, Tuple[int, int], int]:
    """Expansion residual on the first well-conditioned shifted window.

    E can sit close to the Dirichlet spectrum of any particular window,
    which makes that window's expansion unusable (the check raises); a
    small shift moves the window spectrum and restores conditioning.
    Returns (residual, window, y) with y the window midpoint.  Raises when
    every candidate window is resonant.
    """
    phi = np.asarray(phi, dtype=np.float64)
    N = phi.shape[0]
    l1, l2 = int(interval[0]), int(interval[1])
    width = l2 - l1
    last: Optional[ValueError] = None
    for s in (0, 7, -7, 14, -14, 21):
        a, b = l1 + s, l1 + s + width
        if a < 1 or b > N - 2:
            continue
        y = (a + b) // 2
        try:
            res = expansion_identity_check(potential, alpha, theta, E,
                                           phi, (a, b), y)
            return res, (a, b), y
        except ValueError as exc:
            last = exc
    raise ValueError(f"no well-conditioned expansion window found: {last}")
