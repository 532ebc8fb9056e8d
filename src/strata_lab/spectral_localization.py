"""Finite-volume Dirichlet spectra, IDS regularity, and localization probes.

The box operator on sites [0, n-1] with Dirichlet ends is the symmetric
tridiagonal matrix with diagonal f(theta + j alpha) and unit off-diagonals.
This module covers its spectrum (Sturm counts, bisection eigensolves, and
eigenvectors by twisted factorization on the Sturm counts' LDL^T pivots),
the integrated density of states and its Hoelder exponent, the sublevel-set
geometry of u_n = (1/n) log|D_n| on the unit circle, a double-resonance
orbit scan over that geometry, and the interior expansion of a solution
through window determinants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .model import Potential
from .cocycle import TAU_POS, lyapunov_n
from .determinant import det_at_phase, det_family

__all__ = [
    "dirichlet_diagonal",
    "sturm_count",
    "DirichletSpectrum",
    "dirichlet_eigenvalues",
    "dirichlet_eigenpair",
    "DecayProfile",
    "eigenfunction_decay",
    "IDSEstimate",
    "ids",
    "HolderFit",
    "holder_exponent",
    "DeviationSetGeometry",
    "deviation_set",
    "DoubleResonanceReport",
    "double_resonance_scan",
    "expansion_identity_check",
    "expansion_identity_scan",
    "tail_window",
]

# pivot floor for the inertia recurrence; a pivot this small is treated as
# negative so an eigenvalue sitting exactly at E counts as below E
_PIVMIN = 1e-300


def dirichlet_diagonal(potential: Potential, alpha: float, theta: float,
                       n: int) -> np.ndarray:
    """Diagonal f(theta + j alpha), j = 0..n-1, of the n-site box.

    theta is reduced mod 1 exactly (the identity on (-1, 1)) before it
    meets j alpha, so a huge phase keeps its quasi-periodic diagonal."""
    if n < 1:
        raise ValueError("box length n must be >= 1")
    vals = potential.eval_theta(math.fmod(theta, 1.0) + alpha * np.arange(n))
    return np.atleast_1d(np.asarray(vals, dtype=np.float64))


def _pivots(d: np.ndarray, E):
    """LDL^T pivots of the box minus E, one per site, in site order.

    q_j = (d_j - E) - 1/q_{j-1} from q_{-1} = inf.  Rows of `d` may carry a
    batch axis that broadcasts against E.  Pivots smaller in magnitude than
    the floor are clamped negative.
    """
    q = math.inf
    for dj in d:
        q = (dj - E) - 1.0 / q
        q = np.where(np.abs(q) < _PIVMIN, -_PIVMIN, q)
        yield q


def sturm_count(potential: Potential, alpha: float, theta: float, E,
                n: int):
    """Number of box eigenvalues at or below E (LDL^T inertia count).

    Counts the negative pivots of `_pivots`.  E may be a scalar or an array
    of any shape.  The pivot floor makes an exact hit count as below.
    """
    E_arr = np.atleast_1d(np.asarray(E, dtype=np.float64))
    count = np.zeros(E_arr.shape, dtype=np.int64)
    for q in _pivots(dirichlet_diagonal(potential, alpha, theta, n), E_arr):
        count += q < 0
    if np.ndim(E) == 0:
        return int(count[0])
    return count


@dataclass(frozen=True)
class DirichletSpectrum:
    """All n eigenvalues of the box at one phase, ascending.

    The off-diagonals are identically 1, so the matrix is unreduced and
    every eigenvalue is simple; strict ordering is enforced.
    """

    theta: float
    n: int
    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        if ev.shape != (self.n,):
            raise ValueError("eigenvalue array must have length n")
        if self.n > 1 and not np.all(np.diff(ev) > 0):
            raise ValueError("eigenvalues must be strictly increasing")
        object.__setattr__(self, "eigenvalues", ev)


def dirichlet_eigenvalues(potential: Potential, alpha: float, theta: float,
                          n: int) -> DirichletSpectrum:
    """Full box spectrum by bisection with Sturm counts (LAPACK stebz)."""
    from scipy.linalg import eigvalsh_tridiagonal  # only box solves load scipy
    d = dirichlet_diagonal(potential, alpha, theta, n)
    if n == 1:
        evs = d.copy()
    else:
        evs = eigvalsh_tridiagonal(d, np.ones(n - 1),
                                   lapack_driver="stebz")
        evs = np.sort(evs)
    return DirichletSpectrum(theta=float(theta), n=n, eigenvalues=evs)


def _twisted_eigenpair(potential: Potential, alpha: float, theta: float,
                       n: int, index: int,
                       spectrum: Optional[DirichletSpectrum]):
    """Eigenvalue, log|phi| and sign(phi) of the unit eigenvector, positive
    at its peak, by twisted factorization.

    Forward pivots run on the diagonal, backward pivots on it reversed.  At
    the twist k minimizing |gamma_j| = |fwd_j + bwd_j - (d_j - lam)|, the
    vector with z_k = 1, z_j = -z_{j+1}/fwd_j left of k and
    z_j = -z_{j-1}/bwd_j right of k solves (T - lam) z = gamma_k e_k
    exactly, so |gamma_k| / |z| is its residual.  Raises RuntimeError when
    that residual exceeds 1e-10 of the matrix scale.
    """
    if spectrum is None:
        spectrum = dirichlet_eigenvalues(potential, alpha, theta, n)
    if not 0 <= index < n:
        raise ValueError("eigenvalue index out of range")
    lam = float(spectrum.eigenvalues[index])
    d = dirichlet_diagonal(potential, alpha, theta, n)
    piv = np.array(list(_pivots(np.stack([d, d[::-1]], axis=1), lam)))
    fwd, bwd = piv[:, 0], piv[::-1, 1]
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
    return lam, logs - log_norm, sign * sign[peak]


def dirichlet_eigenpair(potential: Potential, alpha: float, theta: float,
                        n: int, index: int,
                        spectrum: Optional[DirichletSpectrum] = None):
    """Eigenvalue and unit eigenvector, positive at its peak, for one
    spectral index: the shift from the bisection eigensolve, the vector by
    `_twisted_eigenpair`; components too small for a double read 0."""
    lam, logs, sign = _twisted_eigenpair(potential, alpha, theta, n, index,
                                         spectrum)
    return lam, sign * np.exp(logs)


# ----------------------------------------------------------------------
# eigenfunction decay
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DecayProfile:
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
    theta: float
    n: int
    index: int

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
    coef = np.polyfit(dist, logs, 1)
    resid = logs - np.polyval(coef, dist)
    return -float(coef[0]), float(np.sqrt(np.mean(resid ** 2))), len(dist)


def eigenfunction_decay(potential: Potential, alpha: float, theta: float,
                        n: int, which: int,
                        spectrum: Optional[DirichletSpectrum] = None
                        ) -> DecayProfile:
    """Decay profile of the eigenvector at spectral index `which`."""
    if n < 500:
        raise ValueError("decay diagnostics need n >= 500")
    lam, logs, sign = _twisted_eigenpair(potential, alpha, theta, n, which,
                                         spectrum)
    center = int(np.argmax(logs))
    half = max(1, n // 16)
    left = np.arange(center - half)
    right = np.arange(center + half + 1, n)
    s_l, r_l, m_l = _side_fit((center - left).astype(np.float64), logs[left])
    s_r, r_r, m_r = _side_fit((right - center).astype(np.float64),
                              logs[right])

    return DecayProfile(
        eigenvalue=lam, eigenvector=sign * np.exp(logs), log_abs=logs,
        center=center, slope_left=s_l, slope_right=s_r,
        resid_left=r_l, resid_right=r_r,
        fit_sites_left=m_l, fit_sites_right=m_r,
        theta=float(theta), n=n, index=which)


# ----------------------------------------------------------------------
# integrated density of states
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IDSEstimate:
    """Phase-averaged eigenvalue fraction below E with its sample spread."""

    E: float
    n: int
    value: float
    spread: float
    per_theta: Tuple[float, ...]


def _ids_phases(theta_samples) -> np.ndarray:
    if np.ndim(theta_samples) == 0:
        m = int(theta_samples)
        if m < 1:
            raise ValueError("need at least one phase sample")
        return (np.arange(m) + 0.5) / m
    return np.asarray(theta_samples, dtype=np.float64)


def _ids_values(potential: Potential, alpha: float, Es: np.ndarray, n: int,
                thetas: np.ndarray) -> np.ndarray:
    """Counts/n per (theta, E); shape (len(thetas), len(Es))."""
    out = np.empty((len(thetas), len(Es)))
    for i, th in enumerate(thetas):
        out[i] = sturm_count(potential, alpha, th, Es, n) / n
    return out


def ids(potential: Potential, alpha: float, E: float, n: int,
        theta_samples=8) -> IDSEstimate:
    """IDS approximant k_n(E): eigenvalue fraction below E, phase-averaged.

    Boundary effects move at most O(1) eigenvalues, so the per-phase
    values agree to O(1/n); the spread is reported as a sanity band.
    """
    if n < 100:
        raise ValueError("IDS estimates need n >= 100")
    thetas = _ids_phases(theta_samples)
    vals = _ids_values(potential, alpha, np.atleast_1d(float(E)), n,
                       thetas)[:, 0]
    return IDSEstimate(
        E=float(E), n=n, value=float(np.mean(vals)),
        spread=float(np.max(vals) - np.min(vals)),
        per_theta=tuple(float(x) for x in vals))


@dataclass(frozen=True)
class HolderFit:
    """Log-log fit of symmetric IDS increments against the half-width."""

    E0: float
    n: int
    beta: float
    beta_stderr: float
    deltas: Tuple[float, ...]
    increments: Tuple[float, ...]
    in_gap: bool
    message: str


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
    E0: float,
    delta_ladder: Sequence[float],
    n: int,
    theta_samples=8,
) -> HolderFit:
    """Hoelder exponent of the IDS at E0 from a ladder of increments.

    Fits log(k(E0+delta) - k(E0-delta)) against log delta.  Symmetric
    increments cancel the odd part of the finite-volume error.  The ladder
    must pass `check_delta_ladder`.  A vanishing increment at the smallest
    half-width means the IDS is locally constant: reported as a gap, not
    fitted.
    """
    deltas = check_delta_ladder(delta_ladder, n)
    thetas = _ids_phases(theta_samples)
    Es = np.concatenate([E0 + deltas, E0 - deltas])
    vals = _ids_values(potential, alpha, Es, n, thetas).mean(axis=0)
    inc = vals[:deltas.size] - vals[deltas.size:]

    if inc[0] <= 0.0:
        return HolderFit(
            E0=float(E0), n=n, beta=math.nan, beta_stderr=math.nan,
            deltas=tuple(deltas), increments=tuple(inc), in_gap=True,
            message="in gap, locally constant IDS")

    x = np.log(deltas)
    y = np.log(inc)
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    dof = max(len(x) - 2, 1)
    s2 = float(np.sum(resid ** 2)) / dof
    denom = float(np.sum((x - np.mean(x)) ** 2))
    stderr = math.sqrt(s2 / denom) if denom > 0 else math.inf
    return HolderFit(
        E0=float(E0), n=n, beta=float(coef[0]), beta_stderr=stderr,
        deltas=tuple(deltas), increments=tuple(inc), in_gap=False,
        message="ok")


# ----------------------------------------------------------------------
# sublevel-set geometry of u_n on the unit circle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationSetGeometry:
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

    @property
    def count(self) -> int:
        return len(self.intervals)

    @property
    def measure(self) -> float:
        return float(sum(r - l for l, r in self.intervals))

    def contains(self, theta: float) -> bool:
        t = theta % 1.0
        for l, r in self.intervals:
            if (t - l) % 1.0 <= r - l:
                return True
        return False

    def to_json_dict(self) -> dict:
        return {
            "E": self.E, "n": self.n, "threshold": self.threshold,
            "level": self.level, "lyapunov_value": self.lyapunov_value,
            "grid_size": self.grid_size,
            "intervals": [[l, r] for l, r in self.intervals],
            "pair_map": None if self.pair_map is None else list(self.pair_map),
        }


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
    threshold: Optional[float] = None,
    grid_size: Optional[int] = None,
    lyapunov_K: int = 1024,
) -> DeviationSetGeometry:
    """Extract the arcs where u_n(e^{2 pi i theta}) < L_n - threshold.

    Scans u_n by FFT on an equispaced grid, groups sub-level runs into
    maximal arcs, and refines all endpoints by bisection in lockstep on
    `det_at_phase`, down to a bracket of 1e-12.  The default threshold
    n^{-0.3} is an explicit reporting convention; at desk scale the arcs
    shrink like e^{-n t}, so seeing structure needs thresholds around
    (grid resolution) log / n.
    """
    if threshold is None:
        threshold = float(n) ** (-0.3)
    if grid_size is None:
        grid_size = 64 * n
    if grid_size < 64 * n:
        raise ValueError("grid must have at least 64 n points")

    fam = det_family(potential, alpha, E, n)
    u = fam.log_abs_per_site_circle(1.0, grid_size)
    L = lyapunov_n(potential, alpha, E, n, 0.0, K=lyapunov_K).value
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
        pm = []
        for l, r in intervals:
            refl = ((c - r) % 1.0, (c - r) % 1.0 + (r - l))
            hit = -1
            for k, arc in enumerate(intervals):
                if _arcs_overlap(arc, refl):
                    hit = k
                    break
            pm.append(hit)
        pair_map = tuple(pm)

    return DeviationSetGeometry(
        E=float(E), n=n, threshold=float(threshold), level=float(level),
        lyapunov_value=float(L), grid_size=int(grid_size),
        intervals=intervals, pair_map=pair_map)


@dataclass(frozen=True)
class DoubleResonanceReport:
    """Outcome of the two-window orbit scan over a deviation geometry.

    `clear` means every arc-plus-reflection pair caught at most one orbit
    point theta + ell alpha with ell in the two integer windows; otherwise
    the first offending pair and its offsets are reported.
    """

    clear: bool
    y: int
    n: int
    pair_index: int = -1
    offsets: Tuple[int, ...] = ()
    points: Tuple[float, ...] = ()


def double_resonance_scan(
    geometry: DeviationSetGeometry,
    theta: float,
    alpha: float,
    y: int,
) -> DoubleResonanceReport:
    """Scan orbit points against arc pairs U_j u (-(n-1)alpha - U_j).

    The two offset windows are [-floor(7n/8), -floor(n/8)] and its shift
    by y, with n = geometry.n and n < y < 10 n.  A pair holding two or
    more orbit points is a double resonance; the first such pair is
    returned as a witness.
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
            sel = np.flatnonzero(mask)
            return DoubleResonanceReport(
                clear=False, y=y, n=n, pair_index=j,
                offsets=tuple(int(offs[i]) for i in sel),
                points=tuple(float(pts[i]) for i in sel))
    return DoubleResonanceReport(clear=True, y=y, n=n)


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
