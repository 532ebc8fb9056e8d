"""Transfer-matrix cocycle: Lyapunov exponents and quantized acceleration.

The one-step transfer matrix of the eigenvalue equation at energy E is

    A(theta) = [[E - f(theta), -1], [1, 0]],

iterated along the rotation orbit theta, theta+alpha, ....  The phase is
complexified, theta + i*eps, and the central quantity is the strip Lyapunov
exponent L(E, eps) = lim (1/n) int log ||A_n(theta + i eps)|| dtheta.  Its
right derivative in eps, divided by 2 pi, is an integer (the acceleration);
detecting that integer from finite-n data is what this module is for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .model import TWO_PI, Potential


# `lyapunov_n` walks the energy axis in blocks whose (E, eps, theta) batch
# holds about this many elements, so that the recurrence's temporaries stay
# cache-sized and peak memory does not grow with the number of energies.
_BLOCK = 1 << 14

# L(E, 0) above this counts as positive (stratum S<l>+ rather than S<l>0);
# the zero-count check and the localization verdict use it too
TAU_POS = 0.05


def _rescale_interval(potential: Potential, energies: np.ndarray,
                      grid: np.ndarray) -> int:
    """Steps between the strip kernel's power-of-two rescalings.

    A step maps the largest entry modulus M to at most G*M, with G = max|E|
    + sum_k |c_k| e^{2 pi |k| max|eps|} + 1 (the new entries are t*a - c and
    t*b - d, and |f(theta + i eps)| <= sum_k |c_k| e^{2 pi |k| |eps|}), and
    to at least M/G (the step's inverse has the same entries up to sign).
    A rescaling leaves M in [1/2, 1); with G^S <= 2^900, M stays between
    2^-901 and 2^900 until the next one, far from overflow and underflow.
    1 <= S <= 900, so huge energies still run, rescaled at every step.
    """
    width = float(np.max(np.abs(grid), initial=0.0))
    growth = (float(np.max(np.abs(energies), initial=0.0)) + 1.0
              + sum(abs(c) * math.exp(TWO_PI * abs(k) * width)
                    for k, c in potential.coeffs_dict().items()))
    return max(1, int(900.0 / max(1.0, math.log2(growth))))


def _largest(a, b, c, d) -> np.ndarray:
    """The largest entry modulus of the running product."""
    return np.maximum(np.maximum(np.abs(a), np.abs(b)),
                      np.maximum(np.abs(c), np.abs(d)))


def _log_norm(exponent: np.ndarray, m: np.ndarray) -> np.ndarray:
    """log(m * 2^exponent), exact in the exponent."""
    mantissa, e = np.frexp(m)
    return (exponent + e) * math.log(2.0) + np.log(mantissa)


def transfer_log_norms(
    potential: Potential,
    alpha: float,
    thetas: np.ndarray,
    E: Union[float, Sequence[float]],
    eps: Union[float, Sequence[float]],
    n: int,
    ladder: Sequence[int] = (),
    return_matrices: bool = False,
):
    """log ||A_n(theta + i eps)|| for a batch of phases, sup-norm renormalized.

    `E` is a scalar or a 1-D array of energies and `eps` a scalar or a 1-D
    grid; the log-norms have shape E.shape + eps.shape + thetas.shape.  One
    recurrence runs over the whole (E, eps, theta) batch; each step
    evaluates the phases mod 1 and the symbol once for every energy
    (`Potential.eval_theta`) and writes the product's two new entries into
    preallocated buffers.  Every `_rescale_interval` steps the product is
    multiplied by 2^-e, e the frexp exponent of its largest entry modulus,
    and e joins an integer exponent.  Power-of-two scaling is exact, so the
    log-norm (exponent + frexp exponent) ln 2 + log(mantissa), taken only at
    the ladder lengths and at n, is the same bit for bit whatever the
    interval, the energy batch or the ladder.

    `ladder` lists ascending product lengths in 1..n; when it is given the
    result gains a leading axis with the log-norm at each of those lengths,
    so one recurrence serves a whole n-ladder.  Optionally also returns the
    residual matrices at length n divided by their largest entry modulus,
    stacked as (..., 2, 2).
    """
    if n < 1:
        raise ValueError("product length n must be >= 1")
    lengths = [int(m) for m in ladder]
    if lengths != sorted(lengths) or any(not 1 <= m <= n for m in lengths):
        raise ValueError("ladder lengths must ascend within 1..n")
    energies = np.asarray(E, dtype=np.float64)
    if energies.ndim > 1:
        raise ValueError("E must be a scalar or a 1-D array")
    grid = np.asarray(eps, dtype=np.float64)
    if np.any(np.abs(grid) >= potential.eta):
        raise ValueError("|eps| must stay below the declared strip width")
    # exact reduction mod 1 before the phases meet j alpha
    thetas = np.fmod(np.asarray(thetas, dtype=np.float64), 1.0)
    shape = energies.shape + grid.shape + thetas.shape
    # each energy against every (eps, theta) entry of the symbol
    col = energies.reshape(energies.shape + (1,) * (grid.ndim + thetas.ndim))
    # at eps = 0 the product is real: real arithmetic, the same bits
    dtype = np.complex128 if np.any(grid) else np.float64
    every = _rescale_interval(potential, energies, grid)
    a, b = np.ones(shape, dtype=dtype), np.zeros(shape, dtype=dtype)
    c, d = np.zeros(shape, dtype=dtype), np.ones(shape, dtype=dtype)
    a_next, b_next = np.empty(shape, dtype=dtype), np.empty(shape, dtype=dtype)
    exponent = np.zeros(shape, dtype=np.int64)
    snapshots = []
    for j in range(n):
        x = thetas + j * alpha
        ph = x - np.floor(x)  # np.mod(x, 1.0) bit for bit, 10x cheaper
        t = col - potential.eval_theta(ph, grid)
        np.subtract(np.multiply(t, a, out=a_next), c, out=a_next)
        np.subtract(np.multiply(t, b, out=b_next), d, out=b_next)
        a, b, c, d, a_next, b_next = a_next, b_next, a, b, c, d
        hits = lengths.count(j + 1)
        if hits:
            snapshots += [_log_norm(exponent, _largest(a, b, c, d))] * hits
        if (j + 1) % every == 0:
            e = np.frexp(_largest(a, b, c, d))[1]
            scale = np.ldexp(1.0, -e)
            for m in (a, b, c, d):
                m *= scale
            exponent += e
    m = _largest(a, b, c, d)
    acc = np.stack(snapshots) if lengths else _log_norm(exponent, m)
    if not return_matrices:
        return acc
    mats = np.stack([np.stack([a, b], axis=-1),
                     np.stack([c, d], axis=-1)], axis=-2)
    return acc, mats / m[..., None, None]


# ----------------------------------------------------------------------
# Lyapunov averages
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LyapunovEstimate:
    """Phase-averaged finite-n Lyapunov exponent."""

    value: float             # L_n(E, eps)
    E: float
    eps: float
    n: int
    quadrature_points: int   # K, equispaced phases
    std_error: float         # sample std of the integrand / sqrt(K)


def lyapunov_n(
    potential: Potential,
    alpha: float,
    E: Union[float, Sequence[float]],
    n: Union[int, Sequence[int]],
    eps: Union[float, Sequence[float]] = 0.0,
    K: int = 256,
) -> Union[LyapunovEstimate, Tuple[LyapunovEstimate, ...]]:
    """L_n(E, eps): trapezoid average of (1/n) log||A_n|| over K phases.

    For a periodic integrand the equispaced trapezoid rule is just the grid
    mean; K should be a power of two so refinement nests.  `E` is a scalar
    or a 1-D array of energies, `n` a product length or an ascending
    ladder of them, `eps` a scalar or a 1-D grid.  When all three are
    scalars the result is one LyapunovEstimate; otherwise it is a flat
    tuple in (E, n, eps) order.  The energies run in blocks of about
    `_BLOCK` batch elements, one `transfer_log_norms` call per block over
    the longest n with a snapshot at every ladder length; no estimate
    depends on the block it ran in.
    """
    ests = tuple(_estimates(potential, alpha, E, n, eps, K))
    if np.ndim(E) or np.ndim(n) or np.ndim(eps):
        return ests
    return ests[0]


def _estimates(potential, alpha, E, n, eps, K):
    """The estimates of `lyapunov_n` in (E, n, eps) order, one energy block
    at a time, so a caller that keeps only their values never holds more
    than one block's log-norms."""
    ns = [int(m) for m in np.atleast_1d(n)]
    if not ns:
        raise ValueError("the n-ladder is empty")
    grid = np.asarray(eps, dtype=np.float64)
    thetas = np.arange(K, dtype=np.float64) / K
    flat = np.asarray(E, dtype=np.float64).reshape(-1)
    rows = max(1, _BLOCK // max(1, grid.size * K))
    for lo in range(0, flat.size, rows):
        block = flat[lo:lo + rows]
        logs = transfer_log_norms(potential, alpha, thetas, block, grid,
                                  ns[-1], ladder=ns)
        logs = logs.reshape(len(ns), len(block), grid.size, K)
        for i, e_val in enumerate(block.tolist()):
            for r, m in enumerate(ns):
                vals = logs[r, i] / m
                for e, v in zip(grid.reshape(-1).tolist(), vals):
                    yield LyapunovEstimate(
                        value=float(np.mean(v)), E=e_val, eps=e, n=m,
                        quadrature_points=K,
                        std_error=float(np.std(v) / math.sqrt(K)))
        del logs, vals  # free this block before the next one is computed


# ----------------------------------------------------------------------
# acceleration and strata
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AccelerationEstimate:
    """Slope of eps -> L(E, eps) over a window, in units of 2 pi.

    The limiting slope is an integer; `residual` is the distance of the
    fitted slope to the nearest integer and doubles as the detector for a
    slope break inside the window (quantization plateaus are affine)."""

    E: float
    n: int
    quadrature_points: int
    eps_grid: Tuple[float, ...]
    L_values: Tuple[float, ...]
    raw_slope: float           # d L / d eps / (2 pi), least squares
    kappa: int                 # nearest integer
    residual: float            # |raw_slope - kappa|

    @property
    def non_affine(self) -> bool:
        """True when the window straddles a slope break and needs refining."""
        return self.residual > 0.25


def acceleration(
    potential: Potential,
    alpha: float,
    E: Union[float, Sequence[float]],
    eps_grid: Sequence[float],
    n: int = 512,
    K: int = 256,
) -> Union[AccelerationEstimate, Tuple[AccelerationEstimate, ...]]:
    """Fit the quantized slope of the strip Lyapunov exponent.

    All grid points must be nonnegative; evenness of L in eps means the
    right derivative is the only free one.  A scalar `E` gives one
    AccelerationEstimate, a 1-D array a tuple of them in energy order,
    from one batched `lyapunov_n` pass over the whole (E, eps) batch."""
    eps_grid = sorted(float(e) for e in eps_grid)
    if len(eps_grid) < 2:
        raise ValueError("need at least two eps values to fit a slope")
    if eps_grid[0] < 0:
        raise ValueError("eps grid must be nonnegative")
    energies = np.asarray(E, dtype=np.float64)
    L_all = [est.value
             for est in _estimates(potential, alpha, E, n, eps_grid, K)]
    m = len(eps_grid)
    out = []
    for i, e_val in enumerate(energies.reshape(-1).tolist()):
        L_vals = L_all[i * m:(i + 1) * m]
        slope = float(np.polyfit(eps_grid, L_vals, 1)[0]) / TWO_PI
        kappa = int(round(slope))
        out.append(AccelerationEstimate(
            E=e_val, n=n, quadrature_points=K,
            eps_grid=tuple(eps_grid), L_values=tuple(L_vals),
            raw_slope=slope, kappa=kappa, residual=abs(slope - kappa)))
    return tuple(out) if energies.ndim else out[0]


@dataclass(frozen=True)
class StratumRecord:
    """Classification of one energy by (L, acceleration)."""

    E: float
    L0: float        # Lyapunov exponent at eps = 0
    kappa: int       # acceleration at eps = 0+
    label: str       # "S<l>+", "S<l>0", "subcritical", "off-spectrum", "unclassified"


def classify_stratum(
    E: float,
    L0: float,
    kappa: int,
    tau_pos: float = TAU_POS,
    non_affine: bool = False,
    in_spectrum: Optional[bool] = None,
) -> StratumRecord:
    """Assign the stratum label from the pair (L(E,0), kappa(E,0)).

    Acceleration l-1 puts E in the l-th stratum; the + / 0 superscript
    records whether L clears the positivity threshold tau_pos.  Spectrum
    membership is decided elsewhere (finite-volume eigenvalue clusters) and
    passed in, since uniform hyperbolicity is not tested here."""
    if in_spectrum is False:
        label = "off-spectrum"
    elif non_affine:
        label = "unclassified"
    elif kappa == 0:
        label = "subcritical"
    else:
        level = kappa + 1
        label = f"S{level}+" if L0 > tau_pos else f"S{level}0"
    return StratumRecord(E=float(E), L0=float(L0), kappa=int(kappa), label=label)


def strata_measure(
    records: Sequence[StratumRecord], cell_width: float
) -> Dict[str, float]:
    """Lebesgue measure of each label: cell width times cell count.

    Records are assumed to sit on a uniform energy grid of the given width."""
    out: Dict[str, float] = {}
    for rec in records:
        out[rec.label] = out.get(rec.label, 0.0) + cell_width
    return out
