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
import sys
from typing import NamedTuple, Sequence, Tuple, Union

import numpy as np

from .model import TWO_PI, Potential


# `lyapunov_n` walks the energy axis in blocks of about this many (E, eps,
# theta) elements: temporaries stay cache-sized whatever the energy count.
_BLOCK = 1 << 14

# L(E, 0) above this counts as positive (stratum S<l>+ rather than S<l>0);
# the zero-count check and the localization verdict use it too
TAU_POS = 0.05

_LOG_DBL_MAX = math.log(sys.float_info.max)


def _check_symbol_range(potential: Potential, width: float) -> float:
    """log sum_k |c_k| e^{2 pi |k| width}, the log of a bound on |f(theta +
    i eps)| for |eps| <= width.  A width at which it reaches the largest
    double is refused: the symbol, and the transfer products, would
    overflow there.  So would the factor 2 cosh(2 pi k0 width) of
    `Potential.eval_theta`, however small c_k0."""
    logs = [math.log(abs(c)) + TWO_PI * abs(k) * width
            for k, c in potential.coeffs_dict().items()]
    log_bound = float(np.logaddexp.reduce(logs)) if logs else -math.inf
    if max(log_bound, TWO_PI * potential.k0 * width) >= _LOG_DBL_MAX:
        raise ValueError(
            f"the potential overflows a double on the strip |eps| <= {width:g}: "
            f"log sum_k |c_k| e^(2 pi |k| |eps|) = {log_bound:.6g}, "
            f"2 pi k0 |eps| = {TWO_PI * potential.k0 * width:.6g}, "
            f"ln(DBL_MAX) = {_LOG_DBL_MAX:.6g}")
    return log_bound


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
    A strip on which the symbol bound overflows is refused.
    """
    width = float(np.max(np.abs(grid), initial=0.0))
    bound = math.exp(_check_symbol_range(potential, width))
    growth = float(np.max(np.abs(energies), initial=0.0)) + 1.0 + bound
    return max(1, int(900.0 / max(1.0, math.log2(growth))))


def _phases(alpha: float, n: int) -> np.ndarray:
    """r_j = fl(j alpha) mod 1 (exact), j < n: step j + 1 of both transfer
    recurrences, `transfer_log_norms` and `det_family`, sits at theta + r_j."""
    return np.mod(np.arange(n) * alpha, 1.0)


def _largest(ab, cd) -> np.ndarray:
    """Largest entry modulus of the running product, rows (a, b) and (c, d)."""
    return np.maximum(np.max(np.abs(ab), axis=0), np.max(np.abs(cd), axis=0))


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
    recurrence runs over the whole (E, eps, theta) batch.  Step j sits at
    theta + r_j, r_j from `_phases`, with the symbol f_j = c_0 +
    sum_k [A_k cos(2 pi k r_j) + B_k sin(2 pi k r_j)] summed in ascending k
    into one (eps, theta) buffer, from `Potential._rotation_terms` and the
    cos, sin of 2 pi k r_j taken once per call; f_0 has `eval_theta`'s bits.
    A step writes t = E - f_j to a buffer and advances the stacked rows
    (a, b), (c, d) with one multiply and one subtract.  Every
    `_rescale_interval` steps the product is scaled by 2^-e, e the frexp
    exponent of its largest entry modulus, and e joins an integer exponent.
    Power-of-two scaling is exact, so the log-norm (exponent + frexp
    exponent) ln 2 + log(mantissa) at the ladder lengths and at n has the
    same bits whatever the interval, the energy batch or the ladder.

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
    # exact reduction mod 1 before the phases meet r_j
    thetas = np.fmod(np.asarray(thetas, dtype=np.float64), 1.0)
    shape = energies.shape + grid.shape + thetas.shape
    # each energy against every (eps, theta) entry of the symbol
    col = energies.reshape(energies.shape + (1,) * (grid.ndim + thetas.ndim))
    # at eps = 0 the product is real: real arithmetic, the same bits
    dtype = np.complex128 if np.any(grid) else np.float64
    every = _rescale_interval(potential, energies, grid)
    c0, terms = potential._rotation_terms(thetas, grid.reshape(-1).tolist())
    f = np.empty(grid.shape + thetas.shape, dtype)
    # f, A_k and B_k as flat reals (a real factor scales both parts of a
    # complex entry); parts (A_1, cos 2 pi r_j), (B_1, sin 2 pi r_j), ...
    flat = f.reshape(-1).view(np.float64)
    term = np.empty_like(flat)
    r = _phases(alpha, n)
    (first, cos), *parts = [
        (v.reshape(-1).view(np.float64), fn(TWO_PI * k * r).tolist())
        for k, a, b in terms for v, fn in ((a, np.cos), (b, np.sin))
    ] or [(np.zeros_like(flat), [0.0] * n)]  # no k > 0: f = c_0
    ab, cd = np.zeros((2,) + shape, dtype), np.zeros((2,) + shape, dtype)
    ab[0] = cd[1] = 1.0  # (a, b) = (1, 0), (c, d) = (0, 1)
    t, spare = np.empty(shape, dtype), np.empty_like(ab)
    exponent = np.zeros(shape, dtype=np.int64)
    snapshots = []
    for j in range(n):
        np.multiply(first, cos[j], out=flat)
        if c0:
            f += c0
        for v, w in parts:
            np.add(flat, np.multiply(v, w[j], out=term), out=flat)
        np.subtract(col, f, out=t)
        np.subtract(np.multiply(t, ab, out=spare), cd, out=spare)
        ab, cd, spare = spare, ab, cd
        hits = lengths.count(j + 1)
        if hits:
            snapshots += [_log_norm(exponent, _largest(ab, cd))] * hits
        if (j + 1) % every == 0:
            e = np.frexp(_largest(ab, cd))[1]
            scale = np.ldexp(1.0, -e)
            ab *= scale
            cd *= scale
            exponent += e
    m = _largest(ab, cd)
    acc = np.stack(snapshots) if lengths else _log_norm(exponent, m)
    if not return_matrices:
        return acc
    mats = np.moveaxis(np.stack([ab, cd]), (0, 1), (-2, -1))  # (..., 2, 2)
    return acc, mats / m[..., None, None]


# ----------------------------------------------------------------------
# Lyapunov averages
# ----------------------------------------------------------------------

def lyapunov_n(
    potential: Potential,
    alpha: float,
    E: Union[float, Sequence[float]],
    n: Union[int, Sequence[int]],
    eps: Union[float, Sequence[float]],
    K: int,
) -> np.ndarray:
    """L_n(E, eps): trapezoid average of (1/n) log||A_n|| over K phases.

    For a periodic integrand the equispaced trapezoid rule is just the grid
    mean; K should be a power of two so refinement nests.  `E` is a scalar
    or a 1-D array of energies, `n` a product length or an ascending
    ladder of them, `eps` a scalar or a 1-D grid.  Returns one array of
    shape (2,) + E.shape + n.shape + eps.shape: the estimates, then their
    standard errors (the sample std of the integrand / sqrt(K)).  The
    energies run in blocks of about `_BLOCK` batch elements, one
    `transfer_log_norms` call per block over the longest n with a snapshot
    at every ladder length; no estimate depends on the block it ran in.
    """
    ns = [int(m) for m in np.atleast_1d(n)]
    if not ns:
        raise ValueError("the n-ladder is empty")
    energies = np.asarray(E, dtype=np.float64)
    grid = np.asarray(eps, dtype=np.float64)
    thetas = np.arange(K, dtype=np.float64) / K
    flat = energies.reshape(-1)
    out = np.empty((2, len(ns), flat.size, grid.size))  # n, E swap at the end
    lengths = np.array(ns, dtype=np.float64).reshape(-1, 1, 1, 1)
    rows = max(1, _BLOCK // max(1, grid.size * K))
    for lo in range(0, flat.size, rows):
        block = flat[lo:lo + rows]
        logs = transfer_log_norms(potential, alpha, thetas, block, grid,
                                  ns[-1], ladder=ns)
        logs = logs.reshape(len(ns), len(block), grid.size, K)
        logs /= lengths
        out[0, :, lo:lo + rows] = np.mean(logs, axis=-1)
        out[1, :, lo:lo + rows] = np.std(logs, axis=-1) / math.sqrt(K)
        del logs  # free this block before the next one is computed
    return out.swapaxes(1, 2).reshape(
        (2,) + energies.shape + np.shape(n) + grid.shape)


# ----------------------------------------------------------------------
# acceleration and strata
# ----------------------------------------------------------------------

def line_fit(x, y) -> Tuple[float, float, float]:
    """Least-squares (slope, intercept, residual sum of squares) of y on x."""
    dx, dy = (np.asarray(v, dtype=float) - np.mean(v) for v in (x, y))
    if not np.dot(dx, dx) > 0.0:
        raise ValueError("line fit needs abscissae that spread")
    slope = float(np.dot(dx, dy) / np.dot(dx, dx))
    r = dy - slope * dx
    return slope, float(np.mean(y) - slope * np.mean(x)), float(np.dot(r, r))


class AccelerationEstimate(NamedTuple):
    """Slope of eps -> L(E, eps) over a window, in units of 2 pi.

    The limiting slope is an integer; `residual` is the distance of the
    fitted slope to the nearest integer and doubles as the detector for a
    slope break inside the window (quantization plateaus are affine)."""

    L_values: Tuple[float, ...]  # L(E, eps) on the ascending window
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
    n: int,
    K: int,
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
    out = []
    for L_vals in lyapunov_n(potential, alpha, np.reshape(E, -1), n,
                             eps_grid, K)[0].tolist():
        slope = line_fit(eps_grid, L_vals)[0] / TWO_PI
        kappa = int(round(slope))
        out.append(AccelerationEstimate(
            L_values=tuple(L_vals), raw_slope=slope, kappa=kappa,
            residual=abs(slope - kappa)))
    return tuple(out) if np.ndim(E) else out[0]


def classify_stratum(L0: float, kappa: int, non_affine: bool,
                     in_spectrum: bool) -> str:
    """The stratum label of an energy from the pair (L(E,0), kappa(E,0)).

    Acceleration l-1 puts E in the l-th stratum; the + / 0 superscript
    records whether L clears the positivity threshold TAU_POS.  Spectrum
    membership is decided elsewhere (finite-volume eigenvalue clusters) and
    passed in, since uniform hyperbolicity is not tested here.  The label is
    "S<l>+", "S<l>0", "subcritical", "off-spectrum" or "unclassified"."""
    if not in_spectrum:
        return "off-spectrum"
    if non_affine:
        return "unclassified"
    if kappa == 0:
        return "subcritical"
    return f"S{kappa + 1}+" if L0 > TAU_POS else f"S{kappa + 1}0"
