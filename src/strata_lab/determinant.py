"""Finite-volume Dirichlet determinants as scaled Laurent polynomials.

For the operator with potential f and frequency alpha, the determinant of
(E - H) restricted to a box of n sites with Dirichlet ends is, as a function
of the phase variable z = e^{2 pi i theta}, a Laurent polynomial with
exponents in [-k0*n, k0*n].  It obeys the transfer recurrence

    D_j(z) = (E - f(z e^{2 pi i (j-1) alpha})) D_{j-1}(z) - D_{j-2}(z)

with D_0 = 1, D_{-1} = 0.  Coefficients grow like e^{n L}, far beyond double
range, so every polynomial carries a separate log-scale factor and is
renormalized after each step.  All downstream potential theory (zero
inventories, Riesz masses, deviation sets) is driven by this representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .cocycle import transfer_log_norms
from .model import TWO_PI, Potential

# refuse polynomials beyond this many one-sided exponents
DEFAULT_DEGREE_CAP = 4096


class DegreeCapError(ValueError):
    """Polynomial degree k0*n would exceed DEFAULT_DEGREE_CAP."""


# ----------------------------------------------------------------------
# scaled Laurent polynomials
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScaledLaurentPoly:
    """A Laurent polynomial e^{log_scale} * sum_k coeffs[k-lo] z^k.

    `coeffs` is a dense ascending complex vector for exponents lo..hi.  The
    stored coefficients are kept normalized with max modulus in [0.5, 2];
    the true magnitude lives in `log_scale`, so polynomials whose values
    overflow doubles by hundreds of orders remain representable.
    """

    lo: int                # lowest exponent stored
    coeffs: np.ndarray     # ascending dense coefficients, complex128
    log_scale: float       # log of the scalar factor pulled out

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    @classmethod
    def make(cls, lo: int, coeffs, log_scale: float = 0.0) -> "ScaledLaurentPoly":
        """Normalize so max|coeffs| = 1 and absorb the factor into log_scale."""
        c = np.asarray(coeffs, dtype=np.complex128).copy()
        if len(c) == 0:
            c = np.zeros(1, dtype=np.complex128)
        m = float(np.max(np.abs(c)))
        if m == 0.0:
            return cls(lo=int(lo), coeffs=np.zeros(1, dtype=np.complex128),
                       log_scale=-math.inf)
        c /= m
        c.setflags(write=False)
        return cls(lo=int(lo), coeffs=c, log_scale=float(log_scale) + math.log(m))

    @classmethod
    def constant(cls, value: complex) -> "ScaledLaurentPoly":
        return cls.make(0, [value])

    @property
    def is_zero(self) -> bool:
        return not np.isfinite(self.log_scale)

    def trimmed(self) -> "ScaledLaurentPoly":
        """Drop exactly-zero (or subnormal) leading and trailing coefficients."""
        mags = np.abs(self.coeffs)
        nz = np.nonzero(mags > 1e-300)[0]
        if len(nz) == 0:
            return ScaledLaurentPoly.make(0, [0.0])
        a, b = int(nz[0]), int(nz[-1])
        return ScaledLaurentPoly(lo=self.lo + a,
                                 coeffs=self.coeffs[a:b + 1],
                                 log_scale=self.log_scale)

    # -- evaluation ------------------------------------------------------

    def _log_unit_coeffs(self) -> Tuple[np.ndarray, np.ndarray]:
        """(log|c_k|, c_k/|c_k|), with -inf and 0 for zero coefficients."""
        mag = np.abs(self.coeffs)
        safe = np.maximum(mag, 1e-300)
        return (np.where(mag > 0, np.log(safe), -np.inf),
                np.where(mag > 0, self.coeffs / safe, 0.0))

    def eval_log(self, z):
        """Evaluate at complex z (scalar or 1d array), in log form.

        Returns (log_abs, unit) with value = e^{log_abs} * unit.  The sum is
        taken after rescaling every term by the largest term magnitude, so no
        intermediate overflows regardless of |z|^k range.  Exact zeros of the
        polynomial give log_abs = -inf.
        """
        scalar_in = np.ndim(z) == 0
        zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        if np.any(zs == 0):
            raise ValueError("Laurent polynomial evaluation requires z != 0")
        ks = np.arange(self.lo, self.hi + 1, dtype=np.float64)
        logc, unitc = self._log_unit_coeffs()
        log_abs = np.empty(len(zs), dtype=np.float64)
        unit = np.empty(len(zs), dtype=np.complex128)
        step = max(1, (1 << 22) // (len(ks) + 1))
        for a in range(0, len(zs), step):
            zc = zs[a:a + step]
            t = np.log(np.abs(zc))
            ang = np.angle(zc)
            # per-point largest term exponent; subtract before summation
            expo = t[:, None] * ks[None, :] + logc[None, :]
            S = np.max(expo, axis=1)
            phase = np.exp(1j * ang[:, None] * ks[None, :])
            vals = np.sum(np.exp(expo - S[:, None]) * unitc[None, :] * phase, axis=1)
            mag = np.abs(vals)
            log_abs[a:a + step] = np.where(
                mag > 0, S + np.log(np.maximum(mag, 1e-300)), -np.inf) + self.log_scale
            unit[a:a + step] = np.where(mag > 0, vals / np.maximum(mag, 1e-300), 0.0)
        if scalar_in:
            return float(log_abs[0]), complex(unit[0])
        return log_abs, unit

    def eval_circle_log(self, radius: float, m: int) -> np.ndarray:
        """log|value| at the m-point uniform grid z = radius*e^{2 pi i j/m}.

        Coefficients with exponents congruent mod m fold together, so the
        whole grid costs one FFT.  Returns log_abs array of length m.
        """
        ks = np.arange(self.lo, self.hi + 1, dtype=np.float64)
        logc, unitc = self._log_unit_coeffs()
        expo = ks * math.log(radius) + logc
        S = float(np.max(expo))
        scaled = np.exp(expo - S) * unitc
        folded = np.zeros(m, dtype=np.complex128)
        idx = np.mod(np.arange(self.lo, self.hi + 1), m)
        np.add.at(folded, idx, scaled)
        vals = m * np.fft.ifft(folded)
        mag = np.abs(vals)
        out = np.where(mag > 0,
                       S + self.log_scale + np.log(np.maximum(mag, 1e-300)),
                       -np.inf)
        return out

    def shifted_phases(self, phases: np.ndarray) -> "ScaledLaurentPoly":
        """Multiply coefficient of z^k by phases[k-lo] (used for recentering)."""
        return ScaledLaurentPoly(lo=self.lo,
                                 coeffs=self.coeffs * phases,
                                 log_scale=self.log_scale)


# ----------------------------------------------------------------------
# determinant family
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeterminantFamily:
    """Dirichlet determinant of an n-site box, in phase-polynomial form.

    `poly` is D_n as a ScaledLaurentPoly in z = e^{2 pi i theta}.
    `centered` marks the rotated variable in which the coefficient sequence
    of an even potential is palindromic.
    """

    potential: Potential
    alpha: float
    E: float
    n: int
    poly: ScaledLaurentPoly
    centered: bool = False

    def log_abs_per_site(self, z):
        """(1/n) log|D_n(z)|: the per-site log magnitude of the determinant."""
        log_abs, _ = self.poly.eval_log(z)
        return log_abs / self.n

    def log_abs_per_site_circle(self, radius: float, m: int) -> np.ndarray:
        return self.poly.eval_circle_log(radius, m) / self.n

    def inversive_defect(self) -> float:
        """Max relative violation of coeff[k] = conj(coeff[-k]).

        Determinants of self-adjoint boxes at real energy satisfy
        D(1/conj(z)) = conj(D(z)); on coefficients this is the self-inversive
        relation above, preserved by recentering.
        """
        c = self.poly.coeffs
        if self.poly.lo != -self.poly.hi:
            raise ValueError("coefficient support is not symmetric")
        defect = np.max(np.abs(c - np.conj(c[::-1])))
        return float(defect / np.max(np.abs(c)))

    def palindrome_defect(self) -> float:
        """Max relative violation of coeff[k] = coeff[-k] (centered, even f)."""
        if not self.centered:
            raise ValueError("palindrome symmetry only holds in centered form")
        c = self.poly.coeffs
        return float(np.max(np.abs(c - c[::-1])) / np.max(np.abs(c)))


def det_family(
    potential: Potential,
    alpha: float,
    E: float,
    n: int,
) -> DeterminantFamily:
    """Run the three-term recurrence and return D_n in polynomial form.

    Each step multiplies by the degree-k0 symbol of (E - f) at the shifted
    phase and subtracts the second predecessor; coefficients are renormalized
    every step with the magnitude tracked in log_scale.
    """
    if n < 1:
        raise ValueError("box length n must be >= 1")
    k0 = potential.k0
    if k0 * n > DEFAULT_DEGREE_CAP:
        raise DegreeCapError(f"polynomial half-degree k0*n = {k0 * n} "
                             f"exceeds cap {DEFAULT_DEGREE_CAP}")

    base = potential.laurent_coeffs()          # exponents -k0..k0
    ks = np.arange(-k0, k0 + 1, dtype=np.float64)

    prev2 = ScaledLaurentPoly(lo=0, coeffs=np.zeros(1, dtype=np.complex128),
                              log_scale=-math.inf)  # D_{-1}
    prev = ScaledLaurentPoly.constant(1.0)     # D_0

    for j in range(1, n + 1):
        # symbol of E - f at phase shift (j-1)*alpha
        twist = np.exp(1j * TWO_PI * ks * ((j - 1) * alpha))
        mult = -base * twist
        mult[k0] += E
        new = np.convolve(mult, prev.coeffs)
        lo_new = prev.lo - k0
        if not prev2.is_zero:
            off = prev2.lo - lo_new
            fac = math.exp(min(prev2.log_scale - prev.log_scale, 700.0))
            new[off:off + len(prev2.coeffs)] -= fac * prev2.coeffs
        cur = ScaledLaurentPoly.make(lo_new, new, prev.log_scale)
        prev2, prev = prev, cur

    return DeterminantFamily(
        potential=potential, alpha=alpha, E=float(E), n=n, poly=prev,
        centered=False)


def center_family(fam: DeterminantFamily) -> DeterminantFamily:
    """Rotate to the symmetric variable z' = z e^{pi i (n-1) alpha}.

    For even potentials the recentered coefficient sequence is palindromic
    (the zero set is symmetric under w -> 1/w).  Requires an even potential;
    for n = 1 the rotation is trivial.
    """
    if not fam.potential.is_even:
        raise ValueError("recentering requires an even potential")
    poly = fam.poly
    ks = np.arange(poly.lo, poly.hi + 1, dtype=np.float64)
    phases = np.exp(-1j * math.pi * ks * ((fam.n - 1) * fam.alpha))
    return DeterminantFamily(
        potential=fam.potential, alpha=fam.alpha, E=fam.E, n=fam.n,
        poly=poly.shifted_phases(phases), centered=True)


def det_at_phase(potential: Potential, alpha: float, theta, E, n: int):
    """D_n at real phases, read off the strip kernel.

    D_n(theta) is the (1,1) entry of the transfer product A_n(theta), so it
    is log|a| plus the log-norm that `transfer_log_norms` divided out, with
    the sign of a.  `theta` and `E` may each be a scalar or a 1-D array;
    the results have shape E.shape + theta.shape, and floats when both are
    scalars.  Returns (log_abs, sign) with D_n = sign * e^{log_abs}; sign = 0
    flags an exact zero hit.
    """
    logs, mats = transfer_log_norms(potential, alpha, theta, E, 0.0, n,
                                    return_matrices=True)
    a = mats[..., 0, 0]
    with np.errstate(divide="ignore"):
        log_abs = logs + np.log(np.abs(a))
    sign = np.sign(a)
    if np.ndim(log_abs) == 0:
        return float(log_abs), float(sign)
    return log_abs, sign
