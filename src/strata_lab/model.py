"""Quasi-periodic model data: trigonometric potentials and irrational frequencies.

The operators studied here are discrete Schrodinger operators on the line
whose potential is a real trigonometric polynomial sampled along an
irrational rotation,

    (H phi)_j = phi_{j+1} + phi_{j-1} + f(theta + j*alpha) * phi_j.

This module holds the potential f and the default frequency alpha.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Sequence, Union

import numpy as np

TWO_PI = 2.0 * math.pi

# Golden rotation number, the default frequency for every experiment.
GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

_LOG_DBL_MAX = math.log(np.finfo(np.float64).max)


# ----------------------------------------------------------------------
# potential
# ----------------------------------------------------------------------

class Potential:
    """Real trigonometric polynomial f(theta) = sum_k c_k e^{2 pi i k theta}.

    Coefficients are a finite family {c_k : |k| <= k0}.  Real-valuedness on
    the circle forces c_{-k} = conj(c_k); the constructor rejects data that
    violates this beyond roundoff, a coefficient that is not finite and an
    index that is not an integer.  The Laurent form is entire, so the
    extension theta + i eps is served at every eps on which it fits a double
    (`_check_symbol_range`).  Instances are immutable.
    """

    _REALITY_TOL = 1e-12

    def __init__(self, coeffs: Mapping[int, complex]):
        if any(k != int(k) for k in coeffs):
            raise ValueError("frequency indices must be integers")
        items = sorted((int(k), complex(v)) for k, v in coeffs.items())
        ks = np.array([k for k, _ in items], dtype=np.int64)
        cs = np.array([v for _, v in items], dtype=np.complex128)
        if not np.all(np.isfinite(cs)):
            raise ValueError("coefficients must be finite")
        keep = np.abs(cs) > 0.0
        ks, cs = ks[keep], cs[keep]
        scale = float(np.max(np.abs(cs))) if len(cs) else 1.0
        # reality: c_{-k} must equal conj(c_k) for every index present
        lookup = dict(zip(ks.tolist(), cs.tolist()))
        for k, c in lookup.items():
            partner = lookup.get(-k, 0.0 + 0.0j)
            if abs(partner - c.conjugate()) > self._REALITY_TOL * scale:
                raise ValueError(
                    f"coefficients are not a real function: c_{-k} != conj(c_{k})"
                )
        self._ks = ks
        self._cs = cs
        self._terms = list(zip(ks.tolist(), cs.tolist()))
        self._k0 = int(np.max(np.abs(ks))) if len(ks) else 0

    # -- basic accessors ------------------------------------------------

    @property
    def k0(self) -> int:
        """Largest frequency present (degree of the trigonometric polynomial)."""
        return self._k0

    def coeffs_dict(self) -> Dict[int, complex]:
        return dict(self._terms)

    def laurent_coeffs(self) -> np.ndarray:
        """Dense coefficient vector for exponents -k0 .. k0 (ascending)."""
        out = np.zeros(2 * self._k0 + 1, dtype=np.complex128)
        out[self._ks + self._k0] = self._cs
        return out

    @property
    def is_even(self) -> bool:
        """True when f(-theta) = f(theta), i.e. c_k = c_{-k} for all k."""
        lookup = dict(self._terms)
        scale = max((abs(c) for c in lookup.values()), default=1.0)
        return all(
            abs(c - lookup.get(-k, 0.0 + 0.0j)) <= self._REALITY_TOL * scale
            for k, c in lookup.items()
        )

    def __repr__(self) -> str:
        terms = ", ".join(f"{k}: {c:.6g}" for k, c in self.coeffs_dict().items())
        return f"Potential({{{terms}}})"

    # -- evaluation -------------------------------------------------------

    def eval_theta(self, theta, eps: Union[float, Sequence[float]] = 0.0):
        """Evaluate f at the complexified phases theta + i*eps.

        `eps` is a scalar or a 1-D grid.  For a scalar the result has the
        shape of theta: real at eps == 0, otherwise the complex value of the
        analytic extension.  For a grid it is an array of shape
        (len(eps),) + theta.shape, one row per entry: float64 when every
        entry is 0, otherwise complex with zero imaginary part in the
        eps == 0 rows; a scalar is the one-row grid.

        Every row uses the real form of the extension: with c_{-k} =
        conj(c_k) and w_k = c_k e^{2 pi i k theta} for k > 0, f(theta + i eps)
        = c_0 + sum_k A_k (k ascending), A_k = 2 cosh(2 pi k eps) Re w_k
        - 2i sinh(2 pi k eps) Im w_k, so all rows share one cos and sin of
        2 pi k theta per k.  At eps == 0, 2 cosh(0) = 2.0 exactly and the
        value is the cosine form c_0 + sum_k 2 Re w_k, bit for bit.  The A_k
        come from `_rotation_terms`, which also serves the strip kernel.  A
        grid on which the symbol overflows a double is refused.
        """
        theta = np.asarray(theta, dtype=np.float64)
        grid = np.asarray(eps, dtype=np.float64)
        if grid.ndim > 1:
            raise ValueError("eps must be a scalar or a 1-D grid")
        rows = grid.reshape(-1).tolist()
        self._check_symbol_range(float(np.max(np.abs(grid), initial=0.0)))
        real = not any(rows)
        c0, terms = self._rotation_terms(theta, rows)
        out = sum((a for _, a, _ in terms),
                  np.full((len(rows),) + theta.shape, c0 if real else c0 + 0j))
        if grid.ndim or theta.ndim:
            return out if grid.ndim else out[0]
        return float(out[0]) if real else complex(out[0])

    def _check_symbol_range(self, width: float) -> float:
        """log sum_k |c_k| e^{2 pi |k| width}, the log of a bound on |f(theta +
        i eps)| for |eps| <= width.  A width at which it reaches the largest
        double is refused: the symbol, and the transfer products, would
        overflow there.  So would the factor 2 cosh(2 pi k0 width) of
        `eval_theta`, however small c_k0.  So is a width that is not finite."""
        if not math.isfinite(width):
            raise ValueError(f"eps must be finite, got |eps| = {width}")
        logs = [math.log(abs(c)) + TWO_PI * abs(k) * width
                for k, c in self._terms]
        log_bound = float(np.logaddexp.reduce(logs)) if logs else -math.inf
        log_cosh = TWO_PI * self._k0 * width
        if max(log_bound, log_cosh) >= _LOG_DBL_MAX:
            raise ValueError(
                f"the potential overflows a double on the strip |eps| <= "
                f"{width:g}: log sum_k |c_k| e^(2 pi |k| |eps|) = "
                f"{log_bound:.6g}, 2 pi k0 |eps| = {log_cosh:.6g}, "
                f"ln(DBL_MAX) = {_LOG_DBL_MAX:.6g}")
        return log_bound

    def _rotation_terms(self, theta: np.ndarray, rows: Sequence[float]):
        """c_0 and (k, A_k, B_k) per k > 0 ascending: f(theta + r + i eps) =
        c_0 + sum_k [A_k cos(2 pi k r) + B_k sin(2 pi k r)] for real r, with
        A_k = ch Re w_k - i sh Im w_k, B_k = -ch Im w_k - i sh Re w_k, w_k =
        c_k e^{2 pi i k theta} and ch, sh = 2 cosh, 2 sinh(2 pi k eps).
        Shape (len(rows),) + theta.shape; float64 when every row is 0."""
        col = (len(rows),) + (1,) * theta.ndim
        terms = []
        for k, c in ((k, c) for k, c in self._terms if k > 0):
            co, si = np.cos(TWO_PI * k * theta), np.sin(TWO_PI * k * theta)
            re, im = c.real * co - c.imag * si, c.real * si + c.imag * co
            ch, sh = (np.reshape([2.0 * fn(TWO_PI * k * e) for e in rows], col)
                      for fn in (math.cosh, math.sinh))
            a, b = ch * re, -(ch * im)
            if any(rows):
                a, b = a.astype(np.complex128), b.astype(np.complex128)
                a.imag, b.imag = -(sh * im), -(sh * re)
            terms.append((k, a, b))
        return sum((c.real for k, c in self._terms if k == 0), 0.0), terms

    # -- constructors -----------------------------------------------------

    @classmethod
    def amo(cls, coupling: float) -> "Potential":
        """Almost Mathieu potential f(theta) = 2*coupling*cos(2 pi theta)."""
        lam = float(coupling)
        return cls({1: lam, -1: lam})

    @classmethod
    def zero(cls) -> "Potential":
        """Free potential f = 0 (the discrete Laplacian)."""
        return cls({})

    @classmethod
    def from_preset(cls, text: str) -> "Potential":
        """Parse preset strings:  "zero"  or  "amo(<coupling>)"."""
        s = text.strip().lower()
        if s == "zero":
            return cls.zero()
        if s.startswith("amo(") and s.endswith(")"):
            return cls.amo(float(s[4:-1]))
        raise ValueError(f"unknown potential preset {text!r}")
