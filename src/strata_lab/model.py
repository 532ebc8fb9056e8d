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


# ----------------------------------------------------------------------
# potential
# ----------------------------------------------------------------------

class Potential:
    """Real trigonometric polynomial f(theta) = sum_k c_k e^{2 pi i k theta}.

    Coefficients are a finite family {c_k : |k| <= k0}.  Real-valuedness on
    the circle forces c_{-k} = conj(c_k); the constructor rejects data that
    violates this beyond roundoff.  `eta` is the half-width (in the variable
    theta) of the horizontal strip the analytic extension will be evaluated
    on; the Laurent form converges everywhere, so `eta` is a declared working
    band rather than a convergence radius, and evaluation outside it is
    refused to keep downstream error budgets honest.  Instances are immutable.
    """

    _REALITY_TOL = 1e-12

    def __init__(self, coeffs: Mapping[int, complex], eta: float = 0.5):
        if not eta > 0.0:
            raise ValueError(f"strip half-width eta must be positive, got {eta}")
        items = sorted((int(k), complex(v)) for k, v in coeffs.items())
        ks = np.array([k for k, _ in items], dtype=np.int64)
        cs = np.array([v for _, v in items], dtype=np.complex128)
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
        self._eta = float(eta)
        self._k0 = int(np.max(np.abs(ks))) if len(ks) else 0

    # -- basic accessors ------------------------------------------------

    @property
    def eta(self) -> float:
        return self._eta

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
        return f"Potential({{{terms}}}, eta={self._eta})"

    # -- evaluation -------------------------------------------------------

    def eval_theta(self, theta, eps: Union[float, Sequence[float]] = 0.0):
        """Evaluate f at the complexified phases theta + i*eps.

        `eps` is a scalar or a 1-D grid.  For a scalar the result has the
        shape of theta: real at eps == 0, otherwise the complex value of the
        analytic extension.  For a grid it is an array of shape
        (len(eps),) + theta.shape, one row per entry: float64 when every
        entry is 0, otherwise complex with zero imaginary part in the
        eps == 0 rows; a scalar is the one-row grid.

        Every row uses the real form of the extension.  With c_{-k} =
        conj(c_k) and p_k + i q_k = c_k e^{2 pi i k theta} for k > 0,

            f(theta + i eps) = c_0 + sum_k [2 cosh(2 pi k eps) p_k
                                            - 2i sinh(2 pi k eps) q_k],

        so all rows share one cos and sin of 2 pi k theta per k, and no
        complex power is taken.  At eps == 0, 2 cosh(0) = 2.0 exactly and
        the real part is the cosine form c_0 + sum_k 2 p_k, bit for bit.
        """
        theta = np.asarray(theta, dtype=np.float64)
        grid = np.asarray(eps, dtype=np.float64)
        if grid.ndim > 1:
            raise ValueError("eps must be a scalar or a 1-D grid")
        rows = grid.reshape(-1).tolist()
        if any(abs(e) > self._eta * (1 + 1e-12) for e in rows):
            raise ValueError("phase imaginary part exceeds the declared strip")
        real = not any(rows)
        out = np.zeros((len(rows),) + theta.shape,
                       dtype=np.float64 if real else np.complex128)
        re = out.real
        col = (len(rows),) + (1,) * theta.ndim  # per-row factors
        for k, c in self._terms:
            if k < 0:
                continue
            if k == 0:
                re += c.real
                continue
            ang = TWO_PI * k * theta
            co, si = np.cos(ang), np.sin(ang)
            s = [TWO_PI * k * e for e in rows]
            cosh2 = np.reshape([2.0 * math.cosh(x) for x in s], col)
            re += cosh2 * (c.real * co - c.imag * si)
            if not real:
                sinh2 = np.reshape([2.0 * math.sinh(x) for x in s], col)
                out.imag -= sinh2 * (c.real * si + c.imag * co)
        if grid.ndim or theta.ndim:
            return out if grid.ndim else out[0]
        return float(out[0]) if real else complex(out[0])

    # -- constructors / serialization --------------------------------------

    @classmethod
    def amo(cls, coupling: float, eta: float = 0.5) -> "Potential":
        """Almost Mathieu potential f(theta) = 2*coupling*cos(2 pi theta)."""
        lam = float(coupling)
        return cls({1: lam, -1: lam}, eta=eta)

    @classmethod
    def zero(cls, eta: float = 0.5) -> "Potential":
        """Free potential f = 0 (the discrete Laplacian)."""
        return cls({}, eta=eta)

    def to_dict(self) -> dict:
        return {
            "coeffs": [[int(k), c.real, c.imag] for k, c in self.coeffs_dict().items()],
            "eta": self._eta,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Potential":
        coeffs = {int(k): complex(re, im) for k, re, im in data["coeffs"]}
        return cls(coeffs, eta=float(data.get("eta", 0.5)))

    @classmethod
    def from_preset(cls, text: str, eta: float = 0.5) -> "Potential":
        """Parse preset strings:  "zero"  or  "amo(<coupling>)"."""
        s = text.strip().lower()
        if s == "zero":
            return cls.zero(eta=eta)
        if s.startswith("amo(") and s.endswith(")"):
            return cls.amo(float(s[4:-1]), eta=eta)
        raise ValueError(f"unknown potential preset {text!r}")
