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
    refused to keep downstream error budgets honest.

    Instances are immutable; all mutators return new objects.
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

    def _laurent(self, z: np.ndarray) -> np.ndarray:
        """sum_k c_k z^k, term by term in ascending k, with no annulus check."""
        out = np.zeros(z.shape, dtype=z.dtype)
        for k, c in self._terms:
            # z ** 1 runs numpy's general complex power; z is the same bits
            out = out + c * (z if k == 1 else z ** k)
        return out

    def eval_z(self, z):
        """Evaluate the Laurent form sum_k c_k z^k at complex z (scalar or array).

        z must lie in the closed annulus e^{-2 pi eta} <= |z| <= e^{2 pi eta}.
        """
        z = np.asarray(z, dtype=np.complex128)
        r = np.abs(z)
        lim = math.exp(TWO_PI * self._eta)
        if np.any(r > lim * (1 + 1e-9)) or np.any(r < (1 - 1e-9) / lim):
            raise ValueError("evaluation point outside the declared annulus")
        out = self._laurent(z)
        return out if out.ndim else complex(out)

    def eval_theta(self, theta, eps: Union[float, Sequence[float]] = 0.0):
        """Evaluate f at the complexified phases theta + i*eps.

        `eps` is a scalar or a 1-D grid.  For a scalar the result has the
        shape of theta: real at eps == 0 (the c_k, c_{-k} pairs collapse to
        a cosine form; the imaginary roundoff is discarded), otherwise the
        complex value of the analytic extension.  For a grid it is an array
        of shape (len(eps),) + theta.shape, one row per entry: float64 when
        every entry is 0, otherwise complex with zero imaginary part in the
        eps == 0 rows; a scalar is the one-row grid.

        All rows share one evaluation of cos and sin of 2 pi theta.  A row
        with eps != 0 sums the Laurent form at z = e^{-2 pi eps} (cos, sin),
        which is e^{2 pi i (theta + i eps)} as the C library's complex exp
        rounds it, bit for bit.
        """
        theta = np.asarray(theta, dtype=np.float64)
        grid = np.asarray(eps, dtype=np.float64)
        if grid.ndim > 1:
            raise ValueError("eps must be a scalar or a 1-D grid")
        rows = grid.reshape(-1).tolist()
        if any(abs(e) > self._eta * (1 + 1e-12) for e in rows):
            raise ValueError("phase imaginary part exceeds the declared strip")
        ang = TWO_PI * theta
        cos1, sin1 = np.cos(ang), np.sin(ang)
        real = [e == 0.0 for e in rows]
        shape = (len(rows),) + theta.shape
        if all(real):
            out = np.empty(shape, dtype=np.float64)
        else:
            # the eps == 0 rows (scale 1) are overwritten below
            scale = np.array([math.exp(-TWO_PI * e) for e in rows])
            scale = scale.reshape(scale.shape + (1,) * theta.ndim)
            z = np.empty(shape, dtype=np.complex128)
            z.real = scale * cos1
            z.imag = scale * sin1
            out = self._laurent(z)
        if any(real):
            f0 = self._cosine_form(theta, cos1, sin1)
            out[real] = f0
        if grid.ndim:
            return out
        if real[0]:
            return f0 if theta.ndim else float(f0)
        return out[0] if theta.ndim else complex(out[0])

    def _cosine_form(self, theta, cos1, sin1) -> np.ndarray:
        """f on the real circle, from the k >= 0 terms; cos1, sin1 at k = 1."""
        out = np.zeros(theta.shape, dtype=np.float64)
        for k, c in self._terms:
            if k < 0:
                continue
            if k == 0:
                out = out + c.real
                continue
            if k == 1:
                co, si = cos1, sin1
            else:
                ang = TWO_PI * k * theta
                co, si = np.cos(ang), np.sin(ang)
            # c_k e^{ik.} + conj pair collapse to a real cosine form
            out = out + 2.0 * (c.real * co - c.imag * si)
        return out

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
