"""Output checks for one CLI call: certificates read back from the CSVs.

Each check returns (name, passed, detail).  The benchmark counts the failed
ones as `check_failures`; byte identity across runs is checked separately,
from the file digests.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from collections import defaultdict
from typing import Dict, List, Tuple

Check = Tuple[str, bool, str]

# the c5/c6 acceptance bounds for riesz.csv
RIESZ_BOUNDS = {"boundary_max_dev": 1e-8, "mean_value_max_resid": 1e-5,
                "jensen_residual": 1e-6}
EXPANSION_BOUND = 1e-8          # c11
PAIR_TOL = 1e-6                 # |w' - 1/conj(w)| / |1/w|, at 12 printed digits
LYAPUNOV_TOL = 1e-6             # allowed drop of L(eps) between grid points


def _rows(path: str) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _riesz(rows) -> List[Check]:
    out = []
    for r in rows:
        for col, bound in RIESZ_BOUNDS.items():
            v = float(r[col])
            out.append((f"riesz[E={r['E']}].{col}", v <= bound,
                        f"{v:.3g} <= {bound:g}"))
    return out


def _zeros(rows) -> List[Check]:
    """Every root off the unit circle has an inversive partner 1/conj(w)."""
    blocks = defaultdict(list)
    for r in rows:
        blocks[(r["E"], r["n"])].append(r)
    out = []
    for (E, n), block in blocks.items():
        roots = [complex(float(r["re"]), float(r["im"])) for r in block]
        bad = 0
        for r, w in zip(block, roots):
            if r["on_circle"] == "1":
                continue
            j = int(r["pair_inversive"])
            if not (0 <= j < len(roots)
                    and abs(roots[j] - 1.0 / w.conjugate()) <= PAIR_TOL / abs(w)):
                bad += 1
        out.append((f"zeros[E={E},n={n}].inversive_pairs", bad == 0,
                    f"{bad} of {len(roots)} roots unpaired"))
    return out


def _localize(rows) -> List[Check]:
    out = []
    for r in rows:
        v = float(r["expansion_residual"])
        if math.isfinite(v):
            out.append((f"localize[index={r['index']}].expansion_residual",
                        v <= EXPANSION_BOUND, f"{v:.3g} <= {EXPANSION_BOUND:g}"))
    return out


def _lyapunov(rows) -> List[Check]:
    """L(E, eps) is even and convex in eps, so non-decreasing for eps >= 0."""
    curves = defaultdict(list)
    for r in rows:
        curves[(r["E"], r["n"])].append((float(r["eps"]), float(r["L"])))
    out = []
    for (E, n), pts in curves.items():
        pts.sort()
        drop = max((a[1] - b[1] for a, b in zip(pts, pts[1:])), default=0.0)
        out.append((f"lyapunov[E={E},n={n}].monotone_in_eps",
                    drop <= LYAPUNOV_TOL, f"largest drop {drop:.3g}"))
    return out


CERTIFICATES = {"riesz.csv": _riesz, "zeros.csv": _zeros,
                "localize_summary.csv": _localize, "lyapunov.csv": _lyapunov}


def certificates(out_dir: str) -> List[Check]:
    """Certificate checks on every known CSV present in out_dir."""
    checks = []
    for name, check in CERTIFICATES.items():
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            try:
                checks.extend(check(_rows(path)))
            except (KeyError, ValueError) as exc:
                checks.append((f"{name}.readable", False, repr(exc)))
    return checks


def digests(out_dir: str) -> Dict[str, str]:
    """sha256 of every output file except the manifest, which holds times."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name != "manifest.json":
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out
