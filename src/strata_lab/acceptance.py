"""End-to-end acceptance suite: twelve numbered checks with pinned tolerances.

Each criterion is a self-contained function with hard-coded fixtures, so a
run is reproducible without any config.  A gate that a subcommand computes
reads the rows that subcommand's task writes (`_rows`); c8, c10, c12 and
the free-potential halves of c6 and c11 call the library directly.  The
test suite runs one criterion per test; the CLI `all` subcommand plans one
task per criterion through the same task runner as the other subcommands.
A record stores the pass flag plus a one-line observation: one row of
acceptance.csv.
"""

from __future__ import annotations

import functools
import math
import os
import tempfile
from typing import Callable, List, NamedTuple, Tuple

import numpy as np

from .model import GOLDEN_MEAN, Potential
from .cocycle import line_fit, lyapunov_n
from .determinant import det_family
from .spectral_localization import (
    dirichlet_eigenvalues,
    expansion_identity_check,
    holder_exponent,
)
from .zeros_potential import find_zeros, jensen_identity_residual
from . import cli_harness

_AMO2 = Potential.amo(2.0)
_ALPHA = GOLDEN_MEAN
_LOG2 = math.log(2.0)


class AcceptanceRecord(NamedTuple):
    criterion: int
    name: str
    passed: bool
    observed: str


def _rows(subcommand: str, table: str, raw: dict, **params) -> List[dict]:
    """The rows of `table` that `subcommand`'s task writes for `raw`."""
    cfg = cli_harness.ExperimentConfig.from_raw(raw)
    return cli_harness._REGISTRY[subcommand].task(cfg, **params)[
        "tables"][table]


def _c1_acceleration_integrality() -> Tuple[bool, str]:
    """Fitted strip slopes sit on the integer 1 across a box spectrum."""
    evs = dirichlet_eigenvalues(_AMO2, _ALPHA, 0.0, 50, range(50))
    rows = _rows("acceleration", "acceleration.csv",
                 {"energies": evs.tolist(), "n": 512, "quadrature": {"K": 256},
                  "eps_grid": np.linspace(0.02, 0.10, 5).tolist()})
    devs = [abs(r["raw_slope"] - 1.0) for r in rows]
    med, mx = float(np.median(devs)), float(np.max(devs))
    return (med <= 0.05 and mx <= 0.25,
            f"median |slope-1| = {med:.2e}, max = {mx:.2e} over 50 energies")


def _c2_zero_count_characterization() -> Tuple[bool, str]:
    """Per-site annulus zero counts converge to 2*kappa along an n-ladder."""
    rows = _rows("verify-acc-zeros", "verify_acc_zeros.csv", {}, E=0.5)
    dev = [r["deviation"] for r in rows]
    monotone = all(b <= a + 1e-9 for a, b in zip(dev, dev[1:]))
    ratio_400 = rows[-1]["ratio_per_2n"]
    ok = dev[0] <= 0.15 and monotone and abs(ratio_400 - 1.0) <= 0.08
    return (ok, f"kappa = {rows[0]['kappa']}, deviations = "
                + "/".join(f"{d:.3g}" for d in dev)
                + f", N/(2n) at n=400: {ratio_400:.4f}")


def _c3_zero_symmetries() -> Tuple[bool, str]:
    """Inversive pairing off the circle, reflection pairing of even f."""
    rng = np.random.default_rng(3)
    off_total = off_paired = refl_total = refl_paired = 0
    for _ in range(10):
        E = float(rng.uniform(-6.5, 6.5))
        n = int(rng.integers(50, 401))
        rows = _rows("zeros", "zeros.csv", {}, E=E, n=n)
        off = [r for r in rows if not r["on_circle"]]
        off_total += len(off)
        off_paired += sum(r["pair_inversive"] >= 0 for r in off)
        refl_total += len(rows)
        refl_paired += sum(r["pair_reflection"] >= 0 for r in rows)
    ok = off_paired == off_total and refl_paired == refl_total
    return (ok, f"inversive {off_paired}/{off_total} off-circle roots, "
                f"reflection {refl_paired}/{refl_total} roots")


def _c4_green_suite() -> Tuple[bool, str]:
    """Boundary vanishing, symmetry, and circle averages of the annulus kernel."""
    rows = _rows("green", "green_suite.csv", {}, seed=4)
    ok = all(r["passed"] for r in rows)
    detail = ", ".join(f"{r['check']} {r['max_abs_err']:.2e}" for r in rows)
    return ok, detail


@functools.cache  # c5 and c7 read one row: computed once a process
def _riesz_400() -> dict:
    return _rows("riesz", "riesz.csv", {"n": 400}, E=0.5)[0]


def _c5_riesz_decomposition() -> Tuple[bool, str]:
    """Green potential plus harmonic part rebuilds u_n with a flat remainder."""
    r = _riesz_400()
    h_dev = max(abs(r["h_min"] - r["L_ref"]), abs(r["h_max"] - r["L_ref"]))
    ok = (r["boundary_max_dev"] <= 1e-8
          and r["mean_value_max_resid"] <= 1e-5
          and h_dev <= 0.05)
    return (ok, f"boundary {r['boundary_max_dev']:.2e}, "
                f"mean-value {r['mean_value_max_resid']:.2e}, "
                f"|h - L| <= {h_dev:.4f}")


def _c6_jensen_identity() -> Tuple[bool, str]:
    """Jensen's formula: circle means of log|D_n| step with the zero count."""
    r, = _rows("riesz", "riesz.csv", {"n": 200}, E=0.5)
    res_amo = r["jensen_residual"]
    fam0 = det_family(Potential.zero(), _ALPHA, 0.5, 200)
    radii = [math.exp(2.0 * math.pi * w) for w in cli_harness._JENSEN_RADII]
    res_free = jensen_identity_residual(fam0, find_zeros(fam0), *radii, K=4096)
    ok = res_amo <= 1e-6 and res_free <= 1e-15
    return ok, f"residual {res_amo:.2e} (AMO), {res_free:.2e} (free)"


def _c7_riesz_mass() -> Tuple[bool, str]:
    """Annulus Riesz mass doubles the acceleration and matches the count."""
    r = _riesz_400()
    ok = (abs(r["mass_v"] - 2.0) <= 0.2
          and abs(r["mass_u"] - r["count_ratio"]) <= 0.05)
    return (ok, f"mass_v = {r['mass_v']:.4f}, mass_u = {r['mass_u']:.4f}, "
                f"count/n = {r['count_ratio']:.4f}")


def _c8_ids_holder() -> Tuple[bool, str]:
    """IDS increments fit a positive Hoelder exponent inside the spectrum."""
    candidates = dirichlet_eigenvalues(_AMO2, _ALPHA, 0.123, 100,
                                       range(44, 56))
    fits = holder_exponent(_AMO2, _ALPHA, np.append(candidates, 1.5), 4000)[0]
    betas = [b for b in fits[:-1] if not math.isnan(b)][:3]  # NaN: a gap
    in_gap = math.isnan(fits[-1])
    ok = len(betas) == 3 and all(b >= 0.40 for b in betas) and in_gap
    return (ok, "beta = " + "/".join(f"{b:.3f}" for b in betas)
                + f", gap energy in_gap = {in_gap}")


def _c9_localization_diagnostics() -> Tuple[bool, str]:
    """Eigenfunction decay at the Lyapunov rate, sparse deviation arcs,
    and a clean double-resonance scan."""
    rates = [r["decay_rate"]
             for r in _rows("localize", "localize_summary.csv", {})]
    med = float(np.median(rates))
    decay_ok = abs(med - _LOG2) <= 0.02 * _LOG2

    def ldt(threshold: float, table: str, scans: int) -> List[dict]:
        return _rows("ldt", table, {"n": 100, "ldt": {
            "threshold": threshold, "grid_per_n": 8192, "scan_count": scans}},
            E=0.5, seed=11, geom_name="")

    count = len(ldt(0.05, "ldt_arcs.csv", 0))  # the arcs need no scans
    budget = 2 * 100 + 100 ** 0.9
    count_ok = count <= budget

    # the resonance scan belongs to the deep-deviation regime, so it runs
    # on a sparser geometry at twice the threshold
    clear = sum(bool(r["clear"]) for r in ldt(0.10, "resonance_scan.csv", 20))
    scan_ok = clear == 20
    return (decay_ok and count_ok and scan_ok,
            f"median rate {med:.4f} vs log 2 = {_LOG2:.4f}, "
            f"arcs {count} <= {budget:.0f}, scans clear {clear}/20")


def _c10_convergence_rate() -> Tuple[bool, str]:
    """|L_n - L_2n| shrinks like 1/n on a doubling ladder."""
    ns = [100, 200, 400, 800, 1600]
    L = dict(zip(ns, lyapunov_n(_AMO2, _ALPHA, 0.5, ns, 0.0, 8192)[0]))
    diffs = [abs(L[n] - L[2 * n]) for n in ns[:-1]]
    slope = line_fit(np.log(ns[:-1]), np.log(diffs))[0]
    return slope <= -0.8, f"log-log slope {slope:.3f}"


# bound on the residual relative to |phi_y| over c11's ten eigenpairs
_C11_EIGENPAIR_BOUND = 1e-9


def _c11_eigenpair_residual() -> float:
    """Worst expansion residual over ten mid-spectrum AMO(2) eigenpairs, each
    on a window past its localization center; a nan (no window) reads inf."""
    rows = _rows("localize", "localize_summary.csv", {"localize": {"n": 500}})
    return max(math.inf if math.isnan(r["expansion_residual"])
               else r["expansion_residual"] for r in rows)


def _c11_expansion_identity() -> Tuple[bool, str]:
    """Window-determinant expansion reproduces interior eigenvector values."""
    omega = 0.9
    n_free = 60
    phi = np.sin((np.arange(n_free) + 1) * omega)
    E_free = 2.0 * math.cos(omega)
    free_res = max(
        expansion_identity_check(Potential.zero(), _ALPHA, 0.3, E_free,
                                 phi, (5, 50), y)
        for y in (5, 20, 50))
    worst = _c11_eigenpair_residual()
    ok = free_res <= 1e-10 and worst <= _C11_EIGENPAIR_BOUND
    return ok, f"free {free_res:.2e}, worst of 10 eigenpairs {worst:.2e}"


_C12_CONFIG = {
    "energies": [0.5, 1.5],
    "eps_grid": [0.02, 0.05, 0.08],
    "n": 128,
    "n_ladder": [50, 100],
    "seed": 7,
}


def _csv_bytes(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".csv"):
            with open(os.path.join(directory, name), "rb") as fh:
                out[name] = fh.read()
    return out


def _c12_determinism() -> Tuple[bool, str]:
    """Reruns and thread counts leave every CSV byte-identical."""
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {}
        for tag, threads in (("a", 1), ("b", 1), ("c", 8)):
            for sub in ("lyapunov", "zeros"):
                target = os.path.join(tmp, f"{sub}-{tag}")
                cli_harness.run(sub, config=dict(_C12_CONFIG),
                                out_dir=target, threads=threads)
                dirs[(sub, tag)] = _csv_bytes(target)
        for sub in ("lyapunov", "zeros"):
            base = dirs[(sub, "a")]
            for tag in ("b", "c"):
                other = dirs[(sub, tag)]
                if set(base) != set(other):
                    mismatches.append(f"{sub}: file sets differ ({tag})")
                    continue
                for name in base:
                    if base[name] != other[name]:
                        mismatches.append(f"{sub}/{name} ({tag})")
    n_files = sum(len(v) for k, v in dirs.items() if k[1] == "a")
    if mismatches:
        return False, "mismatch in " + ", ".join(mismatches)
    return True, (f"{n_files} tables byte-identical across rerun "
                  f"and threads 1 vs 8")


_CRITERIA: Tuple[Tuple[int, str, Callable[[], Tuple[bool, str]]], ...] = (
    (1, "acceleration-integrality", _c1_acceleration_integrality),
    (2, "zero-count-vs-acceleration", _c2_zero_count_characterization),
    (3, "zero-symmetries", _c3_zero_symmetries),
    (4, "green-function-suite", _c4_green_suite),
    (5, "riesz-decomposition", _c5_riesz_decomposition),
    (6, "jensen-identity", _c6_jensen_identity),
    (7, "riesz-mass", _c7_riesz_mass),
    (8, "ids-holder", _c8_ids_holder),
    (9, "localization-diagnostics", _c9_localization_diagnostics),
    (10, "lyapunov-convergence-rate", _c10_convergence_rate),
    (11, "expansion-identity", _c11_expansion_identity),
    (12, "determinism", _c12_determinism),
)


def run_criterion(number: int) -> AcceptanceRecord:
    for num, name, func in _CRITERIA:
        if num == number:
            try:
                passed, observed = func()
            except Exception as exc:
                passed, observed = False, f"{type(exc).__name__}: {exc}"
            return AcceptanceRecord(num, name, passed, observed)
    raise ValueError(f"no acceptance criterion numbered {number}")

