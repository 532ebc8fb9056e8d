"""End-to-end acceptance suite: twelve numbered checks with pinned tolerances.

Each criterion is a self-contained function with hard-coded fixtures, so a
run is reproducible without any config.  The test suite runs one criterion
per test; the CLI `all` subcommand plans one task per criterion, so its
criteria run through the same task runner as the other subcommands (with
--threads, --dry-run and per-task timings in manifest.json).  A record
stores the pass flag plus a one-line observation: one row of acceptance.csv.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .model import GOLDEN_MEAN, Potential
from .cocycle import acceleration, lyapunov_n
from .determinant import center_family, det_family
from .spectral_localization import (
    deviation_set,
    dirichlet_eigenvalues,
    dirichlet_eigenpair,
    double_resonance_scan,
    eigenfunction_decay,
    expansion_identity_check,
    expansion_identity_scan,
    holder_exponent,
    tail_window,
)
from .zeros_potential import (
    clearest_eps,
    find_zeros,
    jensen_identity_residual,
    riesz_decompose,
    riesz_mass,
    zero_count_vs_acceleration,
)
from . import cli_harness

_AMO2 = Potential.amo(2.0)
_ALPHA = GOLDEN_MEAN
_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class AcceptanceRecord:
    criterion: int
    name: str
    passed: bool
    observed: str


def _c1_acceleration_integrality() -> Tuple[bool, str]:
    """Fitted strip slopes sit on the integer 1 across a box spectrum."""
    evs = dirichlet_eigenvalues(_AMO2, _ALPHA, 0.0, 50).eigenvalues
    eps_grid = np.linspace(0.02, 0.10, 5)
    devs = [abs(est.raw_slope - 1.0)
            for est in acceleration(_AMO2, _ALPHA, evs, eps_grid, n=512, K=256)]
    med, mx = float(np.median(devs)), float(np.max(devs))
    return (med <= 0.05 and mx <= 0.25,
            f"median |slope-1| = {med:.2e}, max = {mx:.2e} over 50 energies")


def _c2_zero_count_characterization() -> Tuple[bool, str]:
    """Per-site annulus zero counts converge to 2*kappa along an n-ladder."""
    rep = zero_count_vs_acceleration(_AMO2, _ALPHA, 0.5, 0.05,
                                     (100, 200, 400))
    dev = rep.deviations
    monotone = all(b <= a + 1e-9 for a, b in zip(dev, dev[1:]))
    ratio_400 = rep.counts[-1] / (2.0 * rep.ns[-1])
    ok = dev[0] <= 0.15 and monotone and abs(ratio_400 - 1.0) <= 0.08
    return (ok, f"kappa = {rep.kappa}, deviations = "
                + "/".join(f"{d:.3g}" for d in dev)
                + f", N/(2n) at n=400: {ratio_400:.4f}")


def _c3_zero_symmetries() -> Tuple[bool, str]:
    """Inversive pairing off the circle, reflection pairing after centering."""
    rng = np.random.default_rng(3)
    off_total = off_paired = refl_total = refl_paired = 0
    for _ in range(10):
        E = float(rng.uniform(-6.5, 6.5))
        n = int(rng.integers(50, 401))
        fam = det_family(_AMO2, _ALPHA, E, n)
        inv = find_zeros(fam)
        off = ~inv.on_circle
        off_total += int(np.sum(off))
        off_paired += int(np.sum(inv.pair_inversive[off] >= 0))
        cinv = find_zeros(center_family(fam))
        refl_total += len(cinv.roots)
        refl_paired += int(np.sum(cinv.pair_reflection >= 0))
    ok = off_paired == off_total and refl_paired == refl_total
    return (ok, f"inversive {off_paired}/{off_total} off-circle roots, "
                f"reflection {refl_paired}/{refl_total} centered roots")


def _c4_green_suite() -> Tuple[bool, str]:
    """Boundary vanishing, symmetry, and circle averages of the annulus kernel."""
    cfg = cli_harness.ExperimentConfig.from_raw({})
    rows = cli_harness._task_green(cfg, seed=4)["tables"]["green_suite.csv"]
    ok = all(r["passed"] for r in rows)
    detail = ", ".join(f"{r['check']} {r['max_abs_err']:.2e}" for r in rows)
    return ok, detail


def _c5_riesz_decomposition() -> Tuple[bool, str]:
    """Green potential plus harmonic part rebuilds u_n with a flat remainder."""
    R = math.exp(2.0 * math.pi * 0.05)
    fam = det_family(_AMO2, _ALPHA, 0.5, 400)
    inv = find_zeros(fam)
    dec = riesz_decompose(fam, inv, R)
    L_ref = lyapunov_n(_AMO2, _ALPHA, 0.5, 400, 0.05, 1024).value
    h_dev = max(abs(dec.h_min - L_ref), abs(dec.h_max - L_ref))
    ok = (dec.boundary_max_dev <= 1e-8
          and dec.mean_value_max_resid <= 1e-5
          and h_dev <= 0.05)
    return (ok, f"boundary {dec.boundary_max_dev:.2e}, "
                f"mean-value {dec.mean_value_max_resid:.2e}, "
                f"|h - L| <= {h_dev:.4f}")


def _c6_jensen_identity() -> Tuple[bool, str]:
    """Circle-average differences match the annulus zero-count integral."""
    R = math.exp(2.0 * math.pi * 0.05)
    fam = det_family(_AMO2, _ALPHA, 0.5, 200)
    inv = find_zeros(fam)
    coords = inv.eps_coords()
    two_pi = 2.0 * math.pi
    r1 = math.exp(two_pi * clearest_eps(coords, 0.005, 0.01))
    r2 = math.exp(two_pi * clearest_eps(coords, 0.04, 0.045))
    res_amo = jensen_identity_residual(fam, inv, r1, r2, R, K=4096)
    fam0 = det_family(Potential.zero(), _ALPHA, 0.5, 200)
    inv0 = find_zeros(fam0)
    res_free = jensen_identity_residual(fam0, inv0, math.exp(two_pi * 0.01),
                                        math.exp(two_pi * 0.04), R, K=4096)
    ok = res_amo <= 1e-6 and res_free <= 1e-15
    return ok, f"residual {res_amo:.2e} (AMO), {res_free:.2e} (free)"


def _c7_riesz_mass() -> Tuple[bool, str]:
    """Annulus Riesz mass doubles the acceleration and matches the count."""
    rep = riesz_mass(_AMO2, _ALPHA, 0.5, 400, 0.02, K=4096)
    ok = (abs(rep.mass_v - 2.0) <= 0.2
          and abs(rep.mass_u - rep.count_ratio) <= 0.05)
    return (ok, f"mass_v = {rep.mass_v:.4f}, mass_u = {rep.mass_u:.4f}, "
                f"count/n = {rep.count_ratio:.4f}")


def _c8_ids_holder() -> Tuple[bool, str]:
    """IDS increments fit a positive Hoelder exponent inside the spectrum."""
    ladder = np.geomspace(1e-4, 1e-2, 7)
    candidates = dirichlet_eigenvalues(_AMO2, _ALPHA, 0.123,
                                       100).eigenvalues[44:56]
    betas = []
    for E0 in candidates:
        fit = holder_exponent(_AMO2, _ALPHA, float(E0), ladder, 4000)
        if not fit.in_gap:
            betas.append(fit.beta)
        if len(betas) == 3:
            break
    gap_fit = holder_exponent(_AMO2, _ALPHA, 1.5, ladder, 4000)
    ok = (len(betas) == 3 and all(b >= 0.40 for b in betas)
          and gap_fit.in_gap)
    return (ok, "beta = " + "/".join(f"{b:.3f}" for b in betas)
                + f", gap energy in_gap = {gap_fit.in_gap}")


def _c9_localization_diagnostics() -> Tuple[bool, str]:
    """Eigenfunction decay at the Lyapunov rate, sparse deviation arcs,
    and a clean double-resonance scan."""
    n = 1000
    spectrum = dirichlet_eigenvalues(_AMO2, _ALPHA, 0.0, n)
    rates = [eigenfunction_decay(_AMO2, _ALPHA, 0.0, n, which,
                                 spectrum=spectrum).decay_rate
             for which in range(n // 2 - 5, n // 2 + 5)]
    med = float(np.median(rates))
    decay_ok = abs(med - _LOG2) <= 0.15 * _LOG2

    geom = deviation_set(_AMO2, _ALPHA, 0.5, 100, threshold=0.05,
                         grid_size=8192 * 100)
    budget = 2 * 100 + 100 ** 0.9
    count_ok = geom.count <= budget

    # the resonance scan belongs to the deep-deviation regime, so it runs
    # on a sparser geometry at twice the threshold
    geom_deep = deviation_set(_AMO2, _ALPHA, 0.5, 100, threshold=0.10,
                              grid_size=8192 * 100)
    rng = np.random.default_rng(11)
    clear = 0
    for _ in range(20):
        theta = float(rng.uniform(0.0, 1.0))
        y = int(rng.integers(101, 1000))
        if double_resonance_scan(geom_deep, theta, _ALPHA, y).clear:
            clear += 1
    scan_ok = clear == 20
    return (decay_ok and count_ok and scan_ok,
            f"median rate {med:.4f} vs log 2 = {_LOG2:.4f}, "
            f"arcs {geom.count} <= {budget:.0f}, scans clear {clear}/20")


def _c10_convergence_rate() -> Tuple[bool, str]:
    """|L_n - L_2n| shrinks like 1/n on a doubling ladder."""
    ns = [100, 200, 400, 800, 1600]
    L = {est.n: est.value
         for est in lyapunov_n(_AMO2, _ALPHA, 0.5, ns, 0.0, 8192)}
    diffs = [abs(L[n] - L[2 * n]) for n in ns[:-1]]
    slope = float(np.polyfit(np.log(ns[:-1]), np.log(diffs), 1)[0])
    return slope <= -0.8, f"log-log slope {slope:.3f}"


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
    n = 500
    spectrum = dirichlet_eigenvalues(_AMO2, _ALPHA, 0.0, n)
    worst = 0.0
    for which in range(n // 2 - 5, n // 2 + 5):
        lam, vec = dirichlet_eigenpair(_AMO2, _ALPHA, 0.0, n, which,
                                       spectrum=spectrum)
        l1 = tail_window(int(np.argmax(np.abs(vec))), n, 8, 120)
        res, _, _ = expansion_identity_scan(_AMO2, _ALPHA, 0.0, lam, vec,
                                            (l1, l1 + 120))
        worst = max(worst, res)
    ok = free_res <= 1e-10 and worst <= 1e-8
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


def format_line(rec: AcceptanceRecord) -> str:
    flag = "PASS" if rec.passed else "FAIL"
    return f"[{flag}] criterion {rec.criterion:2d} {rec.name}: {rec.observed}"
