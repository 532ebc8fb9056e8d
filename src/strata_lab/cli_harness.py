"""Reproducible experiment runs over the determinant laboratory.

One JSON config drives a family of subcommands (Lyapunov sweeps, zero
inventories, potential-theory checks, IDS and localization diagnostics).
Each subcommand is one registry entry (tables, task function, plan); `all`
runs the twelve acceptance gates through the same task runner.
Each run writes CSV tables with a fixed column order, optional JSON
side artifacts, and a manifest recording the config hash, per-task
status, and the file index.  Numbers are printed with 12 significant
digits and tasks are planned and merged in a fixed order, so reruns of
the same config produce byte-identical tables regardless of --threads.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .model import GOLDEN_MEAN, Potential
from .cocycle import acceleration, classify_stratum, lyapunov_n, strata_measure
from .determinant import det_family
from .spectral_localization import (
    check_delta_ladder,
    deviation_set,
    dirichlet_eigenvalues,
    eigenfunction_decay,
    double_resonance_scan,
    expansion_identity_scan,
    holder_exponent,
    ids,
    sturm_count,
    tail_window,
)
from .zeros_potential import (
    clearest_eps,
    circle_average_green,
    count_annulus,
    find_zeros,
    green_annulus,
    green_trunc_order,
    jensen_identity_residual,
    riesz_decompose,
    riesz_kappa,
    riesz_mass,
    window_reach,
    zero_count_vs_acceleration,
)

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Raised when the experiment config fails validation."""


class _Precondition(RuntimeError):
    """A task's mathematical preconditions do not hold for this input.

    Reported as status "skipped" in the manifest, not as a failure."""


class _GateFailed(RuntimeError):
    """An acceptance gate ran and did not pass.

    Its row is still written to acceptance.csv; the task is "failed"."""

    def __init__(self, row: Dict[str, Any]):
        super().__init__(row["observed"])
        self.row = row


# ----------------------------------------------------------------------
# config schema
# ----------------------------------------------------------------------

_DEFAULTS: Dict[str, Any] = {
    "potential": "amo(2.0)",
    "alpha": "golden",
    "energies": [0.5],
    "eps": 0.05,
    "eps_grid": [0.02, 0.04, 0.06, 0.08, 0.1],
    "n": 512,
    "n_ladder": [100, 200, 400],
    "seed": 0,
    "out_dir": "runs",
    "quadrature": {"K": 256, "lyapunov_K": 1024},
    "ids": {"n": 2000, "samples": 8},
    "holder": {
        "n": 2000,
        "delta_ladder": [1e-4, 2.15443469e-4, 4.64158883e-4, 1e-3,
                         2.15443469e-3, 4.64158883e-3, 1e-2],
    },
    "ldt": {"threshold": None, "grid_per_n": 64, "scan_count": 20},
    "localize": {"n": 1000, "theta": 0.0, "count": 10,
                 "window_margin": 8, "window_len": 120},
    "riesz": {"R_eps": 0.05, "eps_r": 0.02, "n_radii": 9, "n_angles": 256,
              "jensen_radii": [0.01, 0.04], "K": 4096},
    "green": {"samples": 100, "boundary_tol": 1e-10, "symmetry_tol": 1e-12,
              "average_tol": 1e-9},
    "strata": {"tau_pos": 0.05, "spectrum_box": 300, "spectrum_theta": 0.123},
}


# smallest accepted (section, key) values: below these a task fails late,
# serves NaN or plans nothing, so the config is refused up front instead
_MINIMUMS = {
    ("quadrature", "K"): 1,
    ("quadrature", "lyapunov_K"): 1,
    ("riesz", "n_radii"): 3,
    ("riesz", "K"): 1,
    ("riesz", "n_angles"): 1,
    ("strata", "spectrum_box"): 1,
    ("ldt", "grid_per_n"): 64,
    ("localize", "n"): 500,      # decay diagnostics
    ("ids", "n"): 100,           # IDS estimates
    ("ids", "samples"): 1,
    ("holder", "n"): 100,        # the holder fit runs IDS estimates
    ("green", "samples"): 4,     # samples // 4 circle-average checks
    ("localize", "count"): 1,
    ("localize", "window_margin"): 0,
    ("ldt", "scan_count"): 0,
}

# the float-valued (section, key) entries, typed up front like the sizes
_FLOATS = (("strata", "tau_pos"), ("strata", "spectrum_theta"),
           ("localize", "theta"), ("green", "boundary_tol"),
           ("green", "symmetry_tol"), ("green", "average_tol"))


def _merge(base: Dict[str, Any], override: Dict[str, Any]) -> Dict[str, Any]:
    out = dict(base)
    for k, v in override.items():
        if isinstance(base.get(k), dict) and isinstance(v, dict):
            out[k] = _merge(base[k], v)
        else:
            out[k] = v
    return out


def _check_unknown_keys(raw: Dict[str, Any]) -> None:
    for k, v in raw.items():
        if k not in _DEFAULTS:
            raise ConfigError(f"unknown config key {k!r}")
        if isinstance(_DEFAULTS[k], dict) and not isinstance(v, dict):
            raise ConfigError(f"section {k!r} must be an object")
        if isinstance(_DEFAULTS[k], dict):
            bad = set(v) - set(_DEFAULTS[k])
            if bad:
                raise ConfigError(f"unknown keys {sorted(bad)} in section {k!r}")


def _typed(value, kind, key: str):
    """int(value) or float(value); a value that does not convert, a string
    or a boolean, a non-integral number for an int key, or a float that is
    not finite, is a config error naming its key."""
    noun = "an integer" if kind is int else "a number"
    if isinstance(value, (bool, str)) or (
            kind is int and isinstance(value, float)
            and not value.is_integer()):
        raise ConfigError(f"{key} must be {noun}, got {value!r}")
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be {noun}, got {value!r}") from exc
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return out


def _typed_list(values, kind, key: str) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {values!r}")
    return tuple(_typed(v, kind, f"{key} entry") for v in values)


def _parse_energies(spec) -> Tuple[float, ...]:
    if isinstance(spec, dict):
        bad = set(spec) - {"start", "stop", "count"}
        if bad:
            raise ConfigError(f"unknown keys {sorted(bad)} in energies range")
        missing = {"start", "stop", "count"} - set(spec)
        if missing:
            raise ConfigError(f"energies range lacks {sorted(missing)}")
        count = _typed(spec["count"], int, "energies.count")
        if count < 1:
            raise ConfigError("energies range needs count >= 1")
        return tuple(float(E) for E in np.linspace(
            _typed(spec["start"], float, "energies.start"),
            _typed(spec["stop"], float, "energies.stop"), count))
    if not isinstance(spec, (list, tuple)):
        raise ConfigError("energies must be a list or a start/stop/count range")
    if not spec:
        raise ConfigError("energies must not be empty")
    return _typed_list(spec, float, "energies")


def _parse_potential(spec) -> Potential:
    try:
        if isinstance(spec, str):
            return Potential.from_preset(spec)
        if isinstance(spec, dict):
            return Potential.from_dict(spec)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad potential spec: {exc}") from exc
    raise ConfigError("potential must be a preset string or a coeffs dict")


def _parse_alpha(spec) -> float:
    if isinstance(spec, str):
        if spec.strip().lower() == "golden":
            return GOLDEN_MEAN
        raise ConfigError(f"unknown alpha preset {spec!r}")
    a = _typed(spec, float, "alpha")
    if not 0.0 < a < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    return a


def _positive_int_ladder(values, name: str) -> Tuple[int, ...]:
    ladder = _typed_list(values, int, name)
    if not ladder:
        raise ConfigError(f"{name} must not be empty")
    if any(v < 2 for v in ladder):
        raise ConfigError(f"{name} entries must be >= 2")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError(f"{name} must be strictly increasing")
    return ladder


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters plus the resolved raw dict.

    The raw dict is what gets hashed and shipped to worker processes; the
    typed fields are conveniences parsed from it exactly once."""

    raw: Dict[str, Any]
    potential: Potential
    alpha: float
    energies: Tuple[float, ...]
    eps: float
    eps_grid: Tuple[float, ...]
    n: int
    n_ladder: Tuple[int, ...]
    seed: int
    out_dir: str

    @classmethod
    def from_raw(cls, raw: Dict[str, Any]) -> "ExperimentConfig":
        resolved = _merge(_DEFAULTS, raw)
        _check_unknown_keys(raw)
        potential = _parse_potential(resolved["potential"])
        alpha = _parse_alpha(resolved["alpha"])
        energies = _parse_energies(resolved["energies"])
        eps = _typed(resolved["eps"], float, "eps")
        eps_grid = _typed_list(resolved["eps_grid"], float, "eps_grid")
        if eps <= 0:
            raise ConfigError("eps must be positive")
        if len(eps_grid) < 2 or any(e < 0 for e in eps_grid):
            raise ConfigError("eps_grid needs >= 2 nonnegative entries")
        if any(b <= a for a, b in zip(eps_grid, eps_grid[1:])):
            raise ConfigError("eps_grid must be strictly increasing")
        R_eps = _typed(resolved["riesz"]["R_eps"], float, "riesz.R_eps")
        eps_r = _typed(resolved["riesz"]["eps_r"], float, "riesz.eps_r")
        if eps_r <= 0:
            raise ConfigError("riesz.eps_r must be positive")
        strip_reach = max(max(eps_grid), R_eps, window_reach(eps, eps_r))
        if strip_reach >= potential.eta:
            raise ConfigError(
                f"strip half-widths reach {strip_reach} but the potential is "
                f"only analytic up to eta = {potential.eta}")
        n = _typed(resolved["n"], int, "n")
        if n < 2:
            raise ConfigError("n must be >= 2")
        cfg = cls(
            raw=resolved,
            potential=potential,
            alpha=alpha,
            energies=energies,
            eps=eps,
            eps_grid=eps_grid,
            n=n,
            n_ladder=_positive_int_ladder(resolved["n_ladder"], "n_ladder"),
            seed=_typed(resolved["seed"], int, "seed"),
            out_dir=str(resolved["out_dir"]),
        )
        jr = _typed_list(resolved["riesz"]["jensen_radii"], float,
                         "riesz.jensen_radii")
        if len(jr) != 2 or not 0 < jr[0] < jr[1] < R_eps:
            raise ConfigError("riesz.jensen_radii must be 0 < r1 < r2 < R_eps")
        for (name, key), low in _MINIMUMS.items():
            if _typed(resolved[name][key], int, f"{name}.{key}") < low:
                raise ConfigError(f"{name}.{key} must be >= {low}")
        for name, key in _FLOATS:
            value = _typed(resolved[name][key], float, f"{name}.{key}")
            # a phase is refused outside [0, 1) like alpha: at a huge phase
            # theta + j alpha rounds to theta, a constant box potential
            if key.endswith("theta") and not 0.0 <= value < 1.0:
                raise ConfigError(f"{name}.{key} must lie in [0, 1)")
        if resolved["ldt"]["threshold"] is not None:
            _typed(resolved["ldt"]["threshold"], float, "ldt.threshold")
        loc = resolved["localize"]
        window = _typed(loc["window_len"], int, "localize.window_len")
        if window > int(loc["n"]) - 3:
            raise ConfigError("localize.window_len must be <= localize.n - 3")
        if int(loc["count"]) > int(loc["n"]):  # indices past the box
            raise ConfigError("localize.count must be <= localize.n")
        hol = resolved["holder"]
        ladder = _typed_list(hol["delta_ladder"], float, "holder.delta_ladder")
        try:
            check_delta_ladder(ladder, int(hol["n"]))
        except ValueError as exc:
            raise ConfigError(f"holder: {exc}") from exc
        return cfg

    def section(self, name: str) -> Dict[str, Any]:
        return self.raw[name]


def config_hash(raw: Dict[str, Any]) -> str:
    """Hash of the resolved config, minus the output location."""
    resolved = _merge(_DEFAULTS, raw)
    items = {k: v for k, v in resolved.items() if k != "out_dir"}
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# output tables
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % float(value)
    if value is None:
        return ""
    return str(value)


def _write_table(path: str, columns: Sequence[str],
                 rows: Sequence[Dict[str, Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


# ----------------------------------------------------------------------
# task functions (run in worker processes; must stay module level)
# ----------------------------------------------------------------------

def _payload(tables: Optional[Dict[str, List[dict]]] = None,
             json_files: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    return {"tables": tables or {}, "json": json_files or {}}


def _task_lyapunov(cfg: ExperimentConfig) -> Dict[str, Any]:
    K = int(cfg.section("quadrature")["lyapunov_K"])
    ests = lyapunov_n(cfg.potential, cfg.alpha, cfg.energies, cfg.n_ladder,
                      (0.0,) + cfg.eps_grid, K)
    rows = [{"E": est.E, "n": est.n, "K": K, "eps": est.eps, "L": est.value,
             "std_error": est.std_error} for est in ests]
    return _payload({"lyapunov.csv": rows})


def _fit_segments(eps: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Label each grid point with a fitted affine segment id.

    A single segment unless a two-piece fit cuts the residual by 4x, which
    is the signature of a slope break inside the window."""
    m = len(eps)
    labels = np.zeros(m, dtype=int)
    if m < 5:
        return labels
    def ssr(sl):
        c = np.polyfit(eps[sl], L[sl], 1)
        r = L[sl] - np.polyval(c, eps[sl])
        return float(np.dot(r, r))
    one = ssr(slice(None))
    best_k, best = -1, one
    for k in range(2, m - 1):
        tot = ssr(slice(0, k)) + ssr(slice(k, m))
        if tot < best:
            best_k, best = k, tot
    if best_k >= 0 and best < 0.25 * one:
        labels[best_k:] = 1
    return labels


def _task_acceleration(cfg: ExperimentConfig) -> Dict[str, Any]:
    quad = cfg.section("quadrature")
    tables: Dict[str, List[dict]] = {"acceleration.csv": [],
                                     "accel_curve.csv": [],
                                     "accel_segments.csv": []}
    for est in acceleration(cfg.potential, cfg.alpha, cfg.energies,
                            cfg.eps_grid, n=cfg.n, K=int(quad["K"])):
        E = est.E
        eps = np.asarray(est.eps_grid)
        L = np.asarray(est.L_values)
        labels = (_fit_segments(eps, L) if est.non_affine
                  else np.zeros(len(eps), int))
        tables["accel_curve.csv"].extend(
            {"E": E, "eps": e, "L": v, "segment": int(s)}
            for e, v, s in zip(eps, L, labels))
        segments = []
        for s in sorted(set(labels.tolist())):
            sel = labels == s
            slope = float(np.polyfit(eps[sel], L[sel], 1)[0]) / TWO_PI
            segments.append({
                "E": E, "segment": int(s),
                "eps_min": float(eps[sel].min()),
                "eps_max": float(eps[sel].max()),
                "slope": slope, "kappa": int(round(slope)),
                "residual": abs(slope - round(slope))})
        tables["accel_segments.csv"].extend(segments)
        tables["acceleration.csv"].append({
            "E": E, "n": est.n, "K": est.quadrature_points,
            "raw_slope": est.raw_slope, "kappa": est.kappa,
            "residual": est.residual, "non_affine": est.non_affine,
            "n_segments": len(segments)})
    return _payload(tables)


def _task_zeros(cfg: ExperimentConfig, E: float, n: int) -> Dict[str, Any]:
    fam = det_family(cfg.potential, cfg.alpha, E, n)
    inv = find_zeros(fam)
    refl = inv.pair_reflection
    zrows = [{
        "E": E, "n": n, "idx": i, "re": float(w.real), "im": float(w.imag),
        "modulus": float(abs(w)),
        "eps_coord": float(abs(math.log(abs(w))) / TWO_PI),
        "multiplicity": int(inv.multiplicities[i]),
        "on_circle": bool(inv.on_circle[i]),
        "pair_inversive": int(inv.pair_inversive[i]),
        "pair_reflection": int(refl[i]) if refl is not None else -2}
        for i, w in enumerate(inv.roots)]
    ann = count_annulus(inv, cfg.eps / 2.0)
    crow = {"E": E, "n": n, "eps_half": cfg.eps / 2.0, "count": ann.count,
            "ratio_per_2n": ann.count / (2.0 * n),
            "boundary_margin": ann.boundary_margin,
            "n_flagged": len(ann.flagged)}
    return _payload({"zeros.csv": zrows, "zero_counts.csv": [crow]})


def _task_verify(cfg: ExperimentConfig, E: float) -> Dict[str, Any]:
    quad = cfg.section("quadrature")
    try:
        rep = zero_count_vs_acceleration(
            cfg.potential, cfg.alpha, E, cfg.eps, cfg.n_ladder,
            kappa_n=cfg.n, kappa_K=int(quad["K"]))
    except ValueError as exc:
        raise _Precondition(str(exc)) from exc
    rows = [{"E": E, "eps": rep.eps, "kappa": rep.kappa,
             "L0": rep.L0, "n": n, "count": count,
             "ratio_per_2n": count / (2.0 * n), "deviation": dev,
             "decay_exponent": (math.nan if rep.decay_exponent is None
                                else rep.decay_exponent),
             "boundary_clear": rep.boundary_clear}
            for n, count, dev in zip(rep.ns, rep.counts, rep.deviations)]
    return _payload({"verify_acc_zeros.csv": rows})


def _task_green(cfg: ExperimentConfig, seed: int) -> Dict[str, Any]:
    R = math.exp(TWO_PI * float(cfg.section("riesz")["R_eps"]))
    try:
        green_trunc_order(R)    # refuse an annulus the kernel cannot serve
    except ValueError as exc:
        raise _Precondition(str(exc)) from exc
    sec = cfg.section("green")
    samples = int(sec["samples"])
    rng = np.random.default_rng(seed)
    lr = math.log(R)

    def draw(m):
        radial = np.exp(rng.uniform(-0.95 * lr, 0.95 * lr, m))
        return radial * np.exp(1j * TWO_PI * rng.uniform(0.0, 1.0, m))

    zs, ws = draw(samples), draw(samples)
    boundary = np.concatenate([
        R * np.exp(1j * TWO_PI * rng.uniform(0, 1, samples // 2)),
        np.exp(1j * TWO_PI * rng.uniform(0, 1, samples - samples // 2)) / R])
    err_boundary = float(np.max(np.abs(green_annulus(boundary, ws, R))))
    err_sym = float(np.max(np.abs(green_annulus(zs, ws, R)
                                  - green_annulus(ws, zs, R))))
    # trapezoid circle averages converge geometrically in the radial gap,
    # so resample radii that land too close to the pole circle
    err_avg = 0.0
    K = 4096
    phi = TWO_PI * np.arange(K) / K
    for w in ws[:samples // 4]:
        r = math.exp(rng.uniform(-0.9 * lr, 0.9 * lr))
        while abs(math.log(abs(w)) - math.log(r)) < 0.01:
            r = math.exp(rng.uniform(-0.9 * lr, 0.9 * lr))
        quad = float(np.mean(green_annulus(r * np.exp(1j * phi), w, R)))
        err_avg = max(err_avg, abs(quad - circle_average_green(r, R, w)))
    rows = [{"check": check, "samples": m, "max_abs_err": err,
             "tol": float(sec[key]), "passed": err <= float(sec[key])}
            for check, m, err, key in (
                ("boundary_zero", samples, err_boundary, "boundary_tol"),
                ("symmetry", samples, err_sym, "symmetry_tol"),
                ("circle_average", samples // 4, err_avg, "average_tol"))]
    return _payload({"green_suite.csv": rows})


def _task_riesz(cfg: ExperimentConfig, E: float) -> Dict[str, Any]:
    sec = cfg.section("riesz")
    quad = cfg.section("quadrature")
    R_eps = float(sec["R_eps"])
    R = math.exp(TWO_PI * R_eps)
    try:
        green_trunc_order(R)    # refuse an annulus the kernel cannot serve
        kappa = riesz_kappa(cfg.potential, cfg.alpha, E, float(sec["eps_r"]),
                            kappa_n=cfg.n, kappa_K=int(quad["K"]))
    except ValueError as exc:
        raise _Precondition(str(exc)) from exc
    fam = det_family(cfg.potential, cfg.alpha, E, cfg.n)
    inv = find_zeros(fam)
    dec = riesz_decompose(fam, inv, R, n_radii=int(sec["n_radii"]),
                          n_angles=int(sec["n_angles"]))
    L_ref = lyapunov_n(cfg.potential, cfg.alpha, E, cfg.n, R_eps,
                       int(quad["lyapunov_K"])).value
    # nudge the comparison circles off any zero moduli before Jensen;
    # the identity wants radii, clearest_eps works in half-width coords
    coords = inv.eps_coords()
    jr1, jr2 = (float(v) for v in sec["jensen_radii"])
    r1 = clearest_eps(coords, 0.5 * jr1, jr1)
    r2 = clearest_eps(coords, jr2, min(1.5 * jr2, 0.9 * R_eps))
    jres = jensen_identity_residual(fam, inv, math.exp(TWO_PI * r1),
                                    math.exp(TWO_PI * r2), R,
                                    K=int(sec["K"]))
    mass = riesz_mass(cfg.potential, cfg.alpha, E, cfg.n,
                      float(sec["eps_r"]), K=int(sec["K"]), kappa=kappa,
                      fam=fam, inv=inv)
    row = {"E": E, "n": cfg.n, "R_eps": R_eps,
           "boundary_max_dev": dec.boundary_max_dev,
           "mean_value_max_resid": dec.mean_value_max_resid,
           "h_min": dec.h_min, "h_max": dec.h_max, "L_ref": L_ref,
           "jensen_r1": r1, "jensen_r2": r2, "jensen_residual": jres,
           "eps_r": mass.eps_r, "mass_v": mass.mass_v, "mass_u": mass.mass_u,
           "count_ratio": mass.count_ratio, "kappa": mass.kappa,
           "dev_from_2kappa": mass.dev_from_2kappa}
    return _payload({"riesz.csv": [row]})


def _task_ids(cfg: ExperimentConfig, E: float) -> Dict[str, Any]:
    sec = cfg.section("ids")
    est = ids(cfg.potential, cfg.alpha, E, int(sec["n"]),
              int(sec["samples"]))
    return _payload({"ids.csv": [{
        "E": E, "n": est.n, "value": est.value, "spread": est.spread}]})


def _task_holder(cfg: ExperimentConfig, E0: float) -> Dict[str, Any]:
    sec = cfg.section("holder")
    fit = holder_exponent(cfg.potential, cfg.alpha, E0,
                          sec["delta_ladder"], int(sec["n"]),
                          int(cfg.section("ids")["samples"]))
    return _payload({"holder.csv": [{
        "E0": E0, "n": fit.n, "beta": fit.beta,
        "beta_stderr": fit.beta_stderr, "in_gap": fit.in_gap,
        "message": fit.message}]})


def _task_strata(cfg: ExperimentConfig) -> Dict[str, Any]:
    quad = cfg.section("quadrature")
    sec = cfg.section("strata")
    L0s = lyapunov_n(cfg.potential, cfg.alpha, cfg.energies, cfg.n, 0.0,
                     int(quad["lyapunov_K"]))
    accs = acceleration(cfg.potential, cfg.alpha, cfg.energies, cfg.eps_grid,
                        n=cfg.n, K=int(quad["K"]))
    box = int(sec["spectrum_box"])
    h = 10.0 / box  # in spectrum: a box eigenvalue lies in (E - h, E + h]
    lo, hi = sturm_count(cfg.potential, cfg.alpha, float(sec["spectrum_theta"]),
                         np.add.outer((-h, h), cfg.energies), box)
    rows = []
    for E, L0, acc, in_spec in zip(cfg.energies, (est.value for est in L0s),
                                   accs, (hi > lo).tolist()):
        rec = classify_stratum(E, L0, acc.kappa, tau_pos=float(sec["tau_pos"]),
                               non_affine=acc.non_affine, in_spectrum=in_spec)
        rows.append({
            "E": E, "L0": L0, "kappa": acc.kappa, "residual": acc.residual,
            "non_affine": acc.non_affine, "in_spectrum": in_spec,
            "label": rec.label})
    return _payload({"strata.csv": rows})


def _task_ldt(cfg: ExperimentConfig, E: float, seed: int,
              geom_name: str) -> Dict[str, Any]:
    sec = cfg.section("ldt")
    threshold = sec["threshold"]
    try:
        geom = deviation_set(
            cfg.potential, cfg.alpha, E, cfg.n,
            threshold=None if threshold is None else float(threshold),
            grid_size=int(sec["grid_per_n"]) * cfg.n,
            lyapunov_K=int(cfg.section("quadrature")["lyapunov_K"]))
    except ValueError as exc:
        raise _Precondition(str(exc)) from exc
    arows = [{"E": E, "n": geom.n, "threshold": geom.threshold, "arc": j,
              "left": left, "right": right, "width": right - left,
              "pair": int(geom.pair_map[j]) if geom.pair_map is not None else -2}
             for j, (left, right) in enumerate(geom.intervals)]
    rng = np.random.default_rng(seed)
    srows = []
    for s in range(int(sec["scan_count"])):
        theta = float(rng.uniform(0.0, 1.0))
        y = int(rng.integers(geom.n + 1, 10 * geom.n))
        rep = double_resonance_scan(geom, theta, cfg.alpha, y)
        # with no arc there is nothing to resonate with: `clear` stays empty
        srows.append({"E": E, "scan": s, "theta": theta, "y": y,
                      "clear": rep.clear if geom.count else None,
                      "pair_index": rep.pair_index})
    return _payload({"ldt_arcs.csv": arows, "resonance_scan.csv": srows},
                    {geom_name: geom.to_json_dict()})


def _task_localize(cfg: ExperimentConfig) -> Dict[str, Any]:
    sec = cfg.section("localize")
    n, theta = int(sec["n"]), float(sec["theta"])
    count, wlen = int(sec["count"]), int(sec["window_len"])
    base = n // 2 - count // 2
    # the box spectrum does not depend on the index: one solve for all
    spec = dirichlet_eigenvalues(cfg.potential, cfg.alpha, theta, n)
    srows, prows = [], []
    for index in range(base, base + count):
        prof = eigenfunction_decay(cfg.potential, cfg.alpha, theta, n, index,
                                   spectrum=spec)
        l1 = tail_window(prof.center, n, int(sec["window_margin"]), wlen)
        try:
            resid, (l1, l2), y = expansion_identity_scan(
                cfg.potential, cfg.alpha, theta, prof.eigenvalue,
                prof.eigenvector, (l1, l1 + wlen))
        except ValueError:
            resid, l2, y = math.nan, l1 + wlen, (2 * l1 + wlen) // 2
        srows.append({
            "index": index, "eigenvalue": prof.eigenvalue,
            "center": prof.center, "slope_left": prof.slope_left,
            "slope_right": prof.slope_right, "resid_left": prof.resid_left,
            "resid_right": prof.resid_right,
            "fit_sites_left": prof.fit_sites_left,
            "fit_sites_right": prof.fit_sites_right,
            "decay_rate": prof.decay_rate, "localized": prof.is_localized(),
            "exp_l1": l1, "exp_l2": l2, "exp_y": y,
            "expansion_residual": resid})
        absv = np.abs(prof.eigenvector)
        prows.extend({"index": index, "site": j, "abs_phi": float(absv[j]),
                      "log_abs_phi": float(prof.log_abs[j])}
                     for j in range(n))
    return _payload({"localize_summary.csv": srows,
                     "decay_profiles.csv": prows})


def _task_criterion(cfg: ExperimentConfig, number: int) -> Dict[str, Any]:
    from .acceptance import run_criterion  # acceptance imports this module
    row = dataclasses.asdict(run_criterion(number))
    if not row["passed"]:
        raise _GateFailed(row)
    return _payload({"acceptance.csv": [row]})


# ----------------------------------------------------------------------
# subcommand registry
# ----------------------------------------------------------------------

_Plan = List[Tuple[str, Dict[str, Any]]]


@dataclass(frozen=True)
class _Subcommand:
    """One subcommand: its tables (file -> columns, in write order), its
    module-level task function, and a plan of (task key, task params) in
    output order."""

    tables: Dict[str, List[str]]
    task: Callable[..., Dict[str, Any]]
    plan: Callable[[ExperimentConfig], _Plan]


def _per_energy(prefix: str, param: str = "E") -> Callable[..., _Plan]:
    return lambda cfg: [(f"{prefix}[{param}={E:.6g}]", {param: E})
                        for E in cfg.energies]


def _per_energy_and_n(prefix: str) -> Callable[..., _Plan]:
    return lambda cfg: [(f"{prefix}[E={E:.6g},n={n}]", {"E": E, "n": n})
                        for E in cfg.energies for n in cfg.n_ladder]


def _plan_ldt(cfg: ExperimentConfig) -> _Plan:
    return [(f"ldt[E={E:.6g}]", {"E": E, "seed": cfg.seed + i,
                                 "geom_name": f"ldt_geometry_{i}.json"})
            for i, E in enumerate(cfg.energies)]


def _plan_all(cfg: ExperimentConfig) -> _Plan:
    from .acceptance import _CRITERIA  # acceptance imports this module
    return [(f"criterion-{num}", {"number": num}) for num, _, _ in _CRITERIA]


_REGISTRY: Dict[str, _Subcommand] = {
    "lyapunov": _Subcommand(
        {"lyapunov.csv": ["E", "n", "K", "eps", "L", "std_error"]},
        _task_lyapunov, lambda cfg: [("lyapunov[all]", {})]),
    "acceleration": _Subcommand(
        {"acceleration.csv": ["E", "n", "K", "raw_slope", "kappa",
                              "residual", "non_affine", "n_segments"],
         "accel_curve.csv": ["E", "eps", "L", "segment"],
         "accel_segments.csv": ["E", "segment", "eps_min", "eps_max",
                                "slope", "kappa", "residual"]},
        _task_acceleration, lambda cfg: [("acceleration[all]", {})]),
    "zeros": _Subcommand(
        {"zeros.csv": ["E", "n", "idx", "re", "im", "modulus", "eps_coord",
                       "multiplicity", "on_circle", "pair_inversive",
                       "pair_reflection"],
         "zero_counts.csv": ["E", "n", "eps_half", "count", "ratio_per_2n",
                             "boundary_margin", "n_flagged"]},
        _task_zeros, _per_energy_and_n("zeros")),
    "verify-acc-zeros": _Subcommand(
        {"verify_acc_zeros.csv": ["E", "eps", "kappa", "L0", "n", "count",
                                  "ratio_per_2n", "deviation",
                                  "decay_exponent", "boundary_clear"]},
        _task_verify, _per_energy("verify")),
    "green": _Subcommand(
        {"green_suite.csv": ["check", "samples", "max_abs_err", "tol",
                             "passed"]},
        _task_green, lambda cfg: [("green[suite]", {"seed": cfg.seed})]),
    "riesz": _Subcommand(
        {"riesz.csv": ["E", "n", "R_eps", "boundary_max_dev",
                       "mean_value_max_resid", "h_min", "h_max", "L_ref",
                       "jensen_r1", "jensen_r2", "jensen_residual", "eps_r",
                       "mass_v", "mass_u", "count_ratio", "kappa",
                       "dev_from_2kappa"]},
        _task_riesz, _per_energy("riesz")),
    "ids": _Subcommand(
        {"ids.csv": ["E", "n", "value", "spread"]},
        _task_ids, _per_energy("ids")),
    "holder": _Subcommand(
        {"holder.csv": ["E0", "n", "beta", "beta_stderr", "in_gap",
                        "message"]},
        _task_holder, _per_energy("holder", "E0")),
    "strata": _Subcommand(
        {"strata.csv": ["E", "L0", "kappa", "residual", "non_affine",
                        "in_spectrum", "label"]},
        _task_strata, lambda cfg: [("strata[all]", {})]),
    "ldt": _Subcommand(
        {"ldt_arcs.csv": ["E", "n", "threshold", "arc", "left", "right",
                          "width", "pair"],
         "resonance_scan.csv": ["E", "scan", "theta", "y", "clear",
                                "pair_index"]},
        _task_ldt, _plan_ldt),
    "localize": _Subcommand(
        {"localize_summary.csv": ["index", "eigenvalue", "center",
                                  "slope_left", "slope_right", "resid_left",
                                  "resid_right", "fit_sites_left",
                                  "fit_sites_right", "decay_rate",
                                  "localized", "exp_l1", "exp_l2", "exp_y",
                                  "expansion_residual"],
         "decay_profiles.csv": ["index", "site", "abs_phi", "log_abs_phi"]},
        _task_localize, lambda cfg: [("localize[all]", {})]),
    "all": _Subcommand(
        {"acceptance.csv": ["criterion", "name", "passed", "observed"]},
        _task_criterion, _plan_all),
}

SUBCOMMANDS = tuple(_REGISTRY)


def _run_task(packed):
    subcommand, raw, key, params = packed
    t0 = time.perf_counter()
    try:
        cfg = ExperimentConfig.from_raw(raw)
        payload = _REGISTRY[subcommand].task(cfg, **params)
        return key, "ok", payload, "", time.perf_counter() - t0
    except _Precondition as exc:
        return key, "skipped", _payload(), str(exc), time.perf_counter() - t0
    except _GateFailed as exc:
        return (key, "failed", _payload({"acceptance.csv": [exc.row]}),
                str(exc), time.perf_counter() - t0)
    except Exception as exc:  # sibling tasks keep running; manifest records it
        msg = f"{type(exc).__name__}: {exc}"
        return key, "failed", _payload(), msg, time.perf_counter() - t0


# ----------------------------------------------------------------------
# run driver
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunManifest:
    """Record of one run: what was asked, what happened, what was written."""

    subcommand: str
    version: str
    config_hash: str
    seed: int
    threads: int
    out_dir: str
    started_utc: str
    finished_utc: str
    tasks: Tuple[Dict[str, Any], ...]
    files: Tuple[str, ...]

    @property
    def n_failed(self) -> int:
        return sum(1 for t in self.tasks if t["status"] == "failed")

    @property
    def ok(self) -> bool:
        return self.n_failed == 0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _load_config(config) -> Dict[str, Any]:
    if config is None:
        return {}
    if isinstance(config, dict):
        return dict(config)
    with open(config, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config JSON must be an object")
    return raw


def _finish_strata(cfg: ExperimentConfig, rows: List[dict]) -> Optional[dict]:
    """Measure per label, defined only on a uniform energy grid."""
    if len(cfg.energies) < 2 or not rows:
        return None
    diffs = np.diff(cfg.energies)
    if np.max(np.abs(diffs - diffs[0])) > 1e-12 * max(1.0, abs(diffs[0])):
        return None
    records = [classify_stratum(r["E"], r["L0"], r["kappa"],
                                tau_pos=float(cfg.section("strata")["tau_pos"]),
                                non_affine=bool(r["non_affine"]),
                                in_spectrum=bool(r["in_spectrum"]))
               for r in rows]
    measure = strata_measure(records, float(abs(diffs[0])))
    return {"cell_width": float(abs(diffs[0])),
            "measure": {k: measure[k] for k in sorted(measure)}}


def run(subcommand: str, config=None, out_dir: Optional[str] = None,
        threads: int = 1, seed: Optional[int] = None,
        dry_run: bool = False) -> RunManifest:
    """Plan and execute one subcommand; returns the manifest.

    `config` is a dict, a path to a JSON file, or None for pure defaults.
    Results land in CSV/JSON files under out_dir (config out_dir unless
    overridden here).  Planning order fixes row order, so thread count
    never changes the bytes written.
    """
    if subcommand not in _REGISTRY:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    raw = _load_config(config)
    if seed is not None:
        raw["seed"] = int(seed)
    cfg = ExperimentConfig.from_raw(raw)
    target = out_dir if out_dir is not None else cfg.out_dir
    started = _utc_now()
    spec = _REGISTRY[subcommand]
    plan = spec.plan(cfg)

    if dry_run:
        print(f"dry run: {len(plan)} task(s), nothing computed")
        for key, _ in plan:
            print(f"  {key}")
        return RunManifest(subcommand, __version__, config_hash(raw),
                           cfg.seed, threads, target, started, _utc_now(),
                           tuple({"key": key, "status": "planned",
                                  "seconds": 0.0, "error": ""}
                                 for key, _ in plan), ())

    packed = [(subcommand, cfg.raw, key, params) for key, params in plan]
    if threads > 1 and len(packed) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_task, packed))
    else:
        results = [_run_task(p) for p in packed]

    os.makedirs(target, exist_ok=True)
    tables: Dict[str, List[dict]] = {f: [] for f in spec.tables}
    json_files: Dict[str, Any] = {}
    task_records = []
    for key, status, payload, err, secs in results:
        task_records.append({"key": key, "status": status,
                             "seconds": round(secs, 3), "error": err})
        for fname, rows in payload["tables"].items():
            tables[fname].extend(rows)
        json_files.update(payload["json"])

    if subcommand == "strata":
        summary = _finish_strata(cfg, tables["strata.csv"])
        if summary is not None:
            json_files["strata_summary.json"] = summary

    files = []
    for fname, columns in spec.tables.items():
        _write_table(os.path.join(target, fname), columns, tables[fname])
        files.append(fname)
    for fname, obj in json_files.items():
        with open(os.path.join(target, fname), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
        files.append(fname)

    manifest = RunManifest(subcommand, __version__, config_hash(raw),
                           cfg.seed, threads, target, started, _utc_now(),
                           tuple(task_records), tuple(files))
    with open(os.path.join(target, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
    return manifest


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strata-lab",
        description="Determinant-zero and Lyapunov-acceleration experiments "
                    "for quasi-periodic Schrodinger operators.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None,
                        help="JSON config file (defaults apply when omitted)")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides config out_dir)")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the task plan without computing")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        manifest = run(args.subcommand, config=args.config, out_dir=args.out,
                       threads=args.threads, seed=args.seed,
                       dry_run=args.dry_run)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        return 0
    for t in manifest.tasks:
        note = f"  [{t['error']}]" if t["error"] else ""
        print(f"{t['status']:7s} {t['key']}  ({t['seconds']:.2f}s){note}")
    print(f"wrote {len(manifest.files)} file(s) to {manifest.out_dir} "
          f"(config {manifest.config_hash})")
    if not manifest.ok:
        print(f"error: {manifest.n_failed} task(s) failed", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
