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
import json
import math
import os
import sys
import time
import zlib
from datetime import datetime, timezone
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .model import GOLDEN_MEAN, Potential
from .cocycle import acceleration, classify_stratum, line_fit, lyapunov_n
from .determinant import det_family
from .spectral_localization import (
    HOLDER_MIN_N,
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
    _count_window,
    clearest_eps,
    circle_average_green,
    count_annulus,
    find_zeros,
    green_annulus,
    jensen_identity_residual,
    riesz_decompose,
    riesz_kappa,
    riesz_mass,
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


_MAX_ENERGIES = 10 ** 5  # most energies, and (energy, n) tasks, one config plans
_MAX_LADDER = 64  # most n_ladder entries; a lyapunov task holds a snapshot of each


def _parse_energies(spec) -> Tuple[float, ...]:
    if not isinstance(spec, dict):
        if isinstance(spec, (list, tuple)) and len(spec) > _MAX_ENERGIES:
            raise ConfigError(f"energies must hold <= {_MAX_ENERGIES} entries")
        return _value(spec, (float,), None, "energies")  # a list in any order
    if set(spec) != {"start", "stop", "count"}:
        raise ConfigError("an energies range takes exactly start, stop and "
                          f"count, got {list(spec)}")
    start, stop = (_typed(spec[k], float, f"energies.{k}")
                   for k in ("start", "stop"))
    count = _value(spec["count"], int, 1, "energies.count")
    if count > _MAX_ENERGIES:  # refused before linspace allocates
        raise ConfigError(f"energies.count must be <= {_MAX_ENERGIES}")
    if not math.isfinite(stop - start):  # then every entry is finite too
        raise ConfigError(f"energies range {start:g}..{stop:g} overflows")
    return tuple(float(E) for E in np.linspace(start, stop, count))


def _parse_potential(spec) -> Potential:
    try:
        if isinstance(spec, str):
            return Potential.from_preset(spec)
        if isinstance(spec, dict):
            bad = set(spec) - {"coeffs"}
            if bad:
                raise ConfigError(f"unknown keys {sorted(bad)} in potential")
            # each [k, re, im] by the number rule of every other key
            return Potential(
                {_typed(k, int, "potential.coeffs k"):
                 complex(_typed(re, float, "potential.coeffs re"),
                         _typed(im, float, "potential.coeffs im"))
                 for k, re, im in spec["coeffs"]})
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
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


# Fixtures of the lab's checks, not parameters of the paper: the riesz
# annulus and flux-circle half-widths, the Jensen radii and the box phases
_R_EPS, _EPS_R, _JENSEN_RADII = 0.05, 0.02, (0.01, 0.04)
_LOCALIZE_THETA, _SPECTRUM_THETA = 0.0, 0.123

# The config schema, each key once: key -> (default, kind, least value), a
# nested dict being a section.  A kind is int or float (typed by _typed),
# [int] or [float] (a non-empty, strictly increasing list), (float,) (a
# non-empty list in any order), or a function that parses the value itself.
# The least value bounds a number or each entry of a list: below it a task
# would fail late, serve NaN or plan nothing.  A key whose default is None
# also takes null.
_CONFIG_TABLE: Dict[str, Any] = {
    "potential": ("amo(2.0)", _parse_potential, None),
    "alpha": ("golden", _parse_alpha, None),
    "energies": ([0.5], _parse_energies, None),
    "eps": (0.05, float, None),
    "eps_grid": ([0.02, 0.04, 0.06, 0.08, 0.1], [float], 0),
    "n": (512, int, 2),
    "n_ladder": ([100, 200, 400], [int], 2),
    "seed": (0, int, 0),
    "quadrature": {"K": (256, int, 1), "lyapunov_K": (1024, int, 1)},
    "ids": {"n": (2000, int, 100)},          # IDS estimates
    "holder": {"n": (2000, int, HOLDER_MIN_N)},
    "ldt": {"threshold": (None, float, None), "grid_per_n": (64, int, 64),
            "scan_count": (20, int, 0)},
    "localize": {"n": (1000, int, 500), "count": (10, int, 1)},
    "riesz": {"n_angles": (256, int, 1), "K": (4096, int, 1)},
    "strata": {"spectrum_box": (300, int, 1)},
}


def _defaults(table: Dict[str, Any]) -> Dict[str, Any]:
    return {k: _defaults(v) if isinstance(v, dict) else v[0]
            for k, v in table.items()}


_DEFAULTS = _defaults(_CONFIG_TABLE)


def _merge(base: Dict[str, Any], override: Dict[str, Any]) -> Dict[str, Any]:
    out = dict(base)
    for k, v in override.items():
        if isinstance(base.get(k), dict) and isinstance(v, dict):
            out[k] = _merge(base[k], v)
        else:
            out[k] = v
    return out


def _value(value, kind, least, key: str):
    """One table entry typed and checked; a ConfigError names its key."""
    if isinstance(kind, (list, tuple)):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{key} must be a non-empty list, got {value!r}")
        out = tuple(_value(v, kind[0], least, f"{key} entry") for v in value)
        if isinstance(kind, list) and any(b <= a for a, b in zip(out, out[1:])):
            raise ConfigError(f"{key} must be strictly increasing")
        return out
    if kind not in (int, float):
        return kind(value)
    out = _typed(value, kind, key)
    if least is not None and out < least:
        raise ConfigError(f"{key} must be >= {least}")
    return out


def _parse(table: Dict[str, Any], raw, where: str = "") -> Dict[str, Any]:
    """The typed value of each key of one table level, from its resolved raw
    dict (sections as namespaces); an unknown key is refused."""
    if not isinstance(raw, dict):
        raise ConfigError(f"section {where[:-1]!r} must be an object")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown config keys {[where + k for k in unknown]}")
    typed = {}
    for key, entry in table.items():
        name, value = where + key, raw[key]
        if isinstance(entry, dict):
            typed[key] = SimpleNamespace(**_parse(entry, value, name + "."))
        elif value is None and entry[0] is None:
            typed[key] = None
        else:
            typed[key] = _value(value, entry[1], entry[2], name)
    return typed


def _check_rules(c: ExperimentConfig) -> None:
    """The rules that tie keys together, checked once every key is typed."""
    if c.eps <= 0:
        raise ConfigError("eps must be positive")
    if len(c.eps_grid) < 2:
        raise ConfigError("eps_grid needs >= 2 entries")
    if c.eps_grid[-1] - c.eps_grid[0] < 1e-6:  # the slope fit's resolution
        raise ConfigError("eps_grid must span at least 1e-6")
    if len(c.n_ladder) > _MAX_LADDER:
        raise ConfigError(f"n_ladder must hold <= {_MAX_LADDER} entries")
    # riesz's slope window and flux circles lie inside _R_EPS
    reach = max(max(c.eps_grid), _R_EPS, _count_window(c.eps)[-1])
    try:
        c.potential._check_symbol_range(reach)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if c.localize.count > c.localize.n:  # indices past the box
        raise ConfigError("localize.count must be <= localize.n")


class ExperimentConfig(SimpleNamespace):
    """Validated experiment parameters: each key of `_CONFIG_TABLE`, typed
    once, is an attribute; a section is a namespace (`cfg.riesz.K`)."""

    @classmethod
    def from_raw(cls, raw: Dict[str, Any]) -> "ExperimentConfig":
        cfg = cls(**_parse(_CONFIG_TABLE, _merge(_DEFAULTS, raw)))
        _check_rules(cfg)
        return cfg


def config_hash(raw: Dict[str, Any]) -> str:
    """CRC-32 of the resolved config: a run label."""
    blob = json.dumps(_merge(_DEFAULTS, raw), sort_keys=True,
                      separators=(",", ":"))
    return f"{zlib.crc32(blob.encode('utf-8')):08x}"


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


# _fmt's strings for the cell types most cells have, keyed on the exact type
# so that those cells skip its isinstance chain; other types (bool) take _fmt
_FORMATS: Dict[type, Callable[[Any], str]] = {
    int: str, np.int64: str, float: "%.12g".__mod__,
    np.float64: "%.12g".__mod__, type(None): lambda v: "", str: str}


def _write_table(path: str, columns: Sequence[str],
                 rows: Sequence[Dict[str, Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_FORMATS.get(type(v), _fmt)(v)
                             for v in map(row.__getitem__, columns)])


# ----------------------------------------------------------------------
# task functions (run in worker processes; must stay module level)
# ----------------------------------------------------------------------

def _payload(tables: Optional[Dict[str, List[dict]]] = None,
             json_files: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    return {"tables": tables or {}, "json": json_files or {}}


def _certified(rows: List[dict], columns: Sequence[str]) -> List[dict]:
    """The rows, unless a certificate column is not finite: such a row
    certifies nothing, so its task fails and the reason names the column."""
    bad = [c for row in rows for c in columns if not math.isfinite(row[c])]
    if bad:
        raise ValueError(f"non-finite certificate column {bad[0]}")
    return rows


def _task_lyapunov(cfg: ExperimentConfig) -> Dict[str, Any]:
    K, grid = cfg.quadrature.lyapunov_K, (0.0,) + cfg.eps_grid
    L, err = lyapunov_n(cfg.potential, cfg.alpha, cfg.energies, cfg.n_ladder,
                        grid, K)
    rows = [{"E": E, "n": n, "K": K, "eps": eps, "L": L[i, j, k],
             "std_error": err[i, j, k]}
            for i, E in enumerate(cfg.energies)
            for j, n in enumerate(cfg.n_ladder) for k, eps in enumerate(grid)]
    return _payload({"lyapunov.csv": rows})


def _fit_segments(eps: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Label each grid point with a fitted affine segment id.

    A single segment unless a two-piece fit cuts the residual by 4x, which
    is the signature of a slope break inside the window."""
    m = len(eps)
    labels = np.zeros(m, dtype=int)
    if m < 5:
        return labels
    ssr = [line_fit(eps[:k], L[:k])[2] + line_fit(eps[k:], L[k:])[2]
           for k in range(2, m - 1)]
    k = 2 + int(np.argmin(ssr))  # the first best cut
    if ssr[k - 2] < 0.25 * line_fit(eps, L)[2]:
        labels[k:] = 1
    return labels


def _task_acceleration(cfg: ExperimentConfig) -> Dict[str, Any]:
    tables: Dict[str, List[dict]] = {"acceleration.csv": [],
                                     "accel_curve.csv": [],
                                     "accel_segments.csv": []}
    eps = np.asarray(cfg.eps_grid)  # strictly increasing, as fitted
    for E, est in zip(cfg.energies, acceleration(
            cfg.potential, cfg.alpha, cfg.energies, cfg.eps_grid, n=cfg.n,
            K=cfg.quadrature.K)):
        L = np.asarray(est.L_values)
        labels = (_fit_segments(eps, L) if est.non_affine
                  else np.zeros(len(eps), int))
        tables["accel_curve.csv"].extend(
            {"E": E, "eps": e, "L": v, "segment": int(s)}
            for e, v, s in zip(eps, L, labels))
        segments = []
        for s in sorted(set(labels.tolist())):
            sel = labels == s
            slope = line_fit(eps[sel], L[sel])[0] / TWO_PI
            segments.append({
                "E": E, "segment": int(s),
                "eps_min": float(eps[sel].min()),
                "eps_max": float(eps[sel].max()),
                "slope": slope, "kappa": int(round(slope)),
                "residual": abs(slope - round(slope))})
        tables["accel_segments.csv"].extend(segments)
        tables["acceleration.csv"].append({
            "E": E, "n": cfg.n, "K": cfg.quadrature.K,
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
        "multiplicity": 1,
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
    try:
        rep = zero_count_vs_acceleration(
            cfg.potential, cfg.alpha, E, cfg.eps, cfg.n_ladder,
            kappa_n=cfg.n, kappa_K=cfg.quadrature.K)
    except ValueError as exc:
        raise _Precondition(str(exc)) from exc
    rows = [{"E": E, "eps": cfg.eps, "kappa": rep.kappa,
             "L0": rep.L0, "n": n, "count": count,
             "ratio_per_2n": count / (2.0 * n), "deviation": dev,
             "decay_exponent": (math.nan if rep.decay_exponent is None
                                else rep.decay_exponent),
             "boundary_clear": rep.boundary_clear}
            for n, count, dev in zip(cfg.n_ladder, rep.counts, rep.deviations)]
    return _payload({"verify_acc_zeros.csv": rows})


def _task_green(cfg: ExperimentConfig, seed: int) -> Dict[str, Any]:
    R = math.exp(TWO_PI * _R_EPS)
    samples = 100
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
        # np.maximum, unlike max, keeps a NaN error
        err_avg = np.maximum(err_avg, abs(quad - circle_average_green(r, R, w)))
    rows = [{"check": check, "samples": m, "max_abs_err": err,
             "tol": tol, "passed": err <= tol}
            for check, m, err, tol in (
                ("boundary_zero", samples, err_boundary, 1e-10),
                ("symmetry", samples, err_sym, 1e-12),
                ("circle_average", samples // 4, err_avg, 1e-9))]
    return _payload({"green_suite.csv": _certified(rows, ["max_abs_err"])})


def _task_riesz(cfg: ExperimentConfig, E: float) -> Dict[str, Any]:
    sec = cfg.riesz
    R = math.exp(TWO_PI * _R_EPS)
    try:
        kappa = riesz_kappa(cfg.potential, cfg.alpha, E, _EPS_R,
                            kappa_n=cfg.n, kappa_K=cfg.quadrature.K)
    except ValueError as exc:
        raise _Precondition(str(exc)) from exc
    fam = det_family(cfg.potential, cfg.alpha, E, cfg.n)
    inv = find_zeros(fam)
    boundary_max_dev, mean_value_max_resid, h_min, h_max = riesz_decompose(
        fam, inv, R, sec.n_angles)
    L_ref = lyapunov_n(cfg.potential, cfg.alpha, E, cfg.n, _R_EPS,
                       cfg.quadrature.lyapunov_K)[0]
    # nudge the comparison circles off any zero moduli before Jensen;
    # the identity wants radii, clearest_eps works in half-width coords
    coords = inv.eps_coords()
    jr1, jr2 = _JENSEN_RADII
    r1 = clearest_eps(coords, 0.5 * jr1, jr1)
    r2 = clearest_eps(coords, jr2, min(1.5 * jr2, 0.9 * _R_EPS))
    jres = jensen_identity_residual(fam, inv, math.exp(TWO_PI * r1),
                                    math.exp(TWO_PI * r2), K=sec.K)
    mass_v, mass_u, count_ratio = riesz_mass(fam, inv, _EPS_R, sec.K)
    row = {"E": E, "n": cfg.n, "R_eps": _R_EPS,
           "boundary_max_dev": boundary_max_dev,
           "mean_value_max_resid": mean_value_max_resid,
           "h_min": h_min, "h_max": h_max, "L_ref": L_ref,
           "jensen_r1": r1, "jensen_r2": r2, "jensen_residual": jres,
           "eps_r": _EPS_R, "mass_v": mass_v, "mass_u": mass_u,
           "count_ratio": count_ratio, "kappa": kappa,
           "dev_from_2kappa": abs(mass_v - 2.0 * kappa)}
    return _payload({"riesz.csv": _certified([row], (
        "boundary_max_dev", "mean_value_max_resid", "h_min", "h_max",
        "jensen_residual"))})


def _task_ids(cfg: ExperimentConfig) -> Dict[str, Any]:
    values, spreads = ids(cfg.potential, cfg.alpha, cfg.energies, cfg.ids.n)
    return _payload({"ids.csv": [
        {"E": E, "n": cfg.ids.n, "value": value, "spread": spread}
        for E, value, spread in zip(cfg.energies, values, spreads)]})


def _task_holder(cfg: ExperimentConfig) -> Dict[str, Any]:
    betas, stderrs = holder_exponent(cfg.potential, cfg.alpha, cfg.energies,
                                     cfg.holder.n)
    return _payload({"holder.csv": [{
        "E0": E0, "n": cfg.holder.n, "beta": beta, "beta_stderr": stderr,
        "in_gap": math.isnan(beta), "message": "in gap, locally constant IDS"
        if math.isnan(beta) else "ok"} for E0, beta, stderr in zip(
            cfg.energies, betas.tolist(), stderrs.tolist())]})


def _task_strata(cfg: ExperimentConfig) -> Dict[str, Any]:
    L0s = lyapunov_n(cfg.potential, cfg.alpha, cfg.energies, cfg.n, 0.0,
                     cfg.quadrature.lyapunov_K)[0].tolist()
    accs = acceleration(cfg.potential, cfg.alpha, cfg.energies, cfg.eps_grid,
                        n=cfg.n, K=cfg.quadrature.K)
    box = cfg.strata.spectrum_box
    h = 10.0 / box  # in spectrum: a box eigenvalue lies in (E - h, E + h]
    lo, hi = sturm_count(cfg.potential, cfg.alpha, _SPECTRUM_THETA,
                         np.add.outer((-h, h), cfg.energies), box)
    rows = [{"E": E, "L0": L0, "kappa": acc.kappa, "residual": acc.residual,
             "non_affine": acc.non_affine, "in_spectrum": in_spec,
             "label": classify_stratum(L0, acc.kappa, acc.non_affine, in_spec)}
            for E, L0, acc, in_spec in zip(cfg.energies, L0s, accs,
                                           (hi > lo).tolist())]
    # the measure of each label, defined only on a uniform energy grid
    diffs = np.diff(cfg.energies)
    if not len(diffs) or (np.max(np.abs(diffs - diffs[0]))
                          > 1e-12 * max(1.0, abs(diffs[0]))):
        return _payload({"strata.csv": rows})
    width = float(abs(diffs[0]))
    measure: Dict[str, float] = {}
    for row in rows:
        measure[row["label"]] = measure.get(row["label"], 0.0) + width
    return _payload({"strata.csv": rows}, {"strata_summary.json": {
        "cell_width": width, "measure": measure}})


def _task_ldt(cfg: ExperimentConfig, E: float, seed: int,
              geom_name: str) -> Dict[str, Any]:
    sec = cfg.ldt
    try:
        geom = deviation_set(
            cfg.potential, cfg.alpha, E, cfg.n, threshold=sec.threshold,
            grid_size=sec.grid_per_n * cfg.n,
            lyapunov_K=cfg.quadrature.lyapunov_K)
    except ValueError as exc:
        raise _Precondition(str(exc)) from exc
    arows = [{"E": E, "n": geom.n, "threshold": geom.threshold, "arc": j,
              "left": left, "right": right, "width": right - left,
              "pair": int(geom.pair_map[j]) if geom.pair_map is not None else -2}
             for j, (left, right) in enumerate(geom.intervals)]
    rng = np.random.default_rng(seed)
    srows = []
    for s in range(sec.scan_count):
        theta = float(rng.uniform(0.0, 1.0))
        y = int(rng.integers(geom.n + 1, 10 * geom.n))
        j = double_resonance_scan(geom, theta, cfg.alpha, y)
        # with no arc there is nothing to resonate with: `clear` stays empty
        srows.append({"E": E, "scan": s, "theta": theta, "y": y,
                      "clear": j < 0 if geom.intervals else None,
                      "pair_index": j})
    return _payload({"ldt_arcs.csv": arows, "resonance_scan.csv": srows},
                    {geom_name: geom._asdict()})


# the expansion window of `localize`: _WINDOW_LEN + 1 sites from
# _WINDOW_MARGIN sites past the localization center (`tail_window`); the
# 500-site floor on localize.n always leaves room for it
_WINDOW_MARGIN, _WINDOW_LEN = 8, 120


def _task_localize(cfg: ExperimentConfig) -> Dict[str, Any]:
    sec = cfg.localize
    n, theta, count, wlen = sec.n, _LOCALIZE_THETA, sec.count, _WINDOW_LEN
    indices = np.arange(count) + (n // 2 - count // 2)
    evs = dirichlet_eigenvalues(cfg.potential, cfg.alpha, theta, n, indices)
    srows, prows = [], []
    for index, prof in zip(indices.tolist(), eigenfunction_decay(
            cfg.potential, cfg.alpha, theta, n, evs)):
        l1 = tail_window(prof.center, n, _WINDOW_MARGIN, wlen)
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
        absv, logv = np.abs(prof.eigenvector).tolist(), prof.log_abs.tolist()
        prows.extend({"index": index, "site": j, "abs_phi": absv[j],
                      "log_abs_phi": logv[j]} for j in range(n))
    return _payload({"localize_summary.csv": srows,
                     "decay_profiles.csv": prows})


def _task_criterion(cfg: ExperimentConfig, number: int) -> Dict[str, Any]:
    from .acceptance import run_criterion  # acceptance imports this module
    row = run_criterion(number)._asdict()
    if not row["passed"]:
        raise _GateFailed(row)
    return _payload({"acceptance.csv": [row]})


# ----------------------------------------------------------------------
# subcommand registry
# ----------------------------------------------------------------------

_Plan = List[Tuple[str, Dict[str, Any]]]


class _Subcommand(NamedTuple):
    """One subcommand: its tables (file -> columns, in write order), its
    module-level task function, and a plan of (task key, task params) in
    output order."""

    tables: Dict[str, List[str]]
    task: Callable[..., Dict[str, Any]]
    plan: Callable[[ExperimentConfig], _Plan]


def _per_energy(prefix: str) -> Callable[..., _Plan]:
    return lambda cfg: [(f"{prefix}[E={E:.6g}]", {"E": E})
                        for E in cfg.energies]


def _plan_zeros(cfg: ExperimentConfig) -> _Plan:
    # refused before the list is built: one task per (energy, n) pair
    if len(cfg.energies) * len(cfg.n_ladder) > _MAX_ENERGIES:
        raise ConfigError(f"energies x n_ladder = {len(cfg.energies)} x "
                          f"{len(cfg.n_ladder)} zeros tasks, more than "
                          f"{_MAX_ENERGIES}")
    return [(f"zeros[E={E:.6g},n={n}]", {"E": E, "n": n})
            for E in cfg.energies for n in cfg.n_ladder]


def _plan_verify(cfg: ExperimentConfig) -> _Plan:
    if cfg.eps < 1e-6:  # the slope window [0.2 eps, 1.2 eps] spans eps
        raise ConfigError("verify-acc-zeros needs eps >= 1e-6 to fit a slope")
    return _per_energy("verify")(cfg)


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
        _task_zeros, _plan_zeros),
    "verify-acc-zeros": _Subcommand(
        {"verify_acc_zeros.csv": ["E", "eps", "kappa", "L0", "n", "count",
                                  "ratio_per_2n", "deviation",
                                  "decay_exponent", "boundary_clear"]},
        _task_verify, _plan_verify),
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
        _task_ids, lambda cfg: [("ids[all]", {})]),
    "holder": _Subcommand(
        {"holder.csv": ["E0", "n", "beta", "beta_stderr", "in_gap",
                        "message"]},
        _task_holder, lambda cfg: [("holder[all]", {})]),
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


def _run_task(subcommand: str, cfg: ExperimentConfig, key: str,
              params: Dict[str, Any]):
    t0 = time.perf_counter()
    try:
        spec = _REGISTRY[subcommand]
        payload = spec.task(cfg, **params)
        for fname, rows in payload["tables"].items():
            # a row must hold exactly its table's columns, or a misspelled
            # key would be written as a blank cell
            cols = set(spec.tables[fname])
            for row in rows:
                if row.keys() != cols:
                    raise ValueError(
                        f"{fname} row misses {sorted(cols - row.keys())} "
                        f"and adds {sorted(row.keys() - cols)}")
        return key, "ok", payload, "", time.perf_counter() - t0
    except _Precondition as exc:
        return key, "skipped", _payload(), str(exc), time.perf_counter() - t0
    except _GateFailed as exc:
        return (key, "failed", _payload({"acceptance.csv": [exc.row]}),
                str(exc), time.perf_counter() - t0)
    except Exception as exc:  # sibling tasks keep running; manifest records it
        msg = f"{type(exc).__name__}: {exc}"
        return key, "failed", _payload(), msg, time.perf_counter() - t0


_WORKER: Tuple[Any, ...] = ()  # a pool worker's (subcommand, typed config)


def _init_worker(subcommand: str, cfg: ExperimentConfig) -> None:
    """Each pool worker receives the config once, when it starts, so that
    a work item is only a (task key, task params) pair."""
    global _WORKER
    _WORKER = (subcommand, cfg)


def _worker_task(item: Tuple[str, Dict[str, Any]]):
    return _run_task(*_WORKER, *item)


# ----------------------------------------------------------------------
# run driver
# ----------------------------------------------------------------------

class RunManifest(NamedTuple):
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


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _load_config(config) -> Dict[str, Any]:
    if config is None:
        return {}
    if isinstance(config, dict):
        return config
    with open(config, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config JSON must be an object")
    return raw


def run(subcommand: str, config=None, out_dir: str = "runs",
        threads: int = 1, dry_run: bool = False) -> RunManifest:
    """Plan and execute one subcommand; returns the manifest.

    `config` is a dict, a path to a JSON file, or None for pure defaults;
    it alone sets the seed.  Results land in CSV/JSON files under out_dir;
    planning order fixes row order, so thread count never changes a byte.
    """
    if subcommand not in _REGISTRY:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    raw = _load_config(config)
    cfg = ExperimentConfig.from_raw(raw)
    started = _utc_now()
    spec = _REGISTRY[subcommand]
    plan = spec.plan(cfg)

    if dry_run:
        print(f"dry run: {len(plan)} task(s), nothing computed")
        for key, _ in plan:
            print(f"  {key}")
        return RunManifest(subcommand, __version__, config_hash(raw),
                           cfg.seed, threads, out_dir, started, _utc_now(),
                           tuple({"key": key, "status": "planned",
                                  "seconds": 0.0, "error": ""}
                                 for key, _ in plan), ())

    if threads > 1 and len(plan) > 1:
        from concurrent.futures import ProcessPoolExecutor
        # under the fork start method every worker is forked up front, so
        # ask for no more workers than there are tasks or usable cores
        cores = (len(os.sched_getaffinity(0))
                 if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        workers = min(threads, len(plan), cores)
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(subcommand, cfg)) as pool:
            results = list(pool.map(_worker_task, plan))
    else:
        results = [_run_task(subcommand, cfg, *task) for task in plan]

    os.makedirs(out_dir, exist_ok=True)
    tables: Dict[str, List[dict]] = {f: [] for f in spec.tables}
    json_files: Dict[str, Any] = {}
    task_records = []
    for key, status, payload, err, secs in results:
        task_records.append({"key": key, "status": status,
                             "seconds": round(secs, 3), "error": err})
        for fname, rows in payload["tables"].items():
            tables[fname].extend(rows)
        json_files.update(payload["json"])

    files = []
    for fname, columns in spec.tables.items():
        _write_table(os.path.join(out_dir, fname), columns, tables[fname])
        files.append(fname)
    for fname, obj in json_files.items():
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
        files.append(fname)

    manifest = RunManifest(subcommand, __version__, config_hash(raw),
                           cfg.seed, threads, out_dir, started, _utc_now(),
                           tuple(task_records), tuple(files))
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest._asdict(), fh, indent=2, sort_keys=True)
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
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--threads", type=int, default=1)
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
                       threads=args.threads, dry_run=args.dry_run)
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
