"""strata-lab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's CLI calls are generated from
the seed (see workloads.py), written as config files and run through the
`strata-lab` entry point, `strata_lab.cli_harness.main` with `--threads 1`,
one fresh process per call, one call at a time (a closed loop).  Whole
workload instances repeat until S seconds have passed.  Every output is checked
(checks.py) and compared byte for byte with the other instances and with
earlier runs of the same seed and code.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 one traced instance follows the timed
ones and the line holds the per-layer metrics (tracer.py).  The lines
before it print every metric by name with its unit, plus the environment.
A fuller record goes to .perfbench_runs/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
import workloads

HERE = Path(__file__).resolve().parent

CALL_TIMEOUT_S = 120.0    # one CLI call; the slowest, the zeros frontier, takes ~15-25 s
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

# (name, unit) as printed; the JSON line carries the ones in BENCHMARK.json
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("served_frac", "1"), ("completed_frac", "1")]
REPORTED_ONLY = [("failed_frac", "1"), ("check_failures", "count")]


def _layer(fn: str, *stats: str) -> List[str]:
    return [f"{fn}.{s}" for s in stats]


PER_LAYER = (
    _layer("cocycle.transfer_log_norms", "calls", "self_s", "phase_steps")
    + _layer("model.eval_theta", "calls", "self_s")
    + _layer("model.eval_z", "calls", "self_s")
    + _layer("determinant.det_at_phase", "calls", "self_s", "steps")
    + _layer("spectral_localization.deviation_set", "calls", "self_s", "arcs",
             "evals_per_endpoint")
    + _layer("zeros_potential.aberth_roots", "calls", "self_s", "degree",
             "raised", "certified_frac")
    + _layer("zeros_potential.find_zeros", "self_s")
    + _layer("determinant.det_family", "calls", "self_s", "coeff_steps", "raised")
    + _layer("zeros_potential.green_annulus", "calls", "self_s", "pairs")
    + [f"zeros_potential.{fn}.self_s" for fn in
       ("green_potential", "riesz_decompose", "jensen_identity_residual",
        "riesz_mass")]
    + _layer("determinant.eval_circle_log", "calls", "self_s", "points")
    + _layer("determinant.eval_log", "calls", "self_s", "points")
    + _layer("spectral_localization.sturm_count", "calls", "self_s", "steps")
    + _layer("spectral_localization.dirichlet_eigenvalues", "calls", "self_s")
    + _layer("spectral_localization.dirichlet_eigenpair", "calls", "self_s")
    + _layer("spectral_localization.expansion_identity_check", "calls", "raised")
    + _layer("cli_harness.run", "self_s", "bytes_written")
    + ["tracer.wall_s", "tracer.overhead_s", "tracer.other_self_s"]
)


def per_layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {"self_s": "s", "wall_s": "s", "overhead_s": "s",
            "other_self_s": "s", "certified_frac": "1",
            "bytes_written": "B"}.get(stat, "count")


# ----------------------------------------------------------------------
# running calls
# ----------------------------------------------------------------------

class Bench:
    """Runs the CLI calls of one workload under a scratch directory."""

    def __init__(self, root: Path, calls: List[workloads.Call], work: Path):
        self.src = root / "src"
        self.calls = calls
        self.work = work
        self.env = dict(os.environ, **PINNED_THREADS)
        self.configs = []
        work.mkdir(parents=True)
        for i, call in enumerate(calls):
            path = work / f"config_{i}.json"
            path.write_text(json.dumps(call.config, indent=1, sort_keys=True))
            self.configs.append(path)

    def call(self, i: int, out: Path, mode: str) -> Dict:
        """Launch CLI call i in a fresh process; returns its timings and status."""
        out.mkdir(parents=True)
        timing = out / "timing.json"
        cmd = [sys.executable, str(HERE / "launch.py"), str(self.src),
               str(timing), mode, "--", self.calls[i].subcommand,
               "--config", str(self.configs[i]), "--out", str(out / "out"),
               "--threads", "1"]
        rec: Dict = {"call": i, "mode": mode, "error": ""}
        t_spawn = time.monotonic()
        try:
            with open(out / "cli.log", "wb") as log:
                proc = subprocess.run(cmd, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rec["error"] = f"timed out after {CALL_TIMEOUT_S:g} s"
            return rec
        if proc.returncode != 0 or not timing.exists():
            rec["error"] = f"launcher exited with {proc.returncode}"
            return rec
        marks = json.loads(timing.read_text())
        if "first_task" not in marks:
            rec["error"] = f"no task started (CLI exit {marks['rc']})"
            return rec
        rec.update(setup_s=marks["first_task"] - t_spawn,
                   wall_s=marks["end"] - marks["first_task"],
                   peak_rss_mb=marks["peak_rss_mb"], rc=marks["rc"])
        if mode == "setup":
            return rec
        manifest = out / "out" / "manifest.json"
        if not manifest.exists():
            rec["error"] = f"no manifest (CLI exit {marks['rc']})"
            return rec
        tasks = json.loads(manifest.read_text())["tasks"]
        rec["tasks"] = [t["status"] for t in tasks]
        rec["task_seconds"] = {t["key"]: t["seconds"] for t in tasks}
        if not self.calls[i].frontier and any(s == "failed" for s in rec["tasks"]):
            rec["error"] = "a task outside the frontier failed"
        rec["digests"] = checks.digests(str(out / "out"))
        if mode == "trace":
            spans = json.loads((out / "timing.json.spans.json").read_text())
            rec["layers"] = spans["summary"]
        return rec

    def instance(self, tag: str, mode: str = "run") -> Tuple[List[Dict], List[Dict]]:
        """One pass over the calls: (call records, set-up probe records).

        In `run` mode a set-up probe of each call, stopped at its first task,
        runs just before it, so the probes see the same stretches of host
        speed as the calls they sit between."""
        calls, probes = [], []
        for i in range(len(self.calls)):
            if mode == "run":
                probes.append(self.call(i, self.work / tag / f"setup_{i}", "setup"))
            calls.append(self.call(i, self.work / tag / f"call_{i}", mode))
        return calls, probes


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def instance_wall(inst: List[Dict]) -> float:
    return sum(c["wall_s"] for c in inst)


def merge_layers(inst: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Sum the tracer summaries of an instance's calls."""
    layers: Dict[str, Dict[str, float]] = {}
    for c in inst:
        for name, stats in c["layers"].items():
            agg = layers.setdefault(name, {})
            for k, v in stats.items():
                agg[k] = agg.get(k, 0) + v
    return layers


def layer_metrics(layers: Dict[str, Dict[str, float]], traced_wall: float,
                  untraced_wall: float) -> Dict[str, float]:
    def stat(fn: str, key: str) -> float:
        return layers.get(fn, {}).get(key, 0)

    listed = {m.rsplit(".", 1)[0] for m in PER_LAYER if m.endswith(".self_s")}
    out = {}
    for m in PER_LAYER:
        fn, key = m.rsplit(".", 1)
        if key == "certified_frac":
            deg = stat(fn, "degree")
            out[m] = stat(fn, "certified") / deg if deg else 0.0
        elif key == "evals_per_endpoint":
            arcs = stat(fn, "arcs")
            out[m] = stat(fn, "det_at_phase_calls") / (2 * arcs) if arcs else 0.0
        elif m == "tracer.wall_s":
            out[m] = traced_wall
        elif m == "tracer.overhead_s":
            out[m] = traced_wall - untraced_wall
        elif m == "tracer.other_self_s":
            out[m] = sum(s["self_s"] for n, s in layers.items() if n not in listed)
        else:
            out[m] = stat(fn, key)
    return out


# ----------------------------------------------------------------------
# environment and code identity
# ----------------------------------------------------------------------

def code_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + [HERE / "workloads.py"]:
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path) -> Dict:
    import numpy as np
    import scipy

    def blas(mod) -> Optional[str]:
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except Exception:  # older releases print instead of returning dicts
            return None

    sha = None
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        sha = res.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "code_hash": code_hash(root),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(np),
            "scipy_blas": blas(scipy), "pinned_threads": PINNED_THREADS}


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> Dict:
    """Run the workload and return the full record (metrics, checks, env)."""
    calls = workloads.generate(workload, seed, tiny)
    runs = root / ".perfbench_runs"
    bench = Bench(root, calls, runs / f"{workload}-{seed}-{os.getpid()}")
    try:
        instances: List[List[Dict]] = []
        setups: List[Dict] = []
        t0 = time.monotonic()
        while not instances or time.monotonic() - t0 < seconds:
            inst, probes = bench.instance(f"inst_{len(instances)}")
            instances.append(inst)
            setups += probes
        traced = bench.instance("traced", "trace")[0] if trace else None
        certs = [checks.certificates(str(bench.work / "inst_0" / f"call_{i}" / "out"))
                 for i in range(len(calls))]
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    every = [c for inst in instances + ([traced] if traced else []) for c in inst]
    every_setup = setups + every
    problems = [f"call {c['call']} ({c['mode']}): {c['error']}"
                for c in every_setup if c["error"]]
    check_list = [chk for cs in certs for chk in cs]

    # byte identity: every instance, the traced one, and earlier runs
    store = runs / "digests" / f"{workload}-{seed}-{'tiny-' if tiny else ''}{code_hash(root)}.json"
    reference = [c.get("digests") for c in instances[0]]
    if store.exists():
        reference = json.loads(store.read_text())
    elif all(d is not None for d in reference):
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(reference, indent=1))
    for c in every:
        if c.get("digests") is None:
            continue
        ref = reference[c["call"]] or {}
        for name in sorted(set(ref) | set(c["digests"])):
            check_list.append((f"call_{c['call']}/{name}.bytes_identical",
                               ref.get(name) == c["digests"].get(name), c["mode"]))

    tasks = [s for c in every if "tasks" in c for s in c["tasks"]]
    attempted = max(1, len(tasks))
    # instances whose calls all ran to the end have timings, even if a task failed
    complete = [inst for inst in instances if all("wall_s" in c for c in inst)]
    failures = [chk for chk in check_list if not chk[1]]
    setup_samples = [c["setup_s"] for c in every_setup if "setup_s" in c]
    med = statistics.median
    e2e = {
        "wall_s": med([instance_wall(i) for i in complete]) if complete else 0.0,
        "setup_s": med(setup_samples) if setup_samples else 0.0,
        "peak_rss_mb": med([max(c["peak_rss_mb"] for c in i) for i in complete])
        if complete else 0.0,
        "served_frac": tasks.count("ok") / attempted,
        "completed_frac": 1.0 - tasks.count("failed") / attempted,
        "failed_frac": tasks.count("failed") / attempted,
        "check_failures": len(failures),
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "why": workloads.WORKLOADS[workload].why,
        "recipe": workloads.WORKLOADS[workload].recipe,
        "configs": [{"subcommand": c.subcommand, "config": c.config,
                     "frontier": c.frontier} for c in calls],
        "environment": environment(root),
        "instances": len(instances), "instance_wall_s": [instance_wall(i) for i in complete],
        "calls": [{k: v for k, v in c.items() if k not in ("digests", "layers")}
                  for c in every_setup],
        "setup_samples": len(setup_samples),
        "end_to_end": e2e, "problems": problems,
        "checks_run": len(check_list), "check_failures": [list(f) for f in failures],
        "correct": not failures and not problems,
        "attempted": len(every), "failed": len([c for c in every if c["error"]]),
    }
    if traced is not None:
        ok = all("layers" in c for c in traced)
        record["correct"] = record["correct"] and ok
        layers = merge_layers(traced) if ok else {}
        record["per_layer"] = layer_metrics(layers, instance_wall(traced),
                                            e2e["wall_s"]) if ok else {}
        ranked = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
        record["hottest"] = [f"{n} {s['self_s']:.3f}s" for n, s in ranked[:5]]
        record["self_total_s"] = sum(s["self_s"] for s in layers.values())
    results = runs / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return record


def report(record: Dict) -> str:
    """Human-readable lines, then the one-line JSON result."""
    env = record["environment"]
    e2e = record["end_to_end"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  "
        f"seconds {record['seconds']:g}  trace {int(record['trace'])}",
        "env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "pinned_threads")
        + " threads=" + ",".join(f"{k}={v}" for k, v in env["pinned_threads"].items()),
        f"instances {record['instances']}  setup samples {record['setup_samples']}  "
        f"checks {record['checks_run']}",
    ]
    for name, unit in END_TO_END + REPORTED_ONLY:
        lines.append(f"  {name:<16} {e2e[name]:<14.6g} {unit}")
    for p in record["problems"]:
        lines.append(f"problem: {p}")
    for f in record["check_failures"]:
        lines.append(f"check failed: {f[0]} ({f[2]})")
    if record["trace"]:
        lines.append("hottest (self time): " + "; ".join(record["hottest"]))
        lines.append(f"traced wall {record['per_layer'].get('tracer.wall_s', 0):.3f} s "
                     f"(first task to last output); self times of all traced "
                     f"calls sum to {record['self_total_s']:.3f} s (whole entry point)")
        metrics = {m: {"value": v, "unit": per_layer_unit(m)}
                   for m, v in record["per_layer"].items()}
        for m, v in metrics.items():
            lines.append(f"  {m:<56} {v['value']:<14.6g} {v['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    lines.append(json.dumps(result))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; not comparable with full runs")
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "strata_lab" / "cli_harness.py").is_file():
        print(f"error: no strata_lab sources under {root / 'src'}", file=sys.stderr)
        return 2
    record = measure(root, args.workload, args.seed, args.seconds,
                     bool(args.trace), args.tiny)
    print(report(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
