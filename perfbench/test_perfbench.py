"""Smoke tests for the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _tiny(workload: str, trace: int):
    res = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--tiny")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in workloads.WORKLOADS.values()
         if w.name not in workloads.MANUAL_ONLY}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(m, run.per_layer_unit(m)) for m in run.PER_LAYER]


def test_generator_depends_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 5) == workloads.generate(name, 5)
        assert workloads.generate(name, 5) != workloads.generate(name, 6)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_and_counts_repeat(workload):
    human, result = _tiny(workload, trace=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in run.END_TO_END + run.REPORTED_ONLY:
        assert any(ln.split()[:1] == [name] and ln.split()[-1] == unit
                   for ln in human), name
    assert list(result["metrics"]) == run.PER_LAYER
    _, again = _tiny(workload, trace=1)
    for name, m in result["metrics"].items():
        assert m["unit"] == run.per_layer_unit(name)
        if m["unit"] not in ("s", "1"):   # calls and work counts are exact
            assert again["metrics"][name]["value"] == m["value"], name


def test_untraced_result_holds_the_end_to_end_metrics():
    _, result = _tiny("riesz-potential", trace=0)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_csv_is_a_check_failure(tmp_path):
    calls = workloads.generate("riesz-potential", 3, tiny=True)
    bench = run.Bench(ROOT, calls, tmp_path / "work")
    rec = bench.call(0, tmp_path / "call", "run")
    assert rec["error"] == "" and rec["tasks"] == ["ok"]
    out = tmp_path / "call" / "out"
    assert all(ok for _, ok, _ in checks.certificates(str(out)))
    path = out / "riesz.csv"
    header, row = path.read_text().splitlines()
    cols = header.split(",")
    vals = row.split(",")
    vals[cols.index("jensen_residual")] = "0.5"
    path.write_text(header + "\n" + ",".join(vals) + "\n")
    failed = [name for name, ok, _ in checks.certificates(str(out)) if not ok]
    assert failed == [f"riesz[E={vals[0]}].jensen_residual"]
    assert checks.digests(str(out)) != rec["digests"]


def test_call_refused_before_its_first_task_fails_the_run(monkeypatch):
    bad = [workloads.Call("riesz", {"energies": {"start": 0.0, "stop": 1.0,
                                                 "count": 0}})]
    monkeypatch.setattr(workloads, "generate", lambda *args, **kwargs: bad)
    record = run.measure(ROOT, "riesz-potential", 3, 0.1, trace=False, tiny=True)
    assert record["failed"] == record["attempted"] == 1
    assert record["problems"] and all("no task started (CLI exit 2)" in p
                                      for p in record["problems"])
    assert json.loads(run.report(record).splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _bench("--workload", "strip-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0 and res.stdout == ""
