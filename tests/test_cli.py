import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from strata_lab import cli_harness
from strata_lab.cli_harness import (SUBCOMMANDS, ConfigError,
                                    ExperimentConfig, _fmt, config_hash, main,
                                    run)

SMALL = {
    "energies": [0.5],
    "n": 64,
    "n_ladder": [30],
    "eps_grid": [0.02, 0.05],
    "seed": 1,
}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------- config

@pytest.mark.parametrize("raw", [
    {"bogus_key": 1},
    {"eps": -0.01},
    {"eps": 0.6},                              # reaches outside the strip
    {"eps_grid": [0.05]},
    {"eps_grid": [-0.01, 0.05]},
    {"alpha": "bogus"},
    {"potential": "cos(2)"},
    {"energies": {"start": 0.0, "stop": 1.0, "qty": 3}},
    {"energies": {"start": 0.0, "stop": 1.0, "count": 0}},
    {"energies": 0.5},
    {"riesz": {"jensen_radii": [0.04, 0.01]}},
    {"quadrature": {"K": 0}},                  # NaN slope, late failure
    {"quadrature": {"lyapunov_K": 0}},         # would serve L = nan
    {"riesz": {"n_radii": 2}},
    {"riesz": {"K": 0}},
    {"riesz": {"n_angles": 0}},
    {"strata": {"spectrum_box": 0}},
    {"ldt": {"grid_per_n": 8}},                # was a late "skipped"
    {"localize": {"n": 600, "window_len": 700}},
    {"localize": {"n": 600, "window_len": 598}},
    # values that do not convert, named by key instead of a traceback
    {"n": "abc"},
    {"eps_grid": ["x", 0.1]},
    {"eps_grid": 0.1},
    {"eps": float("nan")},
    {"alpha": [0.5]},
    {"energies": ["a"]},
    {"energies": {"start": 0.0, "stop": 1.0}},
    {"riesz": 5},
    {"riesz": {"jensen_radii": ["a", 0.02]}},
    {"localize": {"window_len": "x"}},
    # sizes that used to pass validation and fail every task
    {"localize": {"n": 499, "window_len": 120}},   # decay needs n >= 500
    {"ids": {"n": 99}},                            # IDS needs n >= 100
    {"ids": {"samples": 0}},
    {"holder": {"n": 99, "delta_ladder": [1e-3, 1e-2, 1e-1]}},
    {"holder": {"n": 316}},                        # 10/n^2 above 1e-4
    {"holder": {"delta_ladder": [1e-3, 1e-2]}},
    {"green": {"samples": 3}},                     # no circle-average sample
    # plans with no task, which exited 0 with header-only tables
    {"energies": []},
    {"n_ladder": []},
    {"localize": {"count": 0}},
    {"localize": {"count": -2}},
    {"localize": {"n": 500, "count": 501}},        # plans index 500 of 500
    {"localize": {"window_margin": -1}},
    {"ldt": {"scan_count": -1}},
    # section floats that used to fail or skip inside the task
    {"strata": {"tau_pos": "x"}},
    {"strata": {"spectrum_theta": "x"}},
    {"localize": {"theta": "x"}},
    {"green": {"boundary_tol": "x"}},
    {"green": {"symmetry_tol": "x"}},
    {"green": {"average_tol": [1e-9]}},
    {"riesz": {"eps_r": "x"}},
    {"ldt": {"threshold": "x"}},
    {"ldt": {"scan_count": "x"}},
    # L(E, eps) evaluated past the strip by a task's own window
    {"riesz": {"eps_r": 0.35}},                    # window top 1.6 eps_r
    {"riesz": {"eps_r": 0.3125}},                  # ... exactly at eta
    {"riesz": {"eps_r": 0.0}},
    {"riesz": {"eps_r": -0.02}},
    {"eps": 0.45},                                 # verify window top 1.2 eps
    # integer keys take integers: these ran truncated or as 1
    {"riesz": {"n_angles": 64.5}},
    {"n": 100.9},
    {"n_ladder": [100.5, 200]},
    {"quadrature": {"K": True}},
    {"strata": {"tau_pos": True}},                 # a boolean is not a number
    # numeric strings ran the number under a different config hash
    {"n": "64"},
    {"strata": {"tau_pos": "0.05"}},
    {"energies": ["0.5"]},
])
def test_config_rejections(raw):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_raw(raw)


def test_config_accepts_the_minimums():
    ExperimentConfig.from_raw({
        "quadrature": {"K": 1, "lyapunov_K": 1},
        "riesz": {"n_radii": 3, "K": 1, "n_angles": 1},
        "strata": {"spectrum_box": 1},
        "ldt": {"grid_per_n": 64},
        "localize": {"n": 500, "window_len": 497},
        "ids": {"n": 100, "samples": 1},
        "holder": {"n": 100, "delta_ladder": [1e-3, 1e-2, 1e-1]},
        "green": {"samples": 4},
    })
    ExperimentConfig.from_raw({"holder": {"n": 317}})  # the default ladder
    ExperimentConfig.from_raw({"ldt": {"threshold": None}})
    ExperimentConfig.from_raw({"ldt": {"threshold": 0.05, "scan_count": 0}})
    ExperimentConfig.from_raw({"riesz": {"eps_r": 0.3124}, "eps": 0.41})
    ExperimentConfig.from_raw({"ids": {"samples": 8.0}})  # an integral float


def test_riesz_flux_circles_count_in_the_strip_reach():
    # on a thin strip the outer flux circle eps_r + 2e-3 reaches further
    # than the slope window top 1.6 eps_r
    thin = {"potential": {"coeffs": [[1, 2.0, 0.0], [-1, 2.0, 0.0]],
                          "eta": 0.004},
            "eps": 0.001, "eps_grid": [0.001, 0.002],
            "riesz": {"R_eps": 0.003, "jensen_radii": [0.001, 0.002]}}
    ExperimentConfig.from_raw(dict(thin, riesz=dict(thin["riesz"],
                                                    eps_r=0.0019)))
    with pytest.raises(ConfigError, match="strip"):
        ExperimentConfig.from_raw(dict(thin, riesz=dict(thin["riesz"],
                                                        eps_r=0.0021)))


@pytest.mark.parametrize("section,key", [
    ("strata", "tau_pos"), ("strata", "spectrum_theta"), ("localize", "theta"),
    ("green", "boundary_tol"), ("green", "symmetry_tol"), ("riesz", "eps_r"),
    ("ldt", "threshold")])
def test_bad_section_float_names_its_key(section, key):
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        ExperimentConfig.from_raw({section: {key: "abc"}})


def test_largest_accepted_eps_r_is_served(tmp_path):
    man = run("riesz", config={"riesz": {"eps_r": 0.3124}, "n": 64},
              out_dir=str(tmp_path))
    assert [t["status"] for t in man.tasks] == ["ok"]
    assert read_rows(tmp_path / "riesz.csv")[1][11] == "0.3124"  # eps_r


def test_main_bad_value_exits_two_naming_the_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"eps_grid": ["x", 0.1]}))
    assert main(["localize", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out"), "--dry-run"]) == 2
    assert "eps_grid" in capsys.readouterr().err


def test_config_energy_range_form():
    cfg = ExperimentConfig.from_raw(
        {"energies": {"start": -1.0, "stop": 1.0, "count": 5}})
    assert cfg.energies == tuple(np.linspace(-1.0, 1.0, 5))


def test_config_hash_ignores_out_dir_only():
    assert config_hash({}) == config_hash({"out_dir": "elsewhere"})
    assert config_hash({}) != config_hash({"seed": 1})
    assert config_hash(SMALL) == config_hash(dict(SMALL))


def test_fmt_is_locale_free():
    assert _fmt(True) == "1"
    assert _fmt(False) == "0"
    assert _fmt(None) == ""
    assert _fmt(5) == "5"
    assert _fmt(1.0 / 3.0) == "0.333333333333"


def test_unknown_subcommand():
    with pytest.raises(ConfigError):
        run("frobnicate", config=SMALL)


# ------------------------------------------------------------------ runs

def test_lyapunov_run_writes_expected_tables(tmp_path):
    man = run("lyapunov", config=SMALL, out_dir=str(tmp_path))
    assert man.ok
    assert man.subcommand == "lyapunov"
    assert man.config_hash == config_hash(SMALL)
    assert set(man.files) == {"lyapunov.csv"}
    assert (tmp_path / "manifest.json").exists()
    rows = read_rows(tmp_path / "lyapunov.csv")
    header, data = rows[0], rows[1:]
    assert "E" in header and "eps" in header
    # eps sweep includes the real phase plus the whole grid
    assert len(data) == 1 + len(SMALL["eps_grid"])
    meta = json.loads((tmp_path / "manifest.json").read_text())
    assert meta["subcommand"] == "lyapunov"
    assert meta["config_hash"] == man.config_hash


def test_reruns_and_threads_are_byte_identical(tmp_path):
    outs = {}
    for tag, threads in (("a", 1), ("b", 1), ("c", 2)):
        d = tmp_path / tag
        run("zeros", config=SMALL, out_dir=str(d), threads=threads)
        outs[tag] = {p.name: p.read_bytes() for p in d.glob("*.csv")}
    assert outs["a"] == outs["b"]
    assert outs["a"] == outs["c"]


def test_seed_override_changes_hash(tmp_path):
    man = run("lyapunov", config=SMALL, out_dir=str(tmp_path), seed=99)
    assert man.seed == 99
    assert man.config_hash == config_hash(dict(SMALL, seed=99))


def test_dry_run_writes_nothing(tmp_path):
    man = run("zeros", config=SMALL, out_dir=str(tmp_path), dry_run=True)
    assert len(man.tasks) > 0
    assert list(tmp_path.iterdir()) == []


def test_empty_energies_exit_two_and_write_nothing(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(SMALL, energies=[])))
    assert main(["ids", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "energies" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gap_precondition_is_skipped_not_failed(tmp_path):
    man = run("verify-acc-zeros", config=dict(SMALL, energies=[1.5]),
              out_dir=str(tmp_path))
    assert man.ok
    assert [t["status"] for t in man.tasks] == ["skipped"]
    assert "slope break" in man.tasks[0]["error"]


def test_riesz_kink_is_skipped_not_failed(tmp_path):
    # L(E, eps) has a kink inside the riesz slope window at this energy
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"energies": [0.80232244], "n": 64}))
    code = main(["riesz", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    meta = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [t["status"] for t in meta["tasks"]] == ["skipped"]
    assert "non-affine" in meta["tasks"][0]["error"]
    assert len(read_rows(tmp_path / "out" / "riesz.csv")) == 1  # header only


@pytest.mark.parametrize("subcommand", ["riesz", "green"])
def test_thin_annulus_is_skipped_up_front(subcommand, tmp_path):
    # R_eps = 0.005 would need 184 image orders for the 1e-10 Green tail
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"n": 64, "riesz": {"R_eps": 0.005, "jensen_radii": [0.001, 0.004]}}))
    t0 = time.perf_counter()
    code = main([subcommand, "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    meta = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [t["status"] for t in meta["tasks"]] == ["skipped"]
    assert "annulus too thin" in meta["tasks"][0]["error"]


def _ids_raises(*args, **kwargs):
    raise ValueError("IDS estimate failed")


def test_failed_task_keeps_other_outputs(tmp_path, monkeypatch):
    # a task that raises is marked failed; its table still gets headers
    monkeypatch.setattr(cli_harness, "ids", _ids_raises)
    man = run("ids", config=SMALL, out_dir=str(tmp_path))
    assert not man.ok
    assert man.n_failed == 1
    assert (tmp_path / "ids.csv").exists()


def test_ldt_run_writes_geometry_json(tmp_path):
    cfg = dict(SMALL, ldt={"threshold": 0.05, "grid_per_n": 4096,
                           "scan_count": 2})
    man = run("ldt", config=cfg, out_dir=str(tmp_path))
    assert man.ok
    assert (tmp_path / "ldt_geometry_0.json").exists()
    geom = json.loads((tmp_path / "ldt_geometry_0.json").read_text())
    assert geom["n"] == SMALL["n"]
    assert len(read_rows(tmp_path / "resonance_scan.csv")) >= 2


def test_ldt_lyapunov_value_follows_the_quadrature_key(tmp_path):
    values = []
    for K in (64, 1024):
        out = tmp_path / str(K)
        cfg = dict(SMALL, quadrature={"lyapunov_K": K})
        assert run("ldt", config=cfg, out_dir=str(out)).ok
        geom = json.loads((out / "ldt_geometry_0.json").read_text())
        values.append(geom["lyapunov_value"])
    assert values[0] != values[1]


def test_strata_uniform_grid_writes_summary(tmp_path):
    cfg = dict(SMALL, energies={"start": -1.0, "stop": 1.0, "count": 5},
               strata={"tau_pos": 0.05, "spectrum_box": 120,
                       "spectrum_theta": 0.123})
    man = run("strata", config=cfg, out_dir=str(tmp_path))
    assert man.ok
    summary = json.loads((tmp_path / "strata_summary.json").read_text())
    assert summary["cell_width"] == pytest.approx(0.5)
    assert sum(summary["measure"].values()) == pytest.approx(0.5 * 5)


# ------------------------------------------------------------------ main

def test_main_green_exits_zero(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    code = main(["green", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "green_suite.csv").exists()


def test_main_config_error_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bogus_key": 1}))
    assert main(["lyapunov", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_main_missing_config_exits_two(tmp_path):
    assert main(["lyapunov", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 2


def test_main_failed_task_exits_three(tmp_path, monkeypatch):
    monkeypatch.setattr(cli_harness, "ids", _ids_raises)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    assert main(["ids", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 3


def test_main_dry_run_exits_zero(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    assert main(["zeros", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out"), "--dry-run"]) == 0
    assert not (tmp_path / "out").exists() or not any(
        Path(tmp_path / "out").iterdir())


def test_module_entry_point(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    proc = subprocess.run(
        [sys.executable, "-m", "strata_lab.cli_harness", "lyapunov",
         "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    assert (tmp_path / "out" / "lyapunov.csv").exists()


def test_all_dry_run_plans_one_task_per_criterion(tmp_path):
    man = run("all", out_dir=str(tmp_path), dry_run=True)
    assert [t["key"] for t in man.tasks] == [
        f"criterion-{i}" for i in range(1, 13)]
    assert list(tmp_path.iterdir()) == []


def test_all_failing_gate_keeps_its_row_and_exits_three(tmp_path,
                                                         monkeypatch):
    from strata_lab import acceptance
    monkeypatch.setattr(acceptance, "_CRITERIA", (
        (1, "holds", lambda: (True, "fine")),
        (2, "breaks", lambda: (False, "off by 2")),
        (3, "raises", lambda: (1 / 0, ""))))
    assert main(["all", "--out", str(tmp_path)]) == 3
    assert read_rows(tmp_path / "acceptance.csv") == [
        ["criterion", "name", "passed", "observed"],
        ["1", "holds", "1", "fine"],
        ["2", "breaks", "0", "off by 2"],
        ["3", "raises", "0", "ZeroDivisionError: division by zero"]]
    meta = json.loads((tmp_path / "manifest.json").read_text())
    assert [(t["key"], t["status"], t["error"]) for t in meta["tasks"]] == [
        ("criterion-1", "ok", ""),
        ("criterion-2", "failed", "off by 2"),
        ("criterion-3", "failed", "ZeroDivisionError: division by zero")]
    assert meta["files"] == ["acceptance.csv"]


def test_subcommand_listing_is_stable():
    assert "all" in SUBCOMMANDS
    assert "lyapunov" in SUBCOMMANDS
    assert len(SUBCOMMANDS) == 12
