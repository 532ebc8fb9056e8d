import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from strata_lab import cli_harness, dirichlet_eigenvalues
from strata_lab.cli_harness import (_FORMATS, SUBCOMMANDS, ConfigError,
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
    # eps 94 is served, but the verify window top 1.2 eps = 112.8 overflows
    {"potential": {"coeffs": [[1, 10, 0], [-1, 10, 0]]}, "eps": 94},
    {"eps_grid": [0.05]},
    {"eps_grid": [-0.01, 0.05]},
    {"eps_grid": [0.0, 1e-200]},               # the slope fit broke down
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
    {"ids": {"samples": 0}},                       # the 8 phases are fixed
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
    # phases outside [0, 1): at 1e300 the orbit theta + j alpha rounds to
    # theta and a constant box potential was served ok
    {"strata": {"spectrum_theta": 1e300}},
    {"strata": {"spectrum_theta": 1.0}},
    {"strata": {"spectrum_theta": -0.1}},
    {"localize": {"theta": 1e300}},
    {"localize": {"theta": 1.0}},
    {"localize": {"theta": -0.1}},
    {"green": {"boundary_tol": "x"}},
    {"green": {"symmetry_tol": "x"}},
    {"green": {"average_tol": [1e-9]}},
    {"riesz": {"eps_r": "x"}},
    {"ldt": {"threshold": "x"}},
    {"ldt": {"scan_count": "x"}},
    # riesz.eps_r is the constant _EPS_R, so each is an unknown key
    {"riesz": {"eps_r": 0.35}},
    {"riesz": {"eps_r": 0.3125}},
    {"riesz": {"eps_r": 0.0}},
    {"riesz": {"eps_r": -0.02}},
    # the verify window top 1.2 eps = 113.4 overflows 2 cosh(2 pi eps)
    {"potential": {"coeffs": [[1, 1e-10, 0], [-1, 1e-10, 0]]}, "eps": 94.5},
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
    # a negative seed failed green and ldt late; a negative window was
    # served ok with exp_l2 < exp_l1 and a NaN residual
    {"seed": -1},
    {"localize": {"window_len": -5}},
    # amo(nan) ran as the free Laplacian, amo(inf) served L = nan, and the
    # index 1.5 ran as 1
    {"potential": "amo(nan)"},
    {"potential": "amo(inf)"},
    {"potential": {"coeffs": [[1.5, 2, 0], [-1.5, 2, 0]]}},
    # the potential's numbers follow the number rule of every other key
    {"potential": {"coeffs": [[True, 2, 0], [-1, 2, 0]]}},
    {"potential": {"coeffs": [["1", 2, 0], [-1, 2, 0]]}},
    # eta, like Eta, is an unknown key of a potential spec
    {"potential": {"coeffs": [[1, 2, 0], [-1, 2, 0]], "eta": "0.5"}},
    {"potential": {"coeffs": [[1, 2, 0], [-1, 2, 0]], "eta": True}},
    {"potential": {"coeffs": [[1, 2, 0], [-1, 2, 0]], "Eta": 0.1}},
    {"potential": {"coeffs": [[1e20, 2, 0], [-1e20, 2, 0]]}},  # overflows
    {"energies": {"start": 0.0, "stop": 1.0, "count": 2 ** 63}},  # IndexError
    # strips on which the symbol overflows a double: the first failed late
    # with OverflowError, the second served L = nan
    {"potential": {"coeffs": [[1, 2, 0], [-1, 2, 0]]}, "eps_grid": [0.1, 150]},
    {"potential": {"coeffs": [[1, 1000, 0], [-1, 1000, 0]]},
     "eps_grid": [0.1, 112.5]},
    # ... and one where 2 cosh(2 pi eps) overflows before it meets 1e-10
    {"potential": {"coeffs": [[1, 1e-10, 0], [-1, 1e-10, 0]]},
     "eps_grid": [0.1, 115]},
    # more energies than a run may plan: the range was materialized and
    # planning `ids` ran out of memory; a list gets the same cap
    {"energies": {"start": 0, "stop": 1, "count": 10000000}},
    {"energies": [0.5] * 100001},
    # the span overflowed a double: the range parsed to (nan, inf, 1e308)
    {"energies": {"start": -1e308, "stop": 1e308, "count": 3}},
    # zeros plans |energies| x |n_ladder| tasks: 200,000 were planned here
    {"energies": [0.5], "n_ladder": list(range(2, 200002))},
    {"n_ladder": list(range(2, 67))},               # 65 entries
    # at the thinnest served annulus, R_eps = 0.005, the Jensen radii must
    # still sit strictly inside it; a non-positive R_eps leaves no room
    {"riesz": {"R_eps": 0.005, "jensen_radii": [0.001, 0.005]}},
    {"riesz": {"R_eps": 0.0, "jensen_radii": [0.001, 0.002]}},
    {"riesz": {"R_eps": -0.005, "jensen_radii": [-0.004, -0.001]}},
])
def test_config_rejections(raw):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_raw(raw)


def test_widest_strip_below_the_overflow_is_served(tmp_path):
    # log(2 * 10) + 2 pi 110 = 694.15 stays below ln(DBL_MAX) = 709.78
    raw = {"potential": {"coeffs": [[1, 10, 0], [-1, 10, 0]]},
           "eps_grid": [0.1, 110], "n_ladder": [64],
           "quadrature": {"lyapunov_K": 64}}
    man = run("lyapunov", config=raw, out_dir=str(tmp_path), threads=1)
    assert [t["status"] for t in man.tasks] == ["ok"]
    rows = read_rows(tmp_path / "lyapunov.csv")
    L = [float(r[4]) for r in rows[1:] if float(r[3]) == 110.0]
    assert L == [pytest.approx(693.45, abs=0.005)]


@pytest.mark.parametrize("raw,key", [
    ({"seed": -1}, "seed"),
    ({"localize": {"window_len": -5}}, "localize.window_len"),
    ({"potential": "amo(nan)"}, "potential"),
    ({"potential": "amo(inf)"}, "potential"),
    ({"potential": {"coeffs": [[1.5, 2, 0], [-1.5, 2, 0]]}}, "potential"),
    ({"riesz": {"bogus": 1}}, "riesz.bogus"),
    ({"potential": {"coeffs": [[1, 2, 0], [-1, 2, 0]], "eta": 0.5}}, "['eta']"),
    ({"n_ladder": list(range(2, 67))}, "n_ladder"),
    ({"energies": {"start": 0, "stop": 1, "count": 50001}, "n_ladder": [2, 3]},
     "energies x n_ladder"),
    ({"riesz": {"R_eps": 0.0, "jensen_radii": [0.001, 0.002]}}, "riesz.R_eps"),
    # set by --out alone, and fixed at 8 phases
    ({"out_dir": "runs"}, "out_dir"),
    ({"ids": {"samples": 8}}, "ids.samples"),
])
def test_refusal_exits_two_at_config_time_naming_the_key(raw, key, tmp_path,
                                                          capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    # `zeros`, whose plan refuses more (energy, n) tasks than the cap
    assert main(["zeros", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out"), "--dry-run"]) == 2
    assert key in capsys.readouterr().err


def test_config_accepts_the_plan_caps():
    # planned, never run: 64 ladder entries, and 2 x 50,000 (energy, n) tasks
    ExperimentConfig.from_raw({"n_ladder": list(range(2, 66))})
    cfg = ExperimentConfig.from_raw({"energies": {"start": 0, "stop": 1,
                                                  "count": 50000},
                                     "n_ladder": [2, 3]})
    assert len(cli_harness._REGISTRY["zeros"].plan(cfg)) == 100000


def test_task_cap_counts_the_zeros_plan_only(tmp_path, capsys):
    # 50,001 energies x 2 ladder lengths: 100,002 zeros tasks, 50,001
    # verify ones, and one ids task over all the energies
    raw = {"energies": {"start": 0, "stop": 1, "count": 50001},
           "n_ladder": [2, 3]}
    with pytest.raises(ConfigError, match="energies x n_ladder"):
        run("zeros", config=raw, out_dir=str(tmp_path), dry_run=True)
    man = run("verify-acc-zeros", config=raw, out_dir=str(tmp_path),
              dry_run=True)
    assert len(man.tasks) == 50001
    man = run("ids", config=raw, out_dir=str(tmp_path), dry_run=True)
    assert [t["key"] for t in man.tasks] == ["ids[all]"]
    assert list(tmp_path.iterdir()) == []
    capsys.readouterr()  # the 50,001 planned keys


def test_verify_plan_refuses_an_eps_its_slope_window_cannot_resolve(
        tmp_path, capsys):
    # the count window [0.2 eps, 1.2 eps] spans eps, below eps_grid's
    # least span of 1e-6; no task runs and no file is written
    raw = {"eps": 1e-200, "n": 32, "n_ladder": [20]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["verify-acc-zeros", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "eps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the other subcommands keep serving such an eps
    man = run("zeros", config=raw, out_dir=str(tmp_path), dry_run=True)
    assert [t["key"] for t in man.tasks] == ["zeros[E=0.5,n=20]"]


def test_pool_asks_for_no_more_workers_than_tasks(tmp_path, monkeypatch):
    # a stand-in pool that records its size and runs the tasks in this
    # process, so no worker is ever forked
    import concurrent.futures
    asked = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            asked.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    man = run("zeros", config=dict(SMALL, n_ladder=[20, 30]),
              out_dir=str(tmp_path), threads=64)
    assert [t["status"] for t in man.tasks] == ["ok", "ok"]
    assert asked == [2]
    # nor more than the cores this process may use; the manifest keeps
    # the requested count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    man = run("zeros", config=dict(SMALL, n_ladder=[10, 20, 30, 40, 50]),
              out_dir=str(tmp_path), threads=100000)
    assert [t["status"] for t in man.tasks] == ["ok"] * 5
    assert asked == [2, 3]
    assert man.threads == 100000


def test_a_run_types_its_config_once(tmp_path, monkeypatch):
    # each task reads the typed config of the run; none parses it again
    parse, calls = ExperimentConfig.from_raw.__func__, []

    def counted(cls, raw):
        calls.append(raw)
        return parse(cls, raw)

    monkeypatch.setattr(ExperimentConfig, "from_raw", classmethod(counted))
    man = run("zeros", config={"energies": {"start": -3, "stop": 3,
                                            "count": 100},
                               "n_ladder": [2, 3]},
              out_dir=str(tmp_path), threads=1)
    assert len(man.tasks) == 200
    assert {t["status"] for t in man.tasks} == {"ok"}
    assert len(calls) == 1


def test_pool_work_items_stay_small(tmp_path, monkeypatch):
    # each worker receives the typed config once; a work item is a task key
    # and its params, whatever the size of the config
    import concurrent.futures
    import pickle
    sizes = []

    class StubPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            self.initargs = initargs

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            for item in items:
                sizes.append(len(pickle.dumps((fn, item))))
                yield item[0], "skipped", {"tables": {}, "json": {}}, "", 0.0

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
    energies = np.linspace(-3.0, 3.0, 10 ** 4).tolist()
    man = run("zeros", config={"energies": energies, "n_ladder": [8]},
              out_dir=str(tmp_path), threads=2)
    assert len(man.tasks) == len(sizes) == 10 ** 4
    assert max(sizes) < 1000


def test_config_accepts_the_minimums():
    ExperimentConfig.from_raw({
        "quadrature": {"K": 1, "lyapunov_K": 1},
        "riesz": {"K": 1, "n_angles": 1},
        "strata": {"spectrum_box": 1},
        "ldt": {"grid_per_n": 64},
        "localize": {"n": 500},
        "ids": {"n": 100},
        "holder": {"n": 317},  # 10/n^2 below the ladder's 1e-4
    })
    ExperimentConfig.from_raw({"ldt": {"threshold": None}})
    ExperimentConfig.from_raw({"ldt": {"threshold": 0.05, "scan_count": 0}})
    ExperimentConfig.from_raw({"eps": 0.41})   # verify window top 0.492
    ExperimentConfig.from_raw({   # verify window top 108 below the overflow
        "potential": {"coeffs": [[1, 10, 0], [-1, 10, 0]]}, "eps": 90})
    ExperimentConfig.from_raw({"ids": {"n": 2000.0}})  # an integral float


def test_riesz_annulus_counts_in_the_strip_reach():
    # the riesz annulus R_eps = 0.05 reaches further than the riesz slope
    # window top 1.6 eps_r = 0.032, and here than eps and eps_grid too:
    # log(2c) + 2 pi 0.05 crosses ln(DBL_MAX) between these two c, and
    # log(2c) + 2 pi 0.032 crosses it at neither
    thin = {"eps": 0.01, "eps_grid": [0.01, 0.02]}
    with pytest.raises(ConfigError, match="strip"):
        ExperimentConfig.from_raw(dict(thin, potential={
            "coeffs": [[1, 6.79e307, 0.0], [-1, 6.79e307, 0.0]]}))
    ExperimentConfig.from_raw(dict(thin, potential={
        "coeffs": [[1, 6.14e307, 0.0], [-1, 6.14e307, 0.0]]}))


def test_riesz_strip_widths_lie_inside_its_annulus():
    # so the reach rule needs no riesz window of its own: the riesz task runs
    # the strip kernel at L_ref's _R_EPS, on its slope window up to 1.6 _EPS_R
    # and on its flux circles up to _EPS_R + 2 _FLUX_DELTA, and nowhere else
    from strata_lab.zeros_potential import _FLUX_DELTA, _kappa_window
    R_eps, eps_r = cli_harness._R_EPS, cli_harness._EPS_R
    assert _kappa_window(eps_r)[-1] <= R_eps
    assert eps_r + 2 * _FLUX_DELTA <= R_eps


@pytest.mark.parametrize("section,key,value", [
    ("riesz", "R_eps", 0.05), ("riesz", "eps_r", 0.02),
    ("riesz", "jensen_radii", [0.01, 0.04]),
    ("holder", "delta_ladder", [1e-4, 1e-3, 1e-2]),
    ("localize", "theta", 0.0), ("strata", "spectrum_theta", 0.123),
    ("ids", "samples", 8), (None, "out_dir", "runs")])
def test_key_fixed_by_the_code_is_refused_as_unknown(section, key, value):
    # even at the value the code fixes, a config may not set it; out_dir is
    # set by --out and run(out_dir=) alone
    raw, name = {key: value}, key
    if section is not None:
        raw, name = {section: raw}, f"{section}.{key}"
    with pytest.raises(ConfigError,
                       match=rf"unknown config keys \['{name}'\]"):
        ExperimentConfig.from_raw(raw)


@pytest.mark.parametrize("section,key", [
    ("strata", "tau_pos"), ("strata", "spectrum_theta"), ("localize", "theta"),
    ("riesz", "eps_r"), ("ldt", "threshold")])
def test_bad_section_float_names_its_key(section, key):
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        ExperimentConfig.from_raw({section: {key: "abc"}})


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


def test_config_hash_labels_the_whole_resolved_config():
    assert config_hash({}) == config_hash({"seed": 0})  # a default restated
    assert config_hash({}) != config_hash({"seed": 1})
    assert config_hash(SMALL) == config_hash(dict(SMALL))


def test_fmt_is_locale_free():
    assert _fmt(True) == "1"
    assert _fmt(False) == "0"
    assert _fmt(None) == ""
    assert _fmt(5) == "5"
    assert _fmt(1.0 / 3.0) == "0.333333333333"


_CELLS = [True, False, np.bool_(True), np.bool_(False), 0, -7, 2 ** 70,
          np.int64(-3), 0.1, 1.0 / 3.0, -0.0, 1e300, float("nan"),
          float("-inf"), np.float64(2.0 / 3.0), np.float64(1e-320),
          np.float64("inf"), None, "", "ok, \"quoted\""]


def test_formats_by_exact_type_equal_the_isinstance_chain():
    # the cells of bool, np.bool_, int, np.int64, float, np.float64, None and
    # str; the bools have no entry of their own and take the chain
    assert {type(v) for v in _CELLS} == set(_FORMATS) | {bool, np.bool_}
    for v in _CELLS:
        assert _FORMATS.get(type(v), _fmt)(v) == _fmt(v), v
    assert [_fmt(v) for v in _CELLS[:8]] == [
        "1", "0", "1", "0", "0", "-7", str(2 ** 70), "-3"]


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


def test_the_config_alone_sets_the_seed(tmp_path):
    man = run("lyapunov", config=dict(SMALL, seed=99), out_dir=str(tmp_path),
              dry_run=True)
    assert man.seed == 99
    assert man.config_hash == config_hash(dict(SMALL, seed=99))
    with pytest.raises(TypeError):
        run("lyapunov", config=SMALL, out_dir=str(tmp_path), seed=99)
    with pytest.raises(SystemExit) as exc:
        main(["lyapunov", "--out", str(tmp_path), "--seed", "3"])
    assert exc.value.code == 2


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


_real_riesz_decompose = cli_harness.riesz_decompose


def _nan_decomposition(*args, **kwargs):
    boundary_max_dev, _, h_min, h_max = _real_riesz_decompose(*args, **kwargs)
    return boundary_max_dev, float("nan"), h_min, h_max


@pytest.mark.parametrize("subcommand,column", [
    ("riesz", "mean_value_max_resid"), ("green", "max_abs_err")])
def test_non_finite_certificate_fails_its_task(subcommand, column, tmp_path,
                                               monkeypatch):
    # a NaN certificate was written and the task served ok
    monkeypatch.setattr(cli_harness, "riesz_decompose", _nan_decomposition)
    monkeypatch.setattr(cli_harness, "green_annulus",
                        lambda z, w, R: np.full(np.broadcast(z, w).shape, np.nan))
    man = run(subcommand, config=SMALL, out_dir=str(tmp_path))
    assert [t["status"] for t in man.tasks] == ["failed"]
    assert column in man.tasks[0]["error"]


def _misspelled_ids(cfg):
    payload = cli_harness._task_ids(cfg)
    row, = payload["tables"]["ids.csv"]
    row["sprad"] = row.pop("spread")
    return payload


def test_row_that_does_not_match_its_header_fails_its_task(tmp_path,
                                                           monkeypatch):
    # a misspelled key was written as a blank cell and the task served ok
    spec = cli_harness._REGISTRY["ids"]
    monkeypatch.setitem(cli_harness._REGISTRY, "ids",
                        spec._replace(task=_misspelled_ids))
    man = run("ids", config=SMALL, out_dir=str(tmp_path))
    assert [t["status"] for t in man.tasks] == ["failed"]
    assert "spread" in man.tasks[0]["error"]
    assert "sprad" in man.tasks[0]["error"]
    assert read_rows(tmp_path / "ids.csv") == [["E", "n", "value", "spread"]]


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
    scans = read_rows(tmp_path / "resonance_scan.csv")
    assert len(scans) >= 2
    assert all(row[scans[0].index("clear")] in ("0", "1") for row in scans[1:])


def test_ldt_scan_without_arcs_leaves_clear_empty(tmp_path):
    # the default config finds no deviation arc, so no scan can read clear
    man = run("ldt", config={}, out_dir=str(tmp_path), threads=1)
    assert man.ok
    assert len(read_rows(tmp_path / "ldt_arcs.csv")) == 1
    scans = read_rows(tmp_path / "resonance_scan.csv")
    assert len(scans) == 21
    assert [row[scans[0].index("clear")] for row in scans[1:]] == [""] * 20


def test_ldt_names_a_vanishing_determinant(tmp_path):
    # D_5 of the free box vanishes identically at E = 0
    man = run("ldt", config={"potential": "zero", "energies": [0.0], "n": 5},
              out_dir=str(tmp_path))
    assert [(t["status"], t["error"]) for t in man.tasks] == [
        ("skipped", "determinant is identically zero")]


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
               strata={"spectrum_box": 120})
    man = run("strata", config=cfg, out_dir=str(tmp_path))
    assert man.ok
    summary = json.loads((tmp_path / "strata_summary.json").read_text())
    assert summary["cell_width"] == pytest.approx(0.5)
    assert sum(summary["measure"].values()) == pytest.approx(0.5 * 5)


def test_strata_membership_edges_match_the_distance_rule(tmp_path):
    box, theta = 120, cli_harness._SPECTRUM_THETA
    h = 10.0 / box
    small = ExperimentConfig.from_raw(SMALL)
    ev = dirichlet_eigenvalues(small.potential, small.alpha, theta, box,
                               range(box))
    # the spectrum's ends and the edges of its three widest gaps, where
    # the points just outside E = ev_k +- h are really outside
    wide = np.argsort(np.diff(ev))[-3:]
    ks = sorted({0, box - 1, *wide.tolist(), *(wide + 1).tolist()})
    energies = [float(ev[k] + side * h * (1.0 + tilt)) for k in ks
                for side in (-1.0, 1.0) for tilt in (-1e-9, 1e-9)]
    cfg = dict(SMALL, energies=energies,
               strata={"spectrum_box": box})
    assert run("strata", config=cfg, out_dir=str(tmp_path)).ok
    with open(tmp_path / "strata.csv", newline="") as fh:
        got = [row["in_spectrum"] == "1" for row in csv.DictReader(fh)]
    want = [bool(np.min(np.abs(ev - E)) <= h) for E in energies]
    assert got == want
    assert any(want) and not all(want)


def test_strata_nonuniform_grid_writes_no_summary(tmp_path):
    cfg = dict(SMALL, energies=[0.5, 1.0, 2.5])
    man = run("strata", config=cfg, out_dir=str(tmp_path))
    assert man.ok
    assert list(man.files) == ["strata.csv"]
    assert len(read_rows(tmp_path / "strata.csv")) == 4
    assert not (tmp_path / "strata_summary.json").exists()


def test_acceleration_splits_a_slope_break_into_two_segments(tmp_path):
    # L(4.5, eps) is flat up to eps = 0.04 and has slope 2 pi beyond 0.06
    cfg = {"energies": [4.5], "n": 256, "quadrature": {"K": 256},
           "eps_grid": [0.02, 0.04, 0.06, 0.08, 0.1, 0.12]}
    assert run("acceleration", config=cfg, out_dir=str(tmp_path)).ok
    with open(tmp_path / "acceleration.csv", newline="") as fh:
        acc, = csv.DictReader(fh)
    assert (acc["non_affine"], acc["n_segments"]) == ("1", "2")
    with open(tmp_path / "accel_segments.csv", newline="") as fh:
        segs = [(r["eps_min"], r["eps_max"], r["kappa"])
                for r in csv.DictReader(fh)]
    assert segs == [("0.02", "0.04", "0"), ("0.06", "0.12", "1")]


def test_free_zeros_at_a_dirichlet_eigenvalue_are_served(tmp_path):
    # D_1 = E vanishes at E = 0; D_2 = -1 is served, with no zeros
    cfg = {"potential": "zero", "energies": [0.0], "n_ladder": [2]}
    man = run("zeros", config=cfg, out_dir=str(tmp_path))
    assert [t["status"] for t in man.tasks] == ["ok"]
    assert len(read_rows(tmp_path / "zeros.csv")) == 1  # header only
    counts = read_rows(tmp_path / "zero_counts.csv")
    assert counts[1][counts[0].index("count")] == "0"


def test_light_subcommands_never_load_scipy(tmp_path):
    # box eigenvalues come from multisection on the Sturm counts and
    # eigenvectors from the same LDL^T pivots: no subcommand, localize
    # included, and no acceptance gate loads scipy.  The config label is a
    # CRC-32, so no subcommand loads OpenSSL either, except through
    # numpy.random, which imports `secrets`: green and ldt draw samples
    # and run last
    script = f"""
import sys
import strata_lab.acceptance
from strata_lab.cli_harness import SUBCOMMANDS, run
small = dict({SMALL!r}, localize={{"n": 500, "count": 1}})
samplers = ["green", "ldt"]
for sub in [s for s in SUBCOMMANDS if s not in samplers + ["all"]] + samplers:
    if sub == samplers[0]:
        assert "_hashlib" not in sys.modules, sorted(sys.modules)
    assert run(sub, config=small,
               out_dir={str(tmp_path)!r} + "/" + sub).ok, sub
assert "scipy" not in sys.modules, sorted(m for m in sys.modules
                                          if m.startswith("scipy"))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    # the gates run in the `all` subcommand; none of the package's source
    # names scipy, so no gate can import it either; nor hashlib, nor the
    # LAPACK line fit and its residuals
    assert not [(p.name, word) for p in (src / "strata_lab").glob("*.py")
                for word in ("scipy", "hashlib", "polyfit", "polyval")
                if word in p.read_text(encoding="utf-8")]


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


def test_main_non_utf8_config_exits_two(tmp_path, capsys):
    # a UnicodeDecodeError traceback exited 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'{"n": "\xff"}')
    assert main(["lyapunov", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out"), "--dry-run"]) == 2
    assert "UTF-8" in capsys.readouterr().err


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
