"""The config's refusal frontier, fuzzed from the config table.

Strategies are built by walking `_CONFIG_TABLE`: each key is left out,
given its default, a value near its least value, or a value of the wrong
kind.  Every drawn config must either raise ConfigError up front or plan at
least one task for every subcommand.  Small accepted configs also run the
`lyapunov` task, and every row it serves ok must carry a finite L; and small
accepted configs with every section bounded run every task they plan.
"""

import math

from hypothesis import assume, example, given, settings, strategies as st

from strata_lab.cli_harness import (SUBCOMMANDS, ConfigError,
                                    ExperimentConfig, _CONFIG_TABLE,
                                    _REGISTRY, _run_task, run)

_WRONG = st.sampled_from([True, None, "1", "x", [], {}])
_FLOATS = (st.floats(-1.0, 1.0) | st.floats(allow_nan=True)
           | st.sampled_from([0.0, 1.0, math.inf, math.nan]))
_INTS = st.integers(-3, 3) | st.integers() | st.sampled_from([2 ** 63, 2 ** 64])
# an energies range is materialized while the config is parsed, and a count
# above the energy cap is refused before it is: draw small counts and counts
# past the cap
_COUNTS = st.integers(-2, 50) | st.sampled_from([10 ** 7, 2 ** 62, 2 ** 63,
                                                 2 ** 64])


def _number(kind, least):
    if kind is int:
        near = _INTS if least is None else st.integers(least - 2, least + 2)
        return near | near.map(float) | near.map(lambda v: v + 0.5) | _INTS
    return _FLOATS


def _symmetric_coeffs(k, re, im):
    # c_{-k} = conj(c_k), so the drawn potential is real
    return [[k, re, im], [-k, re, -im]]


_COEFF = st.builds(_symmetric_coeffs, _INTS, st.floats(-10.0, 10.0), _FLOATS)
_POTENTIAL = (
    st.sampled_from(["zero", "amo(2.0)", "amo(nan)", "amo(inf)", "cos(2)"])
    | _FLOATS.map(lambda lam: f"amo({lam})")
    | st.fixed_dictionaries(
        {"coeffs": st.lists(_COEFF, max_size=2).map(lambda cs: sum(cs, []))},
        optional={"bogus": _FLOATS})
    | st.fixed_dictionaries({"coeffs": st.lists(
        st.lists(_INTS | _FLOATS | _WRONG, min_size=2, max_size=4),
        max_size=3)}))

# keys whose kind is a parser of their own
_PARSED = {
    "potential": _POTENTIAL,
    "alpha": st.just("golden") | st.just("bogus") | _FLOATS,
    "energies": (st.lists(_FLOATS, max_size=3)
                 | st.fixed_dictionaries(
                     {"start": _FLOATS, "stop": _FLOATS,
                      "count": _COUNTS | _COUNTS.map(float) | _WRONG},
                     optional={"qty": _INTS})),
}


def _entry(key, default, kind, least):
    if key in _PARSED:
        drawn = _PARSED[key]
    elif isinstance(kind, (list, tuple)):
        entries = _number(kind[0], least)
        drawn = (st.lists(entries, max_size=4)
                 | st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).map(
                     sorted))
    else:
        drawn = _number(kind, least)
    return st.just(default) | drawn | _WRONG


def _level(table):
    return st.fixed_dictionaries({}, optional={
        key: (_level(entry) | _WRONG | st.just({"bogus": 0}))
        if isinstance(entry, dict) else _entry(key, *entry)
        for key, entry in table.items()})


_RAW = _level(_CONFIG_TABLE)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_RAW)
def test_every_config_is_refused_or_plans_tasks(raw):
    try:
        ExperimentConfig.from_raw(raw)
    except ConfigError:
        return
    for sub in SUBCOMMANDS:
        manifest = run(sub, config=raw, dry_run=True)
        assert manifest.tasks, sub


# bounded so each lyapunov run stays small: n <= 32, K <= 64, |c| <= 10
_COEFF_SMALL = st.builds(_symmetric_coeffs, st.integers(0, 3),
                         st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
_SMALL = st.fixed_dictionaries({
    "potential": st.fixed_dictionaries(
        {"coeffs": st.lists(_COEFF_SMALL, min_size=1, max_size=2).map(
            lambda cs: sum(cs, []))}),
    "alpha": st.just("golden") | st.floats(0.0, 1.0),
    "energies": st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
    "eps_grid": st.lists(st.floats(0.0, 0.5), min_size=2, max_size=4,
                         unique=True).map(sorted),
    "n_ladder": st.lists(st.integers(2, 32), min_size=1, max_size=3,
                         unique=True).map(sorted),
    "quadrature": st.fixed_dictionaries({"lyapunov_K": st.integers(1, 64)}),
})


@settings(derandomize=True, max_examples=25, deadline=None)
@given(_SMALL)
def test_small_accepted_configs_serve_finite_lyapunov(raw):
    try:
        cfg = ExperimentConfig.from_raw(raw)
    except ConfigError:
        assume(False)
    _, status, payload, _, _ = _run_task("lyapunov", cfg, "k", {})
    if status == "ok":
        rows = payload["tables"]["lyapunov.csv"]
        assert rows and all(math.isfinite(r["L"]) for r in rows), rows


# every section bounded, so that one config runs all its tasks in about
# 0.2 s: n <= 32, K <= 64, localize.n = 500, ids.n = 100, holder.n = 317
_BOUNDED = st.fixed_dictionaries({
    "potential": st.fixed_dictionaries(
        {"coeffs": st.lists(_COEFF_SMALL, min_size=1, max_size=2).map(
            lambda cs: sum(cs, []))}),
    "alpha": st.just("golden") | st.floats(0.0, 1.0),
    "energies": st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=2),
    "eps": st.floats(0.001, 0.2),
    "eps_grid": st.lists(st.floats(0.0, 0.25), min_size=2, max_size=4,
                         unique=True).map(sorted),
    "n": st.integers(2, 32),
    "n_ladder": st.lists(st.integers(2, 16), min_size=1, max_size=2,
                         unique=True).map(sorted),
    "seed": st.integers(0, 2 ** 32),
    "quadrature": st.fixed_dictionaries({"K": st.integers(1, 64),
                                         "lyapunov_K": st.integers(1, 64)}),
    "ids": st.fixed_dictionaries({"n": st.just(100)}),
    "holder": st.fixed_dictionaries({"n": st.just(317)}),
    "ldt": st.fixed_dictionaries({
        "threshold": st.none() | st.floats(0.0, 1.0),
        "grid_per_n": st.integers(64, 128), "scan_count": st.integers(0, 3)}),
    "localize": st.fixed_dictionaries({"n": st.just(500),
                                       "count": st.integers(1, 3)}),
    "riesz": st.fixed_dictionaries({"n_angles": st.integers(1, 32),
                                    "K": st.integers(1, 256)}),
    "strata": st.fixed_dictionaries({"spectrum_box": st.integers(1, 64)}),
})

# the failures a task documents; any other exception type is a bug
_DOCUMENTED = ("ValueError: ", "RootConvergenceError: ", "DegreeCapError: ",
               "RuntimeError: eigenvector residual")


# the sections of _BOUNDED at their smallest, for the explicit examples
_BOUNDED_SECTIONS = {
    "quadrature": {"K": 16, "lyapunov_K": 16},
    "ids": {"n": 100},
    "holder": {"n": 317},
    "localize": {"n": 500, "count": 1},
    "riesz": {"K": 64, "n_angles": 8},
}


@settings(derandomize=True, max_examples=15, deadline=None)
@given(_BOUNDED)
# a subnormal energy on a constant potential overflowed det_family's
# power-of-two scaling (OverflowError); D_5 of the free box vanishes at
# E = 0, where eval_circle_log took -inf - -inf (RuntimeWarning); D_30
# cancels to 0.0 at one riesz grid sample, where riesz_decompose took
# -inf - -inf (RuntimeWarning)
@example(dict(_BOUNDED_SECTIONS, potential="zero", energies=[5e-324],
              n=16, n_ladder=[14]))
@example(dict(_BOUNDED_SECTIONS, potential="zero", energies=[0.0], n=5,
              n_ladder=[5]))
@example(dict(_BOUNDED_SECTIONS,
              potential={"coeffs": [[1, 0, 3.912109375],
                                    [-1, 0, -3.912109375]]},
              alpha=2.3339353630476474e-28, energies=[9.592388641222817],
              n=30, n_ladder=[14], quadrature={"K": 1, "lyapunov_K": 1},
              riesz={"n_angles": 3, "K": 1}))
def test_every_planned_task_ends_ok_skipped_or_documented(raw):
    try:
        cfg = ExperimentConfig.from_raw(raw)
    except ConfigError:
        assume(False)
    for sub in SUBCOMMANDS:
        if sub == "all":
            continue
        for key, params in _REGISTRY[sub].plan(cfg):
            _, status, _, err, _ = _run_task(sub, cfg, key, params)
            assert status in ("ok", "skipped") or (
                status == "failed" and err.startswith(_DOCUMENTED)), (key, err)
