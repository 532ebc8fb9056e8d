"""The config's refusal frontier, fuzzed from the config table.

Strategies are built by walking `_CONFIG_TABLE`: each key is left out,
given its default, a value near its least value, or a value of the wrong
kind.  Every drawn config must either raise ConfigError up front or plan at
least one task for every subcommand.  Small accepted configs also run the
`lyapunov` task, and every row it serves ok must carry a finite L.
"""

import math

from hypothesis import given, settings, strategies as st

from strata_lab.cli_harness import (SUBCOMMANDS, ConfigError,
                                    ExperimentConfig, _CONFIG_TABLE,
                                    _run_task, run)

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
    if kind == "phase":
        return st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, 1e300])
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
        optional={"eta": _FLOATS | _WRONG, "bogus": _FLOATS})
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
    "out_dir": st.just("runs"),
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
            lambda cs: sum(cs, []))},
        optional={"eta": st.floats(0.01, 2.0)}),
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
        return
    _, status, payload, _, _ = _run_task(("lyapunov", cfg.raw, "k", {}))
    if status == "ok":
        rows = payload["tables"]["lyapunov.csv"]
        assert rows and all(math.isfinite(r["L"]) for r in rows), rows
