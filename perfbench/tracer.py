"""Span tracing of strata_lab's public functions, installed from outside.

`install()` replaces every module-level binding of each public function of
the layer modules with a timing wrapper, in every strata_lab module that
holds one (`from .determinant import det_family` copies the function into
four other namespaces), and wraps the public methods of the classes those
modules define.  Spans are kept in memory and written by `dump()` once the
run ends.  A wrapped call that raises is counted and the exception is
re-raised unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import re
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = ("model", "determinant", "cocycle", "zeros_potential",
          "spectral_localization", "cli_harness")
# modules that import names from the layers without defining a layer
HOLDERS = ("strata_lab", "strata_lab.acceptance")


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(math.prod(shape))
    return len(x) if isinstance(x, (list, tuple)) else 1


def _shape(x) -> Tuple[int, ...]:
    shape = getattr(x, "shape", None)
    if shape is not None:
        return tuple(shape)
    return (len(x),) if isinstance(x, (list, tuple)) else ()


def _aberth(a, result, exc) -> Dict[str, float]:
    degree = len(a["coeffs"]) - 1
    certified = degree
    if exc is not None:
        m = re.match(r"(\d+) roots failed", str(exc))
        certified = degree - int(m.group(1)) if m else 0
    return {"degree": degree, "certified": certified}


def _bytes_written(a, result, exc) -> Dict[str, float]:
    # the tables and side files; the manifest holds timings, so its size varies
    if exc is not None:
        return {}
    return {"bytes_written": sum(os.path.getsize(os.path.join(result.out_dir, f))
                                 for f in result.files)}


# work counts derived from a call's bound arguments (and result)
WORK: Dict[str, Callable[[Dict[str, Any], Any, Optional[BaseException]],
                         Dict[str, float]]] = {
    "cocycle.transfer_log_norms":
        lambda a, r, e: {"phase_steps": _size(a["thetas"]) * a["n"]},
    "determinant.det_at_phase":
        lambda a, r, e: {"steps": _size(a["E"]) * a["n"]},
    "determinant.det_family":
        lambda a, r, e: {"coeff_steps": a["potential"].k0 * a["n"] * (a["n"] + 1)
                         + a["n"]},
    "determinant.eval_circle_log": lambda a, r, e: {"points": a["m"]},
    "determinant.eval_log": lambda a, r, e: {"points": _size(a["z"])},
    "zeros_potential.aberth_roots": _aberth,
    "zeros_potential.green_annulus":
        lambda a, r, e: {"pairs": math.prod(
            np.broadcast_shapes(_shape(a["z"]), _shape(a["w"])))},
    "spectral_localization.sturm_count":
        lambda a, r, e: {"steps": _size(a["E"]) * a["n"]},
    "spectral_localization.deviation_set":
        lambda a, r, e: {} if e is not None else {"arcs": len(r.intervals)},
    "cli_harness.run": _bytes_written,
}


class Tracer:
    """Collects (name, start, end, parent) spans and per-name work counts."""

    def __init__(self):
        self.names: List[str] = []
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self.raised: Dict[str, int] = defaultdict(int)
        self.work: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self._stack: List[int] = []
        self._wrapped: Dict[int, Callable] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)
        sig = inspect.signature(fn) if work is not None else None

        def record(args, kwargs, result, exc):
            if exc is not None:
                self.raised[name] += 1
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for k, v in work(bound.arguments, result, exc).items():
                    self.work[name][k] += v

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (nid, t0, clock(), parent)
                stack.pop()
                record(args, kwargs, None, exc)
                raise
            spans[idx] = (nid, t0, clock(), parent)
            stack.pop()
            record(args, kwargs, result, None)
            return result

        self._wrapped[id(fn)] = traced
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public functions and methods in place."""
        layers = {short: importlib.import_module(f"strata_lab.{short}")
                  for short in LAYERS}
        holders = list(layers.values()) + [importlib.import_module(m)
                                           for m in HOLDERS]
        functions: Dict[int, Tuple[str, Callable]] = {}
        for short, mod in layers.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[id(obj)] = (f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, raw in list(vars(obj).items()):
                        fn = getattr(raw, "__func__", raw)  # unwrap class/static
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        wrapped = self.wrap(f"{short}.{meth}", fn)
                        if isinstance(raw, (staticmethod, classmethod)):
                            wrapped = type(raw)(wrapped)
                        setattr(obj, meth, wrapped)
        for name, fn in functions.values():
            self.wrap(name, fn)
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in functions:
                    setattr(mod, attr, self._wrapped[id(obj)])

    # -- results ------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name calls, self seconds, raised count and work counts.

        Self time is a span's duration minus the time its child spans
        cover.  Spans still open (none after a completed run) are skipped."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "raised": self.raised.get(name, 0)}
            for name in self.names}
        for s, c in zip(spans, child):
            if s is not None:
                rec = out[self.names[s[0]]]
                rec["calls"] += 1
                rec["self_s"] += (s[2] - s[1]) - c
        for name, counts in self.work.items():
            out[name].update(counts)
        self._count_nested(out, "spectral_localization.deviation_set",
                           "determinant.det_at_phase")
        return out

    def _count_nested(self, out, outer: str, inner: str) -> None:
        """Record under `outer` how many `inner` calls it made, at any depth."""
        if outer not in self.names or inner not in self.names:
            return
        o, n = self.names.index(outer), self.names.index(inner)
        count = 0
        for s in self.spans:
            if s is None or s[0] != n:
                continue
            parent = s[3]
            while parent >= 0 and self.spans[parent][0] != o:
                parent = self.spans[parent][3]
            count += parent >= 0
        out[outer][inner.rsplit(".", 1)[1] + "_calls"] = count

    def dump(self, path: str) -> None:
        """Write the spans (name id, start, end, parent) and the summary."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "summary": self.summary()}, fh)
