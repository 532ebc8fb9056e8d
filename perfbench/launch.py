"""Run one strata-lab CLI call in this process and record when it did what.

    python3 perfbench/launch.py SRC TIMING_JSON MODE -- CLI_ARGS...

MODE is `run` (untraced), `trace` (spans written next to TIMING_JSON) or
`setup` (stop as soon as the first task starts).  The entry point is
`strata_lab.cli_harness.main`, the function the `strata-lab` script calls.
TIMING_JSON receives monotonic-clock readings, which the parent process
compares with the moment it started this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time


class _SetupDone(Exception):
    """Raised at the first task in `setup` mode."""


def main(argv) -> int:
    src, timing_path, mode = argv[:3]
    if argv[3] != "--":
        raise SystemExit("usage: launch.py SRC TIMING_JSON MODE -- CLI_ARGS...")
    cli_args = argv[4:]
    sys.path.insert(0, src)
    from strata_lab import cli_harness

    tracer = None
    if mode == "trace":
        from tracer import Tracer  # this script's directory is on sys.path
        tracer = Tracer()
        tracer.install()

    marks = {}
    # `_run_task` starts each task: set-up ends and wall time starts there
    inner = getattr(cli_harness, "_run_task", None)
    if inner is None:
        raise SystemExit("launch.py: strata_lab.cli_harness has no _run_task "
                         "to mark the first task; update the benchmark")

    def first_task(*args, **kwargs):
        marks.setdefault("first_task", time.monotonic())
        if mode == "setup":
            raise _SetupDone
        return inner(*args, **kwargs)

    cli_harness._run_task = first_task
    try:
        rc = cli_harness.main(cli_args)
    except _SetupDone:
        rc = 0
    marks["end"] = time.monotonic()
    marks["rc"] = rc
    marks["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(timing_path + ".spans.json")
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
