"""README's "Library tour" example runs against the package as published."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tour_block() -> str:
    text = (ROOT / "README.md").read_text()
    tour = text[text.index("## Library tour"):]
    start = tour.index("```python\n") + len("```python\n")
    return tour[start:tour.index("```", start)]


def test_library_tour_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _tour_block()], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "400"     # every zero of D_200 inside the annulus
    assert lines[-1] == "1"      # the AMO(2) acceleration at E = 0.5
