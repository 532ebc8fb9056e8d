"""README's "Library tour" example runs against the package as published."""

import os
import re
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


# config keys that are constants of the code, not keys of the schema
REMOVED_KEYS = ("strata.tau_pos", "green.samples", "green.boundary_tol",
                "green.symmetry_tol", "green.average_tol",
                "localize.window_margin", "localize.window_len",
                "riesz.n_radii", "riesz.R_eps", "riesz.eps_r",
                "riesz.jensen_radii", "holder.delta_ladder", "localize.theta",
                "strata.spectrum_theta", "out_dir", "ids.samples")


def _configuration_paragraph() -> str:
    text = (ROOT / "README.md").read_text()
    section = text[text.index("### Configuration"):]
    return section[:section.index("\nExample:")]


def _leaf_keys(table, where=""):
    for key, entry in table.items():
        if isinstance(entry, dict):
            yield from _leaf_keys(entry, f"{where}{key}.")
        else:
            yield where + key


def test_configuration_paragraph_names_every_key_and_no_removed_one():
    from strata_lab.cli_harness import _CONFIG_TABLE
    paragraph = _configuration_paragraph()
    missing = [key for key in _leaf_keys(_CONFIG_TABLE)
               if f"`{key}`" not in paragraph]
    assert missing == []
    assert [key for key in REMOVED_KEYS if key in paragraph] == []
    # the potential spec takes `coeffs` only: the overflow bound is its strip
    assert "`eta`" not in paragraph and '"eta"' not in paragraph


def test_usage_line_lists_the_parser_options_and_no_seed():
    from strata_lab.cli_harness import _build_parser
    text = (ROOT / "README.md").read_text()
    block = text[text.index("## Command line"):]
    start = block.index("```sh\n") + len("```sh\n")
    usage = block[start:block.index("```", start)]
    options = {opt for action in _build_parser()._actions
               for opt in action.option_strings if opt.startswith("--")}
    assert set(re.findall(r"--[a-z][a-z-]*", usage)) == options - {"--help"}
    assert "--seed" not in usage
