"""Ratchet on the number of public keyword options.

Every default-valued parameter of a function or method whose name does not
start with an underscore, in any module of the package, is one option that
tests and benchmarks must cover.  The census may fall; raising it needs a
caller that sets the new option to a second value, and a new ceiling here.
"""

import ast
from pathlib import Path

import strata_lab

CEILING = 42


def census() -> int:
    total = 0
    for path in sorted(Path(strata_lab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")):
                total += len(node.args.defaults)
                total += sum(d is not None for d in node.args.kw_defaults)
    return total


def test_public_keyword_options_stay_under_the_ceiling():
    assert census() <= CEILING
