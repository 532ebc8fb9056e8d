"""Ratchet on the size of the package.

The total line count of the modules in `src/strata_lab/` may fall; raising
it needs code that earns the lines, and a new ceiling here.
"""

from pathlib import Path

import strata_lab

CEILING = 3305


def line_count() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in Path(strata_lab.__file__).parent.glob("*.py"))


def test_package_stays_under_the_line_ceiling():
    assert line_count() <= CEILING
