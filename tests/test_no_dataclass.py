"""Ratchet on the package's record types.

Result records are `typing.NamedTuple`s: fields by name, `_asdict()` for
the few records written whole (the `ldt` geometry JSON, `AcceptanceRecord`
and the manifest), and about a tenth of a frozen dataclass's cost to create
at import.  No class in the package is a
dataclass, and no module imports `dataclasses`.
"""

import ast
from pathlib import Path

import strata_lab


def _decorator_name(node) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _modules():
    for path in sorted(Path(strata_lab.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_class_is_a_dataclass():
    found = [f"{name}:{node.name}" for name, tree in _modules()
             for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             and any(_decorator_name(d) == "dataclass" for d in node.decorator_list)]
    assert found == []


def test_no_module_imports_dataclasses():
    found = [name for name, tree in _modules() for node in ast.walk(tree)
             if (isinstance(node, ast.Import)
                 and any(a.name == "dataclasses" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")]
    assert found == []
