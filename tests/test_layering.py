"""The package's modules import each other at module level only: no import
inside a function body and no TYPE_CHECKING block, so an import cycle shows
as an ImportError instead of hiding behind either."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "transient_sim"


def _layering_faults(source: str) -> list:
    """'line: what' for each function-level import and each TYPE_CHECKING."""
    faults = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            faults += [f"{inner.lineno}: import in {node.name}" for inner in ast.walk(node)
                       if isinstance(inner, (ast.Import, ast.ImportFrom))]
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name == "TYPE_CHECKING":
            faults.append(f"{getattr(node, 'lineno', '?')}: TYPE_CHECKING")
    return sorted(set(faults))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_module_level(path):
    assert _layering_faults(path.read_text()) == []


def test_a_lazy_import_and_a_type_checking_block_fail_the_check():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .attacks import AttackOutcome\n"
        "def demo():\n"
        "    from .core import make_machine\n"
        "    return make_machine\n"
    )
    assert _layering_faults(source) == ["1: TYPE_CHECKING", "2: TYPE_CHECKING", "5: import in demo"]
