"""No float enters govgame: a scan of the package's source for float arithmetic.

Every number govgame computes is an int or a Fraction. The scan allows no
true division (/ or /=), which turns two ints into a float, no float or
complex literal, and no float() call: even the six-decimal figures of table
output are rounded from the exact value.
"""

from __future__ import annotations

import ast
from pathlib import Path

import govgame

PACKAGE = Path(govgame.__file__).parent


def _float_sources(path: Path) -> tuple[list[str], list[str]]:
    """The file's divisions and float or complex literals, and the functions that call float()."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    faults, calls = [], []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            faults.append(f"{path.name}:{node.lineno}: division")
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            faults.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            calls.append(f"{path.stem}.{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return faults, calls


def test_the_package_has_no_division_float_literal_or_float_call():
    faults, calls = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        found, called = _float_sources(path)
        faults += found
        calls += called
    assert faults == []
    assert calls == []


def test_the_scan_finds_a_division_a_float_literal_and_a_float_call(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("def f(x):\n    x /= 2\n    return float(x / 2) + 0.5 + 1j\n", encoding="utf-8")
    faults, calls = _float_sources(source)
    assert faults == [
        "module.py:2: division",
        "module.py:3: division",
        "module.py:3: literal 0.5",
        "module.py:3: literal 1j",
    ]
    assert calls == ["module.f"]
