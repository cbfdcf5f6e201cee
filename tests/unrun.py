"""Print every statement in a function body of govgame that tier-1 never runs.

    PYTHONPATH=src python tests/unrun.py [PYTEST_ARG ...]

Runs the tier-1 suite in this process, with any arguments passed on to
pytest, under a line tracer limited to src/govgame. Then prints one line,
module.py:line: statement, per statement inside a function body whose
first line never ran. It exits 1 when it prints any such line, and
otherwise with pytest's code. Docstrings run no code and are not
counted; code that only child processes run counts as unrun. The traced
run takes about twice as long as tier-1 alone. The file's name keeps
pytest from collecting it.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "govgame"


def _statements(source: str) -> dict[int, str]:
    """The first line of each statement in a function body of source, with its text."""
    text = source.splitlines()
    found = {}
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, ast.FunctionDef):
            for node in (n for stmt in func.body for n in ast.walk(stmt)):
                docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                if isinstance(node, ast.stmt) and not docstring:
                    found[node.lineno] = text[node.lineno - 1].strip()
    return found


def main() -> int:
    ran: set[tuple[str, int]] = set()
    tracers: dict[str, object] = {}

    def tracer(module: str):
        def lines(frame, event, arg):
            if event == "line":
                ran.add((module, frame.f_lineno))
            return lines

        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = Path(os.path.realpath(name))
            tracers[name] = tracer(path.name) if path.parent == SRC else None
        return tracers[name]

    sys.settrace(calls)
    try:
        code = pytest.main(sys.argv[1:])
    finally:
        sys.settrace(None)
    listed = 0
    for path in sorted(SRC.glob("*.py")):
        for line, text in sorted(_statements(path.read_text(encoding="utf-8")).items()):
            if (path.name, line) not in ran:
                print(f"{path.name}:{line}: {text}")
                listed += 1
    return 1 if listed else int(code)


if __name__ == "__main__":
    sys.exit(main())
