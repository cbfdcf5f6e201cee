"""The README's library example runs as documented."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    # The case-study vote game has one equilibrium, (Yes, Upgraded).
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    assert lines[0].endswith("(Fraction(27, 50), Fraction(7, 10))")
