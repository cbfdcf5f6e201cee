"""How tests/mutants.py makes its mutants, on a small fixed module."""

from __future__ import annotations

import ast

from mutants import mutants

SOURCE = '''\
"""A docstring with operators in it: a < b and not c, 1 + 2."""

from __future__ import annotations


def f(x: int | None, ys: list[int], k: int = 5) -> int | None:
    """x << 1 or x in ys."""
    total: int | None = 0
    if not x and x is not None:
        total += x * 2
    return 0 <= x <= k or x in ys
'''


def _differences(a: object, b: object) -> list[tuple[object, object]]:
    """The outermost pairs of nodes or values at which two syntax trees differ."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for x, y in zip(a, b) for d in _differences(x, y)]
    if isinstance(a, ast.AST) and type(a) is type(b):
        pairs = [(getattr(a, field), getattr(b, field)) for field in a._fields]
        return [d for x, y in pairs for d in _differences(x, y)]
    return [] if a == b else [(a, b)]


def test_every_site_outside_annotations_and_docstrings_is_found_once():
    # The annotations hold | and the docstrings <, and, not, + and <<, all skipped.
    assert [(line, change) for line, change, _ in mutants(SOURCE)] == [
        (6, "5 -> 6"),
        (8, "0 -> 1"),
        (9, "and -> or"),
        (9, "drop not"),
        (9, "is not -> is"),
        (10, "+ -> -"),
        (10, "* -> //"),
        (10, "2 -> 3"),
        (11, "or -> and"),
        (11, "<= -> <"),
        (11, "<= -> <"),
        (11, "0 -> 1"),
        (11, "in -> not in"),
    ]


def test_each_mutant_parses_and_differs_from_the_source_in_one_node():
    texts = [text for _, _, text in mutants(SOURCE)]
    # The two <= of the chain give two mutants.
    assert len(set(texts)) == len(texts)
    for text in texts:
        [(old, new)] = _differences(ast.parse(SOURCE), ast.parse(text))
        if isinstance(old, ast.UnaryOp):
            assert isinstance(old.op, ast.Not) and ast.dump(new) == ast.dump(old.operand)
        elif isinstance(old, int):
            assert new == old + 1
        else:
            assert isinstance(old, (ast.operator, ast.cmpop, ast.boolop))
            assert type(new) is not type(old)
