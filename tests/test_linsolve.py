"""Tests for the exact linear system solver the reference solvers rest on."""

from __future__ import annotations

from fractions import Fraction

import pytest

from reference_solvers import SolveStatus, solve_linear_system

F = Fraction


def test_unique_2x2():
    # x + y = 5, 2x - y = 0 -> x = 5/3, y = 10/3
    result = solve_linear_system([[F(1), F(1)], [F(2), F(-1)]], [F(5), F(0)])
    assert result.status is SolveStatus.UNIQUE
    assert result.is_unique
    assert result.solution == (F(5, 3), F(10, 3))


def test_unique_identity():
    result = solve_linear_system([[F(1), F(0)], [F(0), F(1)]], [F(3), F(-7)])
    assert result.solution == (F(3), F(-7))


def test_unique_3x3():
    matrix = [
        [F(2), F(1), F(-1)],
        [F(-3), F(-1), F(2)],
        [F(-2), F(1), F(2)],
    ]
    result = solve_linear_system(matrix, [F(8), F(-11), F(-3)])
    assert result.status is SolveStatus.UNIQUE
    assert result.solution == (F(2), F(3), F(-1))
    # Exactness check: substituting back reproduces the rhs.
    x = result.solution
    for row, b in zip(matrix, [F(8), F(-11), F(-3)]):
        assert sum(a * v for a, v in zip(row, x)) == b


def test_inconsistent():
    result = solve_linear_system([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)])
    assert result.status is SolveStatus.INCONSISTENT
    assert result.solution is None
    assert not result.is_unique


def test_underdetermined():
    result = solve_linear_system([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)])
    assert result.status is SolveStatus.UNDERDETERMINED
    assert result.solution is None


def test_overdetermined_consistent():
    # Three equations, two unknowns, all agreeing on (1, 2).
    matrix = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    result = solve_linear_system(matrix, [F(1), F(2), F(3)])
    assert result.status is SolveStatus.UNIQUE
    assert result.solution == (F(1), F(2))


def test_overdetermined_inconsistent():
    matrix = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    result = solve_linear_system(matrix, [F(1), F(2), F(4)])
    assert result.status is SolveStatus.INCONSISTENT


def test_zero_matrix_zero_rhs_underdetermined():
    result = solve_linear_system([[F(0), F(0)]], [F(0)])
    assert result.status is SolveStatus.UNDERDETERMINED


def test_zero_matrix_nonzero_rhs_inconsistent():
    result = solve_linear_system([[F(0), F(0)]], [F(1)])
    assert result.status is SolveStatus.INCONSISTENT


def test_row_count_mismatch():
    with pytest.raises(ValueError, match="matrix and rhs row counts differ"):
        solve_linear_system([[F(1)]], [F(1), F(2)])


def test_ragged_matrix():
    with pytest.raises(ValueError, match="ragged coefficient matrix"):
        solve_linear_system([[F(1), F(2)], [F(1)]], [F(1), F(2)])


def test_no_float_contamination():
    result = solve_linear_system([[F(1, 3), F(1, 7)], [F(2, 5), F(-1, 2)]], [F(1), F(0)])
    assert result.status is SolveStatus.UNIQUE
    assert all(isinstance(v, Fraction) for v in result.solution)
