"""Reference solvers the tests check govgame's equilibrium solver against.

None of these shares a code path with govgame's vertex enumeration:

- solve_linear_system: exact Gaussian elimination over Fractions that
  tells a unique solution from an inconsistent or underdetermined system.
- support_enumeration: the support-enumeration solver govgame used to
  ship, built on solve_linear_system. It is complete for nondegenerate
  games only, so it serves as the oracle for those.
- vertex_oracle: every extreme equilibrium of any bimatrix game, from
  bench/oracles.py, which enumerates the completely labelled vertex
  pairs of the two best-response polytopes by solving every square
  tight subsystem, with no pivoting and no code from govgame.
- brute_force_pure: the pure equilibria, by scanning every cell.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from govgame.game_core import BimatrixGame, MixedStrategy, StrategyProfile, is_equilibrium

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from oracles import extreme_equilibria, is_nash  # noqa: E402

Profile = tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


class SolveStatus(Enum):
    UNIQUE = "unique"
    INCONSISTENT = "inconsistent"
    UNDERDETERMINED = "underdetermined"


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    solution: tuple[Fraction, ...] | None

    @property
    def is_unique(self) -> bool:
        return self.status is SolveStatus.UNIQUE


def solve_linear_system(matrix: list[list[Fraction]], rhs: list[Fraction]) -> SolveResult:
    """Solve A x = b exactly.

    Returns SolveResult with UNIQUE and the solution tuple, INCONSISTENT
    (no solution), or UNDERDETERMINED (solutions form a positive-
    dimensional set; no representative is returned).
    """
    m = len(matrix)
    if len(rhs) != m:
        raise ValueError("matrix and rhs row counts differ")
    n = len(matrix[0]) if m else 0
    for row in matrix:
        if len(row) != n:
            raise ValueError("ragged coefficient matrix")

    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]

    pivot_cols: list[int] = []
    row_at = 0
    for col in range(n):
        pivot_row = next((r for r in range(row_at, m) if aug[r][col] != 0), None)
        if pivot_row is None:
            continue
        aug[row_at], aug[pivot_row] = aug[pivot_row], aug[row_at]
        pivot = aug[row_at][col]
        aug[row_at] = [entry / pivot for entry in aug[row_at]]
        for r in range(m):
            if r != row_at and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row_at])]
        pivot_cols.append(col)
        row_at += 1
        if row_at == m:
            break

    # Zero coefficient row with nonzero rhs: contradiction.
    for r in range(row_at, m):
        if aug[r][n] != 0:
            return SolveResult(SolveStatus.INCONSISTENT, None)

    if len(pivot_cols) < n:
        return SolveResult(SolveStatus.UNDERDETERMINED, None)

    solution = [Fraction(0)] * n
    for r, col in enumerate(pivot_cols):
        solution[col] = aug[r][n]
    return SolveResult(SolveStatus.UNIQUE, tuple(solution))


def _supports(size: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for length in range(1, size + 1):
        out.extend(combinations(range(size), length))
    return out


_UNDERDETERMINED = object()


def _support_candidate(game: BimatrixGame, support_r: tuple[int, ...], support_c: tuple[int, ...]) -> object:
    """(x, y) when both indifference systems solve uniquely, None when
    either is inconsistent, _UNDERDETERMINED otherwise."""
    # Player 1's weights on support_r must equalize player 2's payoff
    # across support_c; the extra unknown is that common payoff value.
    matrix = [[game.payoff2[i][j] for i in support_r] + [Fraction(-1)] for j in support_c]
    matrix.append([Fraction(1)] * len(support_r) + [Fraction(0)])
    rhs = [Fraction(0)] * len(support_c) + [Fraction(1)]
    row_side = solve_linear_system(matrix, rhs)
    if row_side.status is SolveStatus.INCONSISTENT:
        return None

    matrix = [[game.payoff1[i][j] for j in support_c] + [Fraction(-1)] for i in support_r]
    matrix.append([Fraction(1)] * len(support_c) + [Fraction(0)])
    rhs = [Fraction(0)] * len(support_r) + [Fraction(1)]
    col_side = solve_linear_system(matrix, rhs)
    if col_side.status is SolveStatus.INCONSISTENT:
        return None

    if not (row_side.is_unique and col_side.is_unique):
        return _UNDERDETERMINED

    x = [Fraction(0)] * game.rows
    for idx, i in enumerate(support_r):
        x[i] = row_side.solution[idx]
    y = [Fraction(0)] * game.cols
    for idx, j in enumerate(support_c):
        y[j] = col_side.solution[idx]
    return (tuple(x), tuple(y))


def support_enumeration(game: BimatrixGame) -> tuple[list[Profile], bool]:
    """Equilibria by support enumeration, and whether a system was underdetermined.

    Support pairs are tried by size, then lexicographically, row support
    outermost. Pairs whose systems are underdetermined are skipped, so
    degenerate games can lose extreme equilibria here.
    """
    underdetermined = False
    found: list[Profile] = []
    for support_r in _supports(game.rows):
        for support_c in _supports(game.cols):
            candidate = _support_candidate(game, support_r, support_c)
            if candidate is None:
                continue
            if candidate is _UNDERDETERMINED:
                underdetermined = True
                continue
            x, y = candidate
            if any(p < 0 for p in x) or any(q < 0 for q in y) or (x, y) in found:
                continue
            if is_equilibrium(game, StrategyProfile(MixedStrategy(x), MixedStrategy(y))):
                found.append((x, y))
    return found, underdetermined


def vertex_oracle(game: BimatrixGame) -> tuple[set[Profile], bool, bool]:
    """(extreme equilibria, degenerate_game flag, nondegenerate) of a game.

    The equilibria and the nondegeneracy come from the benchmark's
    independent oracle. The flag is set when two distinct extreme
    equilibria (x1, y1) and (x2, y2) are cross-compatible: (x1, y2) and
    (x2, y1) are equilibria too.
    """
    a, b = game.payoff1, game.payoff2
    extreme, nondegenerate = extreme_equilibria(a, b)
    pairs = list(extreme)
    flagged = any(
        is_nash(a, b, x1, y2) and is_nash(a, b, x2, y1)
        for i, (x1, y1) in enumerate(pairs)
        for x2, y2 in pairs[i + 1 :]
    )
    return extreme, flagged, nondegenerate


def brute_force_pure(game: BimatrixGame) -> list[tuple[int, int]]:
    """All cells stable against every pure deviation, by direct scan."""
    found = []
    for i in range(game.rows):
        for j in range(game.cols):
            row_best = all(game.payoff1[i][j] >= game.payoff1[a][j] for a in range(game.rows))
            col_best = all(game.payoff2[i][j] >= game.payoff2[i][b] for b in range(game.cols))
            if row_best and col_best:
                found.append((i, j))
    return found
