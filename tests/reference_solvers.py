"""Reference checks the tests hold govgame's equilibrium solver to.

None of these shares a code path with govgame's solver:

- is_nash and payoffs: the exact equilibrium test and expected payoffs
  of a mixed profile, from bench/oracles.py, which imports nothing from
  govgame.
- vertex_oracle: every extreme equilibrium of any bimatrix game, from
  bench/oracles.py, which enumerates the completely labelled vertex
  pairs of the two best-response polytopes by solving every square
  tight subsystem, with no pivoting and no code from govgame.
- brute_force_pure: the pure equilibria, by scanning every cell.
- undominated_reference: iterated elimination of strictly dominated
  strategies on the Fractions, dropping every dominated row and column
  of a round at once.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

from govgame.game_core import BimatrixGame

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from oracles import extreme_equilibria, is_nash, payoffs  # noqa: E402, F401

Profile = tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


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


def undominated_reference(payoff1, payoff2) -> tuple[list[int], list[int]]:
    """Rows and columns left by iterated elimination of strictly dominated strategies.

    Each round finds, on the surviving subgame, every row that another
    surviving row beats for player 1 in every surviving column and every
    column that another surviving column beats for player 2 in every
    surviving row, and drops them all at once; it stops after a round
    that drops nothing. The order of elimination does not change what
    survives, so any other order must agree.
    """
    rows, cols = list(range(len(payoff1))), list(range(len(payoff1[0])))
    while True:
        dropped_rows = [
            i for i in rows
            if any(all(payoff1[k][j] > payoff1[i][j] for j in cols) for k in rows)
        ]
        dropped_cols = [
            j for j in cols
            if any(all(payoff2[i][k] > payoff2[i][j] for i in rows) for k in cols)
        ]
        if not dropped_rows and not dropped_cols:
            return rows, cols
        rows = [i for i in rows if i not in dropped_rows]
        cols = [j for j in cols if j not in dropped_cols]
