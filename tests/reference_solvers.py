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
- walk_reference: the lexicographic vertex walk of
  govgame.game_core._vertices as it was before that walk skipped the
  edges it had already crossed and keyed its vertices by label set: it
  keeps a plain set of the bases seen, ratio-tests every nonbasic
  column of every basis and keys each vertex by its coordinates over
  their gcd. It is not independent of govgame's walk; it pins the
  walk's vertices and labels, in the order found, to what the full walk
  gives on the coefficients shifted by the shift _vertices returns, once
  each label-keyed (basis, rhs, det) entry of _vertices is read back as
  a point.
- scan_pairs: the completely labelled vertex pairs by testing every
  pair of label sets, as the solver found them before it paired
  through a label index.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd
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


def _lex_cross(tableau, k, r, s, basis, nonbasic) -> int:
    """Sign of row k's lexicographic ratio minus row r's in column s, on a ratio tie."""
    row, best = tableau[k], tableau[r]
    own, other = basis[k], basis[r]
    for var in range(len(nonbasic), len(nonbasic) + len(tableau)):
        if var == own:
            return 1
        if var == other:
            return -1
        if var in nonbasic:
            c = nonbasic.index(var)
            cross = row[c] * best[s] - best[c] * row[s]
            if cross:
                return cross
    return 0


def walk_reference(coeffs: list[list[int]]) -> dict[tuple[int, ...], int]:
    """Every vertex of {z >= 0 : coeffs z <= 1} with its label bitmask, by the full walk.

    coeffs is r x d with positive integer entries. The keys, label bits
    and condensed integer tableau are those of govgame's _vertices: a
    vertex is keyed by its integer coordinates over their gcd, and
    carries the bit of every variable (z_t is t, slack k is d + k) that
    is zero there. From each basis every nonbasic column enters at the
    row of the lexicographic minimum ratio, and a basis not seen before
    is pushed on a stack; vertices are recorded in the order their
    bases are popped.
    """
    rows, d = len(coeffs), len(coeffs[0])
    full = (1 << (d + rows)) - 1
    basic = full ^ ((1 << d) - 1)
    seen = {basic}
    start = [list(coeff) + [1] for coeff in coeffs]
    stack = [(start, list(range(d, d + rows)), list(range(d)), basic, 1)]
    found: dict[tuple[int, ...], int] = {}
    while stack:
        tableau, basis, nonbasic, basic, det = stack.pop()
        point = [0] * d
        labels = full
        for var, row in zip(basis, tableau):
            if row[d]:
                labels ^= 1 << var
                if var < d:
                    point[var] = row[d]
        divisor = gcd(*point)
        found.setdefault(tuple(v // divisor for v in point) if divisor else tuple(point), labels)
        for s, entering in enumerate(nonbasic):
            r = -1
            for k, row in enumerate(tableau):
                entry = row[s]
                if entry <= 0:
                    continue
                if r >= 0:
                    cross = row[d] * best[s] - best[d] * entry
                    if not cross:
                        cross = _lex_cross(tableau, k, r, s, basis, nonbasic)
                    if cross > 0:
                        continue
                r, best = k, row
            leaving = basis[r]
            key = basic ^ (1 << leaving) ^ (1 << entering)
            if key in seen:
                continue
            seen.add(key)
            piv = best[s]
            pivoted = []
            for k, row in enumerate(tableau):
                f = row[s]
                if k == r:
                    row = row[:]
                    row[s] = det
                else:
                    row = [(a * piv - f * b) // det for a, b in zip(row, best)]
                    row[s] = -f
                pivoted.append(row)
            basis_next = basis[:r] + [entering] + basis[r + 1 :]
            nonbasic_next = nonbasic[:s] + [leaving] + nonbasic[s + 1 :]
            stack.append((pivoted, basis_next, nonbasic_next, key, piv))
    return found


def scan_pairs(p, index, m: int, n: int) -> set[tuple[int, int]]:
    """Every (lx, ly) of p's and index's label sets whose union is all m + n labels."""
    full = (1 << (m + n)) - 1
    return {(lx, ly) for lx in p for ly in index if lx | ly == full}
