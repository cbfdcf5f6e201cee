"""The solver on games whose equilibria are known without an oracle.

The vertex oracle of reference_solvers is too slow past 6x6, so two
kinds of check reach larger games. Two families have every extreme
equilibrium in closed form at any size, and three metamorphic relations
turn one game into another whose equilibria follow from the first's:
swapping the players' roles, permuting rows and columns, and a positive
affine map of each player's payoffs. A relation needs no answer to be
known, so it holds the solver to itself on generic and tie-heavy games
up to 12x12.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations

import pytest

from govgame.game_core import BimatrixGame, EquilibriumKind, enumerate_mixed_equilibria

F = Fraction


def _listed(game: BimatrixGame) -> list[tuple]:
    """Each result as (row mix, column mix, payoffs, kind, degenerate flag), in the solver's order."""
    return [
        (r.profile.sigma1.probs, r.profile.sigma2.probs, r.payoffs, r.kind, r.degenerate_game)
        for r in enumerate_mixed_equilibria(game)
    ]


def _uniform(support: tuple[int, ...], n: int) -> tuple[Fraction, ...]:
    return tuple(F(1, len(support)) if i in support else F(0) for i in range(n))


def _kind(*supports: tuple[int, ...]) -> EquilibriumKind:
    return EquilibriumKind.PURE if all(len(s) == 1 for s in supports) else EquilibriumKind.MIXED


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _supports(n: int):
    """Every nonempty subset of range(n), by size and then lexicographically: the solver's order."""
    for size in range(1, n + 1):
        yield from combinations(range(n), size)


@pytest.mark.parametrize("n", range(1, 11))
def test_identity_against_identity_has_one_equilibrium_per_nonempty_support(n):
    # 2^n - 1 equilibria (Quint and Shubik 1997): both players uniform on
    # each nonempty set S, each paid 1/|S|. No two share a strategy.
    expected = [
        (_uniform(s, n), _uniform(s, n), (F(1, len(s)), F(1, len(s))), _kind(s, s), False)
        for s in _supports(n)
    ]
    assert len(expected) == 2**n - 1
    assert _listed(BimatrixGame(_identity(n), _identity(n))) == expected


@pytest.mark.parametrize("n", range(1, 11))
def test_identity_against_all_ones_pairs_each_pure_row_with_every_support_holding_it(n):
    # n * 2^(n-1) equilibria: P's nonzero vertices are the unit vectors and
    # Q is the unit cube, so row i pairs with y uniform on each support
    # that holds column i, paying 1/|support| and 1. Past 1x1 every row
    # pairs with several columns' mixes, so the game is degenerate.
    ones = [[1] * n for _ in range(n)]
    expected = [
        (_uniform((i,), n), _uniform(s, n), (F(1, len(s)), F(1)), _kind(s), n > 1)
        for i in range(n)
        for s in _supports(n)
        if i in s
    ]
    assert len(expected) == n * 2 ** (n - 1)
    assert _listed(BimatrixGame(_identity(n), ones)) == expected


def _generic(rng: random.Random, n: int) -> list[list[Fraction]]:
    return [[F(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(n)] for _ in range(n)]


def _ties(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]


def _games() -> dict[str, BimatrixGame]:
    """Generic games over F(-20..20, 1..10) and tie-heavy ones over -2..2, 7x7 to 10x10; a 12x12."""
    rng = random.Random(1997)
    games = {}
    for n in range(7, 11):
        games[f"{n}x{n}-generic"] = BimatrixGame(_generic(rng, n), _generic(rng, n))
        games[f"{n}x{n}-ties"] = BimatrixGame(_ties(rng, n), _ties(rng, n))
    games["12x12-generic"] = BimatrixGame(_generic(rng, 12), _generic(rng, 12))
    return games


GAMES = _games()


@functools.cache
def _original(name: str) -> list[tuple]:
    return _listed(GAMES[name])


def _transposed(matrix) -> list[list[Fraction]]:
    return [list(column) for column in zip(*matrix)]


@pytest.mark.parametrize("name", GAMES)
def test_swapping_the_players_roles_swaps_every_equilibrium(name):
    game = GAMES[name]
    swapped = _listed(BimatrixGame(_transposed(game.payoff2), _transposed(game.payoff1)))
    back = {(y, x, (u2, u1), kind, flag) for x, y, (u1, u2), kind, flag in swapped}
    original = _original(name)
    assert len(swapped) == len(original) and back == set(original)


@pytest.mark.parametrize("name", GAMES)
def test_permuting_rows_and_columns_permutes_every_equilibrium(name):
    game = GAMES[name]
    rng = random.Random(name)
    rows, cols = list(range(game.rows)), list(range(game.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)

    def permuted(matrix):
        return [[matrix[i][j] for j in cols] for i in rows]

    moved = _listed(BimatrixGame(permuted(game.payoff1), permuted(game.payoff2)))
    # Row k of the permuted game is row rows[k] of the original.
    back = set()
    for x, y, payoffs, kind, flag in moved:
        x0, y0 = [F(0)] * game.rows, [F(0)] * game.cols
        for k, i in enumerate(rows):
            x0[i] = x[k]
        for k, j in enumerate(cols):
            y0[j] = y[k]
        back.add((tuple(x0), tuple(y0), payoffs, kind, flag))
    original = _original(name)
    assert len(moved) == len(original) and back == set(original)


@pytest.mark.parametrize("name", GAMES)
def test_positive_affine_maps_of_the_payoffs_keep_every_strategy(name):
    # The order of the results depends on the strategies alone, so it is kept too.
    game = GAMES[name]
    (c1, d1), (c2, d2) = (F(3, 7), F(-5, 2)), (F(11), F(4, 9))
    mapped = _listed(
        BimatrixGame(
            [[c1 * v + d1 for v in row] for row in game.payoff1],
            [[c2 * v + d2 for v in row] for row in game.payoff2],
        )
    )
    expected = [
        (x, y, (c1 * u1 + d1, c2 * u2 + d2), kind, flag)
        for x, y, (u1, u2), kind, flag in _original(name)
    ]
    assert mapped == expected
