"""The vertex-enumeration solver against an independent reference solver."""

from __future__ import annotations

import contextlib
import random
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from unittest import mock

from govgame import game_core
from govgame.game_core import (
    BimatrixGame,
    EquilibriumKind,
    EquilibriumResult,
    MixedStrategy,
    _vertices,
    enumerate_mixed_equilibria,
    pure_profile,
)
from govgame.governance import GovernanceParams, Mode, build_governance_game
from reference_solvers import (
    payoffs,
    scan_pairs,
    undominated_reference,
    vertex_oracle,
    walk_reference,
)

F = Fraction


# The walk keys the edge on which e enters a basis by its ridge, the
# basis's nonbasic set less e, and keeps the set of ridges with one end
# reached. That rests on a fact about the lexicographically perturbed
# polytope: from a lexicographically feasible basis, each entering
# variable e has exactly one leaving l that gives a lexicographically
# feasible basis, the row of the lexicographic minimum ratio; so each
# ridge of such a basis lies in exactly two of them. The first two tests
# below check the fact in both forms, by Fraction elimination with no
# code from govgame; the third counts the bases the walk pops. They come
# first in this file: a walk whose edge test takes a basis it has reached
# for a new one walks that basis again and never ends, and the pop count
# fails at once instead.


def _inverse(m: list[list[int]]) -> list[list[Fraction]] | None:
    """The inverse of a square integer matrix by Gauss-Jordan over Fraction, or None if singular."""
    n = len(m)
    rows = [[F(v) for v in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next((k for k in range(c, n) if rows[k][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for k in range(n):
            if k != c and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[c])]
    return [row[n:] for row in rows]


def _bases(coeffs: list[list[int]]) -> tuple[list[list[int]], dict, set]:
    """The columns of {z >= 0 : coeffs z <= 1}, its lexicographically feasible bases and its feasible ones.

    Variable t < d is z_t and d + k is slack k, so the system is
    [coeffs | I] (z, s) = 1. A basis with columns M is feasible when
    M^-1 1 >= 0, and lexicographically feasible when every row of
    M^-1 [1 | I] is lexicographically positive, which is feasibility of
    the right-hand side 1 + (e, e^2, ...) for every small enough e > 0.
    Bases are keyed by their set of variables; a lexicographically
    feasible one maps to its variables in row order, M^-1 and the rows of
    M^-1 [1 | I].
    """
    rows, d = len(coeffs), len(coeffs[0])
    columns = [[coeffs[k][t] for k in range(rows)] for t in range(d)]
    columns += [[int(k == i) for k in range(rows)] for i in range(rows)]
    lexical, plain = {}, set()
    for basis in combinations(range(d + rows), rows):
        inverse = _inverse([[columns[var][k] for var in basis] for k in range(rows)])
        if inverse is None:
            continue
        lex = [[sum(row)] + row for row in inverse]
        if all(v >= 0 for v, *_ in lex):
            plain.add(frozenset(basis))
        if all(next(v for v in row if v) > 0 for row in lex):
            lexical[frozenset(basis)] = (basis, inverse, lex)
    return columns, lexical, plain


def _assert_one_lex_feasible_swap_per_entering_variable(coeffs: list[list[int]]) -> int:
    """Check the fact on {z >= 0 : coeffs z <= 1}; return how many plain ratio ties it decided."""
    columns, lexical, plain = _bases(coeffs)
    ties = 0
    for key, (basis, inverse, lex) in lexical.items():
        for entering in range(len(columns)):
            if entering in key:
                continue
            column = [sum(a * b for a, b in zip(row, columns[entering])) for row in inverse]
            ratios = sorted(
                ([v / column[i] for v in lex[i]], basis[i]) for i in range(len(basis)) if column[i] > 0
            )
            assert ratios, "the polytope is bounded"
            assert len(ratios) == 1 or ratios[0][0] < ratios[1][0]
            swaps = {l for l in basis if key - {l} | {entering} in lexical}
            assert swaps == {ratios[0][1]}
            ties += sum(key - {l} | {entering} in plain for l in basis) > 1
    return ties


def _small_polytopes() -> list[list[list[int]]]:
    """147 polytopes, as coefficient matrices shifted to a least entry of 1.

    They come from every 2x2 matrix over {-1, 0, 1}, the identity and
    all-zero matrices at 2 to 4, and 20 seeded matrices over {0..3} of
    each of 3x3, 3x4 and 4x3.
    """
    matrices = [[list(entries[0:2]), list(entries[2:4])] for entries in product((-1, 0, 1), repeat=4)]
    for n in range(2, 5):
        matrices += [[[int(i == j) for j in range(n)] for i in range(n)], [[0] * n for _ in range(n)]]
    rng = random.Random(2010)
    for rows, cols in ((3, 3), (3, 4), (4, 3)):
        matrices += [[[rng.randint(0, 3) for _ in range(cols)] for _ in range(rows)] for _ in range(20)]
    shifts = [1 - min(map(min, matrix)) for matrix in matrices]
    return [[[v + shift for v in line] for line in matrix] for matrix, shift in zip(matrices, shifts)]


def test_one_lexicographically_feasible_swap_per_entering_variable():
    ties = sum(_assert_one_lex_feasible_swap_per_entering_variable(coeffs) for coeffs in _small_polytopes())
    # Degenerate vertices are reached: on 844 edges of the 147 polytopes a
    # plain ratio tie leaves two or more swaps feasible, and the
    # perturbation keeps one of them.
    assert ties == 844


def _assert_two_lex_feasible_bases_per_ridge(coeffs: list[list[int]]) -> int:
    """Check the ridge form of the fact on {z >= 0 : coeffs z <= 1}; return how many edges have zero length.

    A ridge of a basis is its nonbasic set less one variable, and a basis
    contains a ridge when its nonbasic set does, that is, when the ridge
    is one of its own. The two ends of an edge of zero length are bases
    of one point: the same variables are nonzero there, with the same
    values.
    """
    lexical = _bases(coeffs)[1]
    variables = frozenset(range(len(coeffs) + len(coeffs[0])))
    ends: dict[frozenset, list[set]] = {}
    for key, (basis, _, lex) in lexical.items():
        point = {(var, value) for var, (value, *_) in zip(basis, lex) if value}
        nonbasic = variables - key
        for var in nonbasic:
            ends.setdefault(nonbasic - {var}, []).append(point)
    assert all(len(points) == 2 for points in ends.values())
    return sum(a == b for a, b in ends.values())


def test_each_ridge_lies_in_two_lexicographically_feasible_bases():
    rng = random.Random(2011)
    matrices = [[[rng.randint(0, 3) for _ in range(5)] for _ in range(5)] for _ in range(10)]
    matrices += [[[int(i == j) for j in range(5)] for i in range(5)], [[0] * 5 for _ in range(5)]]
    shifts = [1 - min(map(min, matrix)) for matrix in matrices]
    polytopes = _small_polytopes()
    polytopes += [[[v + shift for v in line] for line in matrix] for matrix, shift in zip(matrices, shifts)]
    # Degenerate vertices are reached: 309 edges of these polytopes have
    # zero length, both their ends bases of one vertex.
    assert sum(_assert_two_lex_feasible_bases_per_ridge(coeffs) for coeffs in polytopes) == 309


def _walk_pops(coeffs: list[list[int]], limit: int) -> int:
    """How many bases _vertices pops from its stack on coeffs; fails once that passes limit."""
    pops = 0

    def count(frame, event, arg):
        nonlocal pops
        if event == "c_call" and frame.f_code is _vertices.__code__ and arg.__name__ == "pop":
            pops += 1
            assert pops <= limit, f"more than {limit} bases popped"

    sys.setprofile(count)
    try:
        _vertices(coeffs, list(range(len(coeffs))), list(range(len(coeffs[0]))))
    finally:
        sys.setprofile(None)
    return pops


def test_walk_pops_each_lexicographically_feasible_basis_once():
    # A basis reached is never walked again, and every lexicographically
    # feasible basis is reached, so the walk pops exactly those bases; an
    # edge test that takes a reached basis for a new one walks it again
    # and again.
    for coeffs in _small_polytopes():
        lexical = _bases(coeffs)[1]
        assert _walk_pops(coeffs, len(lexical)) == len(lexical)


def _profiles(results) -> list:
    return [(r.profile.sigma1.probs, r.profile.sigma2.probs) for r in results]


def _check_payoffs_and_kind(game, results) -> None:
    for result in results:
        # The solver builds its mixes without the constructor's checks;
        # each must still be one that the validating constructor accepts.
        for mix in (result.profile.sigma1, result.profile.sigma2):
            assert MixedStrategy(mix.probs) == mix
            assert all(type(p) is Fraction for p in mix.probs)
        x, y = result.profile.sigma1.probs, result.profile.sigma2.probs
        assert result.payoffs == payoffs(game.payoff1, game.payoff2, x, y)
        pure = result.profile.sigma1.is_pure and result.profile.sigma2.is_pure
        assert (result.kind is EquilibriumKind.PURE) == pure


def _canonical_key(profile) -> tuple:
    x, y = profile
    sx = tuple(i for i, p in enumerate(x) if p)
    sy = tuple(j for j, q in enumerate(y) if q)
    return (len(sx), sx, len(sy), sy, x, y)


def _assert_matches_vertex_oracle(game) -> bool:
    """Check the solver against the oracle; return whether the game is nondegenerate."""
    results = enumerate_mixed_equilibria(game)
    extreme, flagged, nondegenerate = vertex_oracle(game)
    profiles = _profiles(results)
    assert set(profiles) == extreme and len(profiles) == len(extreme)
    assert profiles == sorted(profiles, key=_canonical_key)
    assert all(r.degenerate_game == flagged for r in results)
    _check_payoffs_and_kind(game, results)
    return nondegenerate


def test_all_2x2_games_with_payoffs_in_minus_one_to_one():
    values = (-1, 0, 1)
    for entries in product(values, repeat=8):
        _assert_matches_vertex_oracle(
            BimatrixGame(
                payoff1=[list(entries[0:2]), list(entries[2:4])],
                payoff2=[list(entries[4:6]), list(entries[6:8])],
            )
        )


def _generic_game(rng: random.Random, rows: int, cols: int) -> BimatrixGame:
    def matrix():
        return [[F(rng.randint(-999, 999), rng.randint(1, 7)) for _ in range(cols)] for _ in range(rows)]

    return BimatrixGame(payoff1=matrix(), payoff2=matrix())


def test_generic_games_match_the_vertex_oracle():
    rng = random.Random(2010)
    shapes = [(2, 2)] * 20 + [(2, 3), (3, 2), (3, 4), (4, 2)] * 3 + [(3, 3)] * 10 + [(4, 4)] * 5 + [(5, 5)] * 2
    nondegenerate = 0
    for rows, cols in shapes:
        game = _generic_game(rng, rows, cols)
        if _assert_matches_vertex_oracle(game):
            nondegenerate += 1
            assert not any(r.degenerate_game for r in enumerate_mixed_equilibria(game))
    assert nondegenerate >= len(shapes) - 2


def test_small_integer_games_match_the_vertex_oracle():
    # Payoffs from a handful of integers make most of these games degenerate.
    rng = random.Random(42)
    for rows, cols, count in ((3, 3, 150), (3, 4, 40), (4, 4, 40)):
        for _ in range(count):
            _assert_matches_vertex_oracle(
                BimatrixGame(
                    payoff1=[[rng.randint(0, 2) for _ in range(cols)] for _ in range(rows)],
                    payoff2=[[rng.randint(0, 2) for _ in range(cols)] for _ in range(rows)],
                )
            )


# In the games below many vertices of the best-response polytopes lie on
# more facets than the polytope has dimensions, so the pivoting's ratio
# test ties often and many pivots are decided by its lexicographic
# tie-break.


def test_all_equal_payoffs_match_the_vertex_oracle():
    for n in range(2, 6):
        ones = [[1] * n for _ in range(n)]
        _assert_matches_vertex_oracle(BimatrixGame(payoff1=ones, payoff2=ones))


def test_identity_against_all_ones_matches_the_vertex_oracle():
    for n in range(2, 6):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        _assert_matches_vertex_oracle(BimatrixGame(payoff1=identity, payoff2=[[1] * n] * n))


def test_zero_one_5x5_games_match_the_vertex_oracle():
    rng = random.Random(5)
    for _ in range(20):
        _assert_matches_vertex_oracle(
            BimatrixGame(
                payoff1=[[rng.randint(0, 1) for _ in range(5)] for _ in range(5)],
                payoff2=[[rng.randint(0, 1) for _ in range(5)] for _ in range(5)],
            )
        )


def test_identity_against_all_ones_reports_four_vertices():
    game = BimatrixGame(payoff1=[[1, 0], [0, 1]], payoff2=[[1, 1], [1, 1]])
    results = enumerate_mixed_equilibria(game)
    e0, e1, half = (F(1), F(0)), (F(0), F(1)), (F(1, 2), F(1, 2))
    assert _profiles(results) == [(e0, e0), (e0, half), (e1, e1), (e1, half)]
    assert all(r.degenerate_game for r in results)


def test_nondegenerate_3x3_with_five_equilibria_is_not_flagged():
    game = BimatrixGame(
        payoff1=[[5, 4, 2], [1, 2, 4], [7, 2, 0]],
        payoff2=[[1, 9, 8], [6, 0, 3], [9, 5, 4]],
    )
    results = enumerate_mixed_equilibria(game)
    extreme, flagged, nondegenerate = vertex_oracle(game)
    assert nondegenerate and not flagged
    assert len(results) == 5
    assert set(_profiles(results)) == extreme
    assert not any(r.degenerate_game for r in results)


# The solver first drops strictly dominated pure strategies, round after
# round, and walks the polytopes of the surviving subgame only. The games
# below check that the cut loses no equilibrium and that the subgame's
# vertices are widened back to the full game's strategies.


def test_two_rounds_of_elimination_leave_a_mixed_subgame():
    # Column 2 is dominated by column 0 at once; only then is row 2
    # dominated by row 0. Rows and columns 0-1 are matching pennies.
    game = BimatrixGame(
        payoff1=[[2, 0, 0], [0, 2, 0], [1, -1, 5]],
        payoff2=[[0, 2, -1], [2, 0, 1], [0, 0, -1]],
    )
    _assert_matches_vertex_oracle(game)
    half = (F(1, 2), F(1, 2), F(0))
    assert _profiles(enumerate_mixed_equilibria(game)) == [(half, half)]


def test_dominated_lines_holding_the_least_payoffs_leave_the_walk_unchanged():
    # Only the walked subgame is shifted to entries >= 1. Row 2 and column 2
    # hold each player's least payoff and are strictly dominated, so the
    # subgame's shift (1) differs from that of the whole matrices (101 and 71).
    game = BimatrixGame(
        payoff1=[[3, 0, 1], [0, 1, 2], [-100, -90, -80]],
        payoff2=[[0, 2, -60], [1, 0, -70], [4, 5, -50]],
    )
    _assert_matches_vertex_oracle(game)
    (result,) = enumerate_mixed_equilibria(game)
    x, y = (F(1, 3), F(2, 3), F(0)), (F(1, 4), F(3, 4), F(0))
    assert _profiles([result]) == [(x, y)]
    assert result.payoffs == payoffs(game.payoff1, game.payoff2, x, y) == (F(3, 4), F(2, 3))


def test_all_negative_games_match_the_vertex_oracle():
    game = BimatrixGame(payoff1=[[-3, -7], [-8, -2]], payoff2=[[-5, -1], [-2, -6]])
    _assert_matches_vertex_oracle(game)
    half = (F(1, 2), F(1, 2))
    (result,) = enumerate_mixed_equilibria(game)
    assert _profiles([result]) == [(half, half)]
    assert result.payoffs == (F(-5), F(-7, 2))
    rng = random.Random(7)
    for _ in range(30):
        _assert_matches_vertex_oracle(
            BimatrixGame(
                payoff1=[[F(rng.randint(-99, -1), rng.randint(1, 5)) for _ in range(3)] for _ in range(3)],
                payoff2=[[F(rng.randint(-99, -1), rng.randint(1, 5)) for _ in range(3)] for _ in range(3)],
            )
        )


def test_weakly_dominated_row_played_in_an_equilibrium_is_reported():
    # Row 1 is weakly but not strictly dominated by row 0, and (row 1,
    # column 0) is an equilibrium.
    game = BimatrixGame(payoff1=[[1, 1], [1, 0]], payoff2=[[1, 1], [1, 1]])
    _assert_matches_vertex_oracle(game)
    e0, e1 = (F(1), F(0)), (F(0), F(1))
    assert (e1, e0) in _profiles(enumerate_mixed_equilibria(game))


def test_rectangular_small_integer_games_match_the_vertex_oracle():
    rng = random.Random(2024)
    for rows, cols in ((2, 6), (6, 2), (3, 5), (5, 3)):
        for _ in range(25):
            _assert_matches_vertex_oracle(
                BimatrixGame(
                    payoff1=[[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)],
                    payoff2=[[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)],
                )
            )


# The solver's elimination order differs from the reference's, which drops
# every dominated row and column of a round at once. Iterated strict
# dominance leaves the same subgame in any order, so the two must agree.


def _assert_agrees_with_undominated_reference(game) -> tuple[list[int], list[int]]:
    """Check that no result plays a strategy the reference drops; return what it keeps.

    When the reference keeps one row or one column, the other side's
    survivors all tie against it, so the results must be the pure
    profiles of the surviving cells in row-major order, flagged as
    degenerate when there is more than one, and found without a walk.
    """
    rows, cols = undominated_reference(game.payoff1, game.payoff2)
    one_line = len(rows) == 1 or len(cols) == 1
    no_walk = mock.patch.object(game_core, "_vertices", side_effect=AssertionError("walked"))
    with no_walk if one_line else contextlib.nullcontext():
        results = enumerate_mixed_equilibria(game)
    assert results
    for result in results:
        x, y = result.profile.sigma1.probs, result.profile.sigma2.probs
        assert all(p == 0 for i, p in enumerate(x) if i not in rows)
        assert all(q == 0 for j, q in enumerate(y) if j not in cols)
    if one_line:
        cells = [(i, j) for i in rows for j in cols]
        assert results == [
            EquilibriumResult(
                pure_profile(game, i, j),
                (game.payoff1[i][j], game.payoff2[i][j]),
                EquilibriumKind.PURE,
                len(cells) > 1,
            )
            for i, j in cells
        ]
    return rows, cols


def test_dominance_step_agrees_with_the_reference_on_all_2x2_games_in_minus_one_to_one():
    shrunk = solved = 0
    for entries in product((-1, 0, 1), repeat=8):
        game = BimatrixGame(
            payoff1=[list(entries[0:2]), list(entries[2:4])],
            payoff2=[list(entries[4:6]), list(entries[6:8])],
        )
        rows, cols = _assert_agrees_with_undominated_reference(game)
        shrunk += len(rows) + len(cols) < 4
        solved += len(rows) == len(cols) == 1
    # The inputs reach every path: 2592 games lose a line, 1620 of them
    # down to a single profile and the other 972 to one line on a side.
    assert (shrunk, solved) == (2592, 1620)


def test_dominance_step_on_single_row_and_single_column_games():
    # One side starts with a single line, which it cannot lose.
    rng = random.Random(1990)

    def entry():
        # Small integers tie often; the fractions seldom do.
        return rng.randint(-2, 2) if rng.random() < 0.5 else F(rng.randint(-9, 9), rng.randint(1, 4))

    for n in range(1, 7):
        for _ in range(15):
            line1, line2 = [entry() for _ in range(n)], [entry() for _ in range(n)]
            for game in (
                BimatrixGame(payoff1=[line1], payoff2=[line2]),
                BimatrixGame(payoff1=[[v] for v in line1], payoff2=[[v] for v in line2]),
            ):
                _assert_agrees_with_undominated_reference(game)
                _assert_matches_vertex_oracle(game)


def test_equal_lines_never_remove_each_other():
    # Rows 0 and 1 are equal and beat row 2; column 0 beats column 1.
    game = BimatrixGame(payoff1=[[2, 1], [2, 1], [0, 0]], payoff2=[[1, 0], [1, 0], [1, 0]])
    assert undominated_reference(game.payoff1, game.payoff2) == ([0, 1], [0])
    _assert_agrees_with_undominated_reference(game)
    results = enumerate_mixed_equilibria(game)
    assert {i for r in results for i in r.profile.sigma1.support} == {0, 1}
    _assert_matches_vertex_oracle(game)
    # Small-integer games with one row and one column repeated.
    rng = random.Random(1991)
    for _ in range(60):
        a = [[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)]
        b = [[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)]
        r, c = rng.randrange(3), rng.randrange(3)
        a, b = a + [a[r]], b + [b[r]]
        a, b = [line + [line[c]] for line in a], [line + [line[c]] for line in b]
        game = BimatrixGame(payoff1=a, payoff2=b)
        rows, cols = undominated_reference(a, b)
        assert (r in rows) == (3 in rows) and (c in cols) == (3 in cols)
        _assert_agrees_with_undominated_reference(game)
        _assert_matches_vertex_oracle(game)


def test_staircase_games_drop_one_line_per_pass():
    # Row i pays player 1 2 only at column i + 1, column j pays player 2
    # 2 only at row j, and every other entry of line i or j is -i/n or
    # -j/n. Only the last row is dominated at first, by row 0; its loss
    # leaves only the last column dominated, and so on down the stair:
    # each pass drops one line, 2n - 2 in all, down to row 0 and column 0.
    for n in range(2, 9):
        game = BimatrixGame(
            payoff1=[[2 * (j == i + 1) - F(i, n) for j in range(n)] for i in range(n)],
            payoff2=[[2 * (i == j) - F(j, n) for j in range(n)] for i in range(n)],
        )
        assert undominated_reference(game.payoff1, game.payoff2) == ([0], [0])
        a, bt = game_core._integers(game.payoff1)[0], game_core._integers(tuple(zip(*game.payoff2)))[0]
        assert game_core._undominated(a, bt) == ([0], [0])
        _assert_agrees_with_undominated_reference(game)


def test_vote_games_with_a_half_share_match_the_vertex_oracle():
    # On the beta = 1/2 row and the gamma = 1/2 column of the W1 grid one
    # side of the vote game ties, so elimination leaves one line against
    # two tied lines; at beta = gamma = 1/2 nothing is eliminated.
    points = [(30, g) for g in range(0, 61, 3)] + [(b, 30) for b in range(61) if b != 30]
    for b, g in points:
        for mode, k, n in ((Mode.NO_GOVERNANCE, 1, 1), (Mode.ON_CHAIN, 3, 10)):
            game = build_governance_game(
                GovernanceParams(beta=F(b, 60), gamma=F(g, 60), mode=mode, k=k, n=n)
            )
            rows, cols = _assert_agrees_with_undominated_reference(game)
            assert (len(rows), len(cols)) == ((2, 2) if b == g == 30 else (1, 2) if g == 30 else (2, 1))
            _assert_matches_vertex_oracle(game)


# The walk crosses each edge of the perturbed polytope once: an entering
# column whose edge was already crossed from the other end is not
# ratio-tested again. It keys each vertex by its label set and keeps the
# first basis found for it. walk_reference tests every column of every
# basis and keys each vertex by its coordinates over their gcd; read back
# as such points, the walk's vertices must be those of walk_reference,
# with the same labels, in the same order.


def _as_points(vertices: dict, coeffs: list[list[int]]) -> dict:
    """_vertices' {labels: (basis, rhs, det)} as {coordinates over their gcd: labels}, in order.

    Each vertex's labels and det are checked against its point z, the
    coordinates times det: z_t is 0 exactly where variable t's label is
    set, coeffs[k]·z equals det exactly where slack k's label is set, and
    is less than det elsewhere.
    """
    d = len(coeffs[0])
    points = {}
    for labels, (basis, rhs, det) in vertices.items():
        point = [0] * d
        for var, value in zip(basis, rhs):
            if var < d:
                point[var] = value
        for t, value in enumerate(point):
            assert (value == 0) == bool(labels >> t & 1)
        for k, coeff in enumerate(coeffs):
            dot = sum(c * v for c, v in zip(coeff, point))
            assert dot == det if labels >> (d + k) & 1 else dot < det
        divisor = gcd(*point)
        key = tuple(v // divisor for v in point) if divisor else tuple(point)
        assert key not in points, "two label sets give the same point"
        points[key] = labels
    return points


def _assert_walk_matches_reference(matrix) -> None:
    vertices, shift = _vertices(matrix, list(range(len(matrix))), list(range(len(matrix[0]))))
    coeffs = [[v + shift for v in line] for line in matrix]
    assert min(min(line) for line in coeffs) == 1
    assert list(_as_points(vertices, coeffs).items()) == list(walk_reference(coeffs).items())


def test_walk_matches_the_full_walk_on_all_2x2_matrices_in_minus_one_to_one():
    for entries in product((-1, 0, 1), repeat=4):
        _assert_walk_matches_reference([list(entries[0:2]), list(entries[2:4])])


def test_walk_matches_the_full_walk_on_random_matrices_up_to_6x6():
    rng = random.Random(2002)
    for rows in range(1, 7):
        for cols in range(1, 7):
            for _ in range(6):
                _assert_walk_matches_reference([[rng.randint(-1, 1) for _ in range(cols)] for _ in range(rows)])
                _assert_walk_matches_reference([[rng.randint(0, 3) for _ in range(cols)] for _ in range(rows)])
                _assert_walk_matches_reference([[rng.randint(-999, 999) for _ in range(cols)] for _ in range(rows)])


def test_walk_matches_the_full_walk_on_identity_and_constant_matrices():
    # An all-zero and an all-one matrix both shift to the all-one polytope.
    for n in range(2, 9):
        _assert_walk_matches_reference([[int(i == j) for j in range(n)] for i in range(n)])
        _assert_walk_matches_reference([[0] * n for _ in range(n)])


def test_walk_matches_the_full_walk_on_generic_7x7_and_8x8_matrices():
    rng = random.Random(1964)
    for n in (7, 7, 8):
        _assert_walk_matches_reference([[rng.randint(-999, 999) for _ in range(n)] for _ in range(n)])


def test_walk_matches_the_full_walk_on_wide_and_tall_matrices_of_ties():
    # Most bases of these walks lead only to bases already found, many of
    # them on one degenerate vertex.
    rng = random.Random(2000)
    for rows, cols in ((2, 8), (8, 2), (4, 7), (7, 4)):
        for high in (1, 2):
            for _ in range(6):
                _assert_walk_matches_reference([[rng.randint(0, high) for _ in range(cols)] for _ in range(rows)])


# The solver pairs the vertices through an index of Q's vertices by label
# set, and scans only the vertices with more labels than their dimension.
# scan_pairs tests every pair of label sets; on every walked game the two
# must give the same pairs, each once.


def _assert_pairs_match_scan(games) -> tuple[int, int]:
    """Solve the games with each pairing checked; return (walked games, wide vertices seen)."""
    real = game_core._pairs
    seen = [0, 0]

    def checked(p, index, m, n):
        pairs = real(p, index, m, n)
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == scan_pairs(p, index, m, n)
        seen[0] += 1
        seen[1] += sum(lx.bit_count() > m for lx in p) + sum(ly.bit_count() > n for ly in index)
        return pairs

    with mock.patch.object(game_core, "_pairs", checked):
        for game in games:
            enumerate_mixed_equilibria(game)
    return seen[0], seen[1]


def test_label_index_pairs_as_the_scan_on_all_2x2_games_in_minus_one_to_one():
    games = (
        BimatrixGame([list(e[0:2]), list(e[2:4])], [list(e[4:6]), list(e[6:8])])
        for e in product((-1, 0, 1), repeat=8)
    )
    walked, wide = _assert_pairs_match_scan(games)
    # 6561 - 2592 games lose no line, and ties give many wide vertices.
    assert walked == 3969 and wide > 0


def test_label_index_pairs_as_the_scan_on_tie_heavy_games_up_to_6x6():
    rng = random.Random(1973)
    games = [
        BimatrixGame(
            [[draw() for _ in range(cols)] for _ in range(rows)],
            [[draw() for _ in range(cols)] for _ in range(rows)],
        )
        for draw in (lambda: rng.randint(0, 1), lambda: rng.randint(-2, 2))
        for rows in range(2, 7)
        for cols in range(2, 7)
        for _ in range(4)
    ]
    walked, wide = _assert_pairs_match_scan(games)
    assert walked > 100 and wide > 0


def test_label_index_pairs_as_the_scan_on_identity_and_all_zero_games():
    games = []
    for n in range(2, 7):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        games.append(BimatrixGame(identity, [[1] * n] * n))
        games.append(BimatrixGame([[0] * n] * n, [[0] * n] * n))
    walked, wide = _assert_pairs_match_scan(games)
    assert walked == len(games) and wide > 0


def test_label_index_pairs_as_the_scan_on_generic_7x7_and_8x8_games():
    rng = random.Random(1974)
    games = [_generic_game(rng, n, n) for n in (7, 7, 8)]
    assert _assert_pairs_match_scan(games) == (3, 0)
