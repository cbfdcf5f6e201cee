"""Property tests for the game core using randomized rational inputs."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from govgame.game_core import (
    BimatrixGame,
    MixedStrategy,
    enumerate_mixed_equilibria,
    enumerate_pure_equilibria,
    is_strong_nash,
    pareto_optimal_pure_profiles,
)
from reference_solvers import brute_force_pure, is_nash, payoffs

F = Fraction

rationals = st.fractions(min_value=F(-5), max_value=F(5), max_denominator=12)
unit_rationals = st.fractions(min_value=F(0), max_value=F(1), max_denominator=20)


def matrix_strategy(rows: int, cols: int, entries=rationals):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@st.composite
def games(draw, max_rows: int = 4, max_cols: int = 4, entries=rationals):
    rows = draw(st.integers(min_value=2, max_value=max_rows))
    cols = draw(st.integers(min_value=2, max_value=max_cols))
    return BimatrixGame(
        payoff1=draw(matrix_strategy(rows, cols, entries)),
        payoff2=draw(matrix_strategy(rows, cols, entries)),
    )


@st.composite
def mixes(draw, size: int):
    weights = draw(
        st.lists(
            st.fractions(min_value=F(0), max_value=F(10), max_denominator=8),
            min_size=size,
            max_size=size,
        ).filter(lambda ws: sum(ws) > 0)
    )
    total = sum(weights)
    return MixedStrategy(tuple(w / total for w in weights))


@given(mixes(3))
def test_probability_closure(mix):
    assert all(p >= 0 for p in mix.probs)
    assert sum(mix.probs) == 1


@settings(max_examples=100)
@given(games())
def test_pure_enumeration_matches_brute_force(game):
    enumerated = [
        (r.profile.sigma1.support[0], r.profile.sigma2.support[0])
        for r in enumerate_pure_equilibria(game)
    ]
    assert enumerated == brute_force_pure(game)


@settings(max_examples=100)
@given(games())
def test_pure_results_pass_equilibrium_check(game):
    for result in enumerate_pure_equilibria(game):
        x, y = result.profile.sigma1.probs, result.profile.sigma2.probs
        assert is_nash(game.payoff1, game.payoff2, x, y)


@settings(max_examples=60, deadline=None)
@given(games(max_rows=3, max_cols=3))
def test_mixed_enumeration_soundness(game):
    for result in enumerate_mixed_equilibria(game):
        x, y = result.profile.sigma1.probs, result.profile.sigma2.probs
        assert is_nash(game.payoff1, game.payoff2, x, y)
        assert result.payoffs == payoffs(game.payoff1, game.payoff2, x, y)


@settings(max_examples=60, deadline=None)
@given(games(max_rows=3, max_cols=3))
def test_mixed_enumeration_contains_pure(game):
    pure_cells = {
        (r.profile.sigma1.probs, r.profile.sigma2.probs)
        for r in enumerate_pure_equilibria(game)
    }
    mixed_cells = {
        (r.profile.sigma1.probs, r.profile.sigma2.probs)
        for r in enumerate_mixed_equilibria(game)
    }
    assert pure_cells <= mixed_cells


@given(
    st.fractions(min_value=F(0), max_value=F(1), max_denominator=20).filter(lambda b: b != F(1, 2)),
    st.fractions(min_value=F(0), max_value=F(1), max_denominator=20).filter(lambda g: g != F(1, 2)),
)
def test_vote_game_dominance_structure(beta, gamma):
    # Each player's payoff ignores the opponent, so the lone equilibrium
    # sits at the pair of individually dominant actions.
    game = BimatrixGame(
        payoff1=[[beta, beta], [1 - beta, 1 - beta]],
        payoff2=[[gamma, 1 - gamma], [gamma, 1 - gamma]],
    )
    results = enumerate_pure_equilibria(game)
    assert len(results) == 1
    row = 0 if beta > F(1, 2) else 1
    col = 0 if gamma > F(1, 2) else 1
    assert results[0].profile.sigma1.support == (row,)
    assert results[0].profile.sigma2.support == (col,)


@settings(max_examples=200)
@given(
    st.one_of(
        games(max_rows=3, max_cols=3),
        # Payoffs over {-1, 0, 1} tie often, so strong equilibria and
        # weak Pareto improvements both occur.
        games(max_rows=3, max_cols=3, entries=st.integers(min_value=-1, max_value=1)),
    )
)
def test_strong_nash_subset_of_pareto(game):
    cells = [(i, j) for i in range(game.rows) for j in range(game.cols)]
    payoff = {(i, j): (game.payoff1[i][j], game.payoff2[i][j]) for i, j in cells}
    dominated = {
        cell
        for cell in cells
        for other in cells
        if other != cell
        and payoff[other][0] >= payoff[cell][0]
        and payoff[other][1] >= payoff[cell][1]
        and payoff[other] != payoff[cell]
    }
    frontier = pareto_optimal_pure_profiles(game)
    assert frontier == [cell for cell in cells if cell not in dominated]
    pure = set(brute_force_pure(game))
    for i, j in cells:
        strong = is_strong_nash(game, i, j)
        assert strong == ((i, j) in pure and (i, j) in frontier)


@settings(max_examples=40, deadline=None)
@given(games(max_rows=3, max_cols=3))
def test_determinism(game):
    first = enumerate_mixed_equilibria(game)
    second = enumerate_mixed_equilibria(game)
    assert [(r.profile, r.payoffs, r.kind, r.degenerate_game) for r in first] == [
        (r.profile, r.payoffs, r.kind, r.degenerate_game) for r in second
    ]
    assert pareto_optimal_pure_profiles(game) == pareto_optimal_pure_profiles(game)


@settings(max_examples=60)
@given(games(max_rows=3, max_cols=3))
def test_pareto_frontier_nonempty_and_row_major(game):
    frontier = pareto_optimal_pure_profiles(game)
    assert frontier
    assert frontier == sorted(frontier)
