"""Tests for bimatrix game construction, the solvers, and the game file format."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

import govgame
from govgame.errors import ValidationError
from govgame.game_core import (
    BimatrixGame,
    EquilibriumKind,
    MixedStrategy,
    enumerate_mixed_equilibria,
    enumerate_pure_equilibria,
    is_strong_nash,
    load_game,
    pareto_optimal_pure_profiles,
    pure_profile,
)
from reference_solvers import is_nash, payoffs

F = Fraction


def vote_game(beta, gamma, scale_v=F(1), scale_c=F(1)) -> BimatrixGame:
    """2x2 upgrade-vote game: row payoffs depend only on the row, column
    payoffs only on the column."""
    b, g = F(beta), F(gamma)
    return BimatrixGame(
        payoff1=[[b * scale_v, b * scale_v], [(1 - b) * scale_v, (1 - b) * scale_v]],
        payoff2=[[g * scale_c, (1 - g) * scale_c], [g * scale_c, (1 - g) * scale_c]],
        row_labels=("Yes", "No"),
        col_labels=("Upgraded", "Original"),
    )


MATCHING_PENNIES = BimatrixGame(
    payoff1=[[F(1), F(-1)], [F(-1), F(1)]],
    payoff2=[[F(-1), F(1)], [F(1), F(-1)]],
)

ALL_ZERO = BimatrixGame(payoff1=[[F(0)] * 2] * 2, payoff2=[[F(0)] * 2] * 2)

PRISONERS_DILEMMA = BimatrixGame(
    payoff1=[[F(3), F(0)], [F(5), F(1)]],
    payoff2=[[F(3), F(5)], [F(0), F(1)]],
)

# Its mixed equilibrium has x = (2/3, 1/3) and y = (1/3, 2/3), so a
# solver that swaps the row and column vertex of a pair reports a non-Nash
# profile.
BATTLE_OF_THE_SEXES = BimatrixGame(
    payoff1=[[F(2), F(0)], [F(0), F(1)]],
    payoff2=[[F(1), F(0)], [F(0), F(2)]],
)


class TestBimatrixGame:
    def test_shape_properties(self):
        game = vote_game("3/5", "7/10")
        assert game.rows == 2
        assert game.cols == 2

    def test_default_labels(self):
        game = BimatrixGame(payoff1=[[1, 2]], payoff2=[[3, 4]])
        assert game.row_labels == ("R1",)
        assert game.col_labels == ("C1", "C2")

    def test_entries_are_fractions(self):
        game = BimatrixGame(payoff1=[["0.5", 1]], payoff2=[[2, "1/3"]])
        assert game.payoff1[0][0] == F(1, 2)
        assert game.payoff2[0][1] == F(1, 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            BimatrixGame(payoff1=[[1, 2]], payoff2=[[1], [2]])

    @pytest.mark.parametrize("row", [[], (), 5, "12"], ids=["empty-list", "empty-tuple", "int", "str"])
    def test_row_must_be_a_non_empty_list(self, row):
        with pytest.raises(ValidationError, match=r"payoff1 row 1 must be a non-empty list"):
            BimatrixGame(payoff1=[[1], row], payoff2=[[1], [1]])

    def test_bad_entry_names_position(self):
        with pytest.raises(ValidationError, match=r"payoff1\[0\]\[0\]"):
            BimatrixGame(payoff1=[["1/0", 1]], payoff2=[[1, 1]])

    def test_label_count_must_match(self):
        with pytest.raises(ValidationError):
            BimatrixGame(payoff1=[[1, 2]], payoff2=[[1, 2]], row_labels=("A", "B"))

    def test_labels_must_be_strings(self):
        with pytest.raises(ValidationError, match="row_labels entries must be strings"):
            BimatrixGame([[1]], [[1]], row_labels=[1])


class TestMixedStrategy:
    def test_pure_helper(self):
        s = MixedStrategy.pure(1, 3)
        assert s.probs == (F(0), F(1), F(0))
        assert s == MixedStrategy(s.probs)
        assert all(type(p) is F for p in s.probs)
        assert s.is_pure
        assert s.support == (1,)

    def test_uniform_helper(self):
        s = MixedStrategy((F(1, 4),) * 4)
        assert s.probs == (F(1, 4),) * 4
        assert not s.is_pure
        assert s.support == (0, 1, 2, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError, match="probabilities must be non-negative"):
            MixedStrategy((F(-1, 2), F(3, 2)))

    @pytest.mark.parametrize("probs", [[], "1"])
    def test_probs_must_be_a_non_empty_sequence(self, probs):
        with pytest.raises(ValidationError, match="probs must be a non-empty sequence"):
            MixedStrategy(probs)

    def test_sum_must_be_one(self):
        with pytest.raises(ValidationError, match="probabilities must sum to exactly 1"):
            MixedStrategy((F(1, 2), F(1, 3)))

    def test_exact_sum_accepted(self):
        s = MixedStrategy((F(1, 3), F(1, 3), F(1, 3)))
        assert sum(s.probs) == 1

    @pytest.mark.parametrize("offset", [F(-1, 10**40), F(1, 10**40)])
    def test_sum_off_by_a_tiny_amount_rejected(self, offset):
        with pytest.raises(ValidationError, match="probabilities must sum to exactly 1"):
            MixedStrategy((F(1, 2), F(1, 2) + offset))

    def test_large_coprime_denominators_summing_to_one_accepted(self):
        # Two Mersenne primes; the third entry's denominator is their product.
        p, q = 2**89 - 1, 2**107 - 1
        probs = (F(1, p), F(1, q), F(p * q - p - q, p * q))
        assert MixedStrategy(probs).probs == probs

    def test_negative_entry_with_large_denominator_rejected(self):
        tiny = F(1, 2**107 - 1)
        with pytest.raises(ValidationError, match="probabilities must be non-negative"):
            MixedStrategy((-tiny, F(1) + tiny))

    @pytest.mark.parametrize(
        "probs, message",
        [
            (("1/2", "x"), "probs[1]: cannot parse 'x'"),
            ((F(1, 2), 0.5), "probs[1] must be given as text or an integer"),
            ((True, 0), "probs[0] must be a number or 'p/q' string, got a boolean"),
        ],
    )
    def test_entries_parsed_by_index(self, probs, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            MixedStrategy(probs)

    def test_text_entries_stored_as_fractions(self):
        s = MixedStrategy(("1/3", "2/3"))
        assert s.probs == (F(1, 3), F(2, 3))
        assert all(type(p) is F for p in s.probs)


class TestEnumeratePure:
    def test_constant_vote_game_has_four(self):
        game = vote_game("1/2", "1/2")
        results = enumerate_pure_equilibria(game)
        assert len(results) == 4
        cells = [(r.profile.sigma1.support[0], r.profile.sigma2.support[0]) for r in results]
        assert cells == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(r.payoffs == (F(1, 2), F(1, 2)) for r in results)

    def test_minority_vote_majority_upgrade(self):
        game = vote_game("7/20", "18/25")
        results = enumerate_pure_equilibria(game)
        assert len(results) == 1
        assert results[0].profile.sigma1.probs == (F(0), F(1))
        assert results[0].profile.sigma2.probs == (F(1), F(0))
        assert results[0].payoffs == (F(13, 20), F(18, 25))

    def test_both_majorities_against(self):
        game = vote_game("1/5", "2/5")
        results = enumerate_pure_equilibria(game)
        assert len(results) == 1
        assert results[0].payoffs == (F(4, 5), F(3, 5))
        assert results[0].kind is EquilibriumKind.PURE

    def test_matching_pennies_has_none(self):
        assert enumerate_pure_equilibria(MATCHING_PENNIES) == []

    def test_payoffs_match_oracle_payoffs(self):
        game = PRISONERS_DILEMMA
        for result in enumerate_pure_equilibria(game):
            x, y = result.profile.sigma1.probs, result.profile.sigma2.probs
            assert result.payoffs == payoffs(game.payoff1, game.payoff2, x, y)


class TestEnumerateMixed:
    def test_dominant_vote_game_unique_pure(self):
        game = vote_game("3/5", "7/10")
        results = enumerate_mixed_equilibria(game)
        assert len(results) == 1
        only = results[0]
        assert only.kind is EquilibriumKind.PURE
        assert only.profile.sigma1.probs == (F(1), F(0))
        assert only.profile.sigma2.probs == (F(1), F(0))
        assert only.payoffs == (F(3, 5), F(7, 10))
        assert not only.degenerate_game

    def test_matching_pennies_unique_mixed(self):
        results = enumerate_mixed_equilibria(MATCHING_PENNIES)
        assert len(results) == 1
        only = results[0]
        assert only.kind is EquilibriumKind.MIXED
        assert only.profile.sigma1.probs == (F(1, 2), F(1, 2))
        assert only.profile.sigma2.probs == (F(1, 2), F(1, 2))
        assert only.payoffs == (F(0), F(0))
        assert not only.degenerate_game

    def test_constant_game_reports_vertices_and_flag(self):
        game = vote_game("1/2", "1/2")
        results = enumerate_mixed_equilibria(game)
        pure = [r for r in results if r.kind is EquilibriumKind.PURE]
        assert len(pure) == 4
        assert all(r.degenerate_game for r in results)

    def test_mixed_results_pass_exact_check(self):
        for game in (
            MATCHING_PENNIES,
            PRISONERS_DILEMMA,
            BATTLE_OF_THE_SEXES,
            vote_game("3/5", "7/10"),
        ):
            for result in enumerate_mixed_equilibria(game):
                x, y = result.profile.sigma1.probs, result.profile.sigma2.probs
                assert is_nash(game.payoff1, game.payoff2, x, y)
                assert result.payoffs == payoffs(game.payoff1, game.payoff2, x, y)

    def test_nondegenerate_coordination_game(self):
        # Two pure equilibria plus the interior mix.
        game = BimatrixGame(payoff1=[[F(2), F(0)], [F(0), F(1)]], payoff2=[[F(2), F(0)], [F(0), F(1)]])
        results = enumerate_mixed_equilibria(game)
        assert len(results) == 3
        kinds = [r.kind for r in results]
        assert kinds.count(EquilibriumKind.PURE) == 2
        interior = [r for r in results if r.kind is EquilibriumKind.MIXED][0]
        assert interior.profile.sigma1.probs == (F(1, 3), F(2, 3))
        assert interior.profile.sigma2.probs == (F(1, 3), F(2, 3))
        assert not interior.degenerate_game


class TestPareto:
    def test_upgrade_cell_dominates(self):
        # Two-cell comparison: (3/4, 3/4) against (1/4, 1/4).
        game = BimatrixGame(
            payoff1=[[F(3, 4), F(1, 4)]],
            payoff2=[[F(3, 4), F(1, 4)]],
            col_labels=("B1", "B2"),
        )
        assert pareto_optimal_pure_profiles(game) == [(0, 0)]

    def test_constant_game_nothing_dominated(self):
        assert pareto_optimal_pure_profiles(ALL_ZERO) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_common_interest_game(self):
        game = BimatrixGame(payoff1=[[F(2), F(0)], [F(0), F(1)]], payoff2=[[F(2), F(0)], [F(0), F(1)]])
        assert pareto_optimal_pure_profiles(game) == [(0, 0)]

    def test_prisoners_dilemma_frontier(self):
        # (D, D) is dominated by (C, C); the other three cells survive.
        frontier = pareto_optimal_pure_profiles(PRISONERS_DILEMMA)
        assert (1, 1) not in frontier
        assert (0, 0) in frontier


class TestStrongNash:
    def test_unanimous_vote_game(self):
        game = vote_game(1, 1)
        assert is_strong_nash(game, 0, 0)

    def test_constant_game(self):
        for i in range(2):
            for j in range(2):
                assert is_strong_nash(ALL_ZERO, i, j)

    def test_prisoners_dilemma_defect_is_not(self):
        assert not is_strong_nash(PRISONERS_DILEMMA, 1, 1)

    def test_non_equilibrium_is_not(self):
        assert not is_strong_nash(PRISONERS_DILEMMA, 0, 0)

    def test_out_of_range_profile(self):
        with pytest.raises(ValidationError, match="out of range"):
            is_strong_nash(ALL_ZERO, 0, 5)


class TestStrategyIndex:
    """MixedStrategy.pure, pure_profile and is_strong_nash share one index check."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: MixedStrategy.pure(1.5, 3), "pure strategy index must be an int, got float"),
            (lambda: pure_profile(ALL_ZERO, "0", 0), "pure strategy index must be an int, got str"),
            (lambda: is_strong_nash(ALL_ZERO, 0.5, 0), "row must be an int, got float"),
            (lambda: is_strong_nash(ALL_ZERO, True, 0), "row must be an int, got bool"),
            (lambda: is_strong_nash(ALL_ZERO, 0, False), "col must be an int, got bool"),
            (lambda: MixedStrategy.pure(3, 3), "pure strategy index 3 out of range for size 3"),
            (lambda: pure_profile(ALL_ZERO, 0, -1), "pure strategy index -1 out of range for size 2"),
            (lambda: is_strong_nash(ALL_ZERO, 2, 0), "row 2 out of range for size 2"),
            (lambda: is_strong_nash(ALL_ZERO, 0, 5), "col 5 out of range for size 2"),
        ],
        ids=[
            "pure-float",
            "profile-str",
            "strong-float",
            "strong-bool-row",
            "strong-bool-col",
            "pure-past-end",
            "profile-negative",
            "strong-row-past-end",
            "strong-col-past-end",
        ],
    )
    def test_invalid_index_is_a_validation_error(self, call, message):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message


class TestGameInterchange:
    def test_load_minimal(self):
        game = load_game('{"payoff1": [[1, 2]], "payoff2": [[3, 4]]}')
        assert game.rows == 1
        assert game.cols == 2

    def test_load_parses_decimals_exactly(self):
        game = load_game('{"payoff1": [[0.54]], "payoff2": [[0.1]]}')
        assert game.payoff1[0][0] == F(27, 50)
        assert game.payoff2[0][0] == F(1, 10)

    def test_load_parses_fraction_strings(self):
        game = load_game('{"payoff1": [["7/20"]], "payoff2": [["18/25"]]}')
        assert game.payoff1[0][0] == F(7, 20)

    def test_load_zero_denominator(self):
        with pytest.raises(ValidationError, match=r"payoff1\[0\]\[0\]: denominator must be positive"):
            load_game('{"payoff1": [["1/0"]], "payoff2": [[1]]}')

    def test_load_rejects_declared_shape_mismatch(self):
        text = '{"rows": 3, "payoff1": [[1, 2]], "payoff2": [[1, 2]]}'
        with pytest.raises(ValidationError, match="rows is declared as 3 but the payoff matrices have 1"):
            load_game(text)

    @pytest.mark.parametrize(
        "declared", ['"cols": "2"', '"cols": true', '"rows": true', '"rows": 1.0', '"rows": 1e0']
    )
    def test_load_rejects_declared_shape_that_is_not_an_integer(self, declared):
        text = '{%s, "payoff1": [[1, 2]], "payoff2": [[1, 2]]}' % declared
        field = declared.split('"')[1]
        with pytest.raises(ValidationError, match=f"^{field} must be a positive integer$"):
            load_game(text)

    def test_load_rejects_deep_nesting(self):
        with pytest.raises(ValidationError, match="nesting is too deep"):
            load_game("[" * 200000)

    @pytest.mark.parametrize("literal", ["1" * 5000, "0." + "1" * 5000])
    def test_load_rejects_overlong_number(self, literal):
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_game('{"payoff1": [[%s]], "payoff2": [[1]]}' % literal)

    @pytest.mark.parametrize(
        "extra", ['"row_lables": ["a", "b"]', '"row": 3', '"Cols": 3', '"": 1']
    )
    def test_load_rejects_unknown_field(self, extra):
        text = '{"payoff1": [[1, 1], [1, 1]], "payoff2": [[1, 1], [1, 1]], %s}' % extra
        field = extra.split('"')[1]
        with pytest.raises(ValidationError, match=f"^unknown field '{field}' in game file$"):
            load_game(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "game file must be an object"),
            ('{"payoff2": [[1]]}', "game file is missing 'payoff1'"),
            ('{"payoff1": [[1]]}', "game file is missing 'payoff2'"),
            (
                '{"payoff1": [[1, 2], [3]], "payoff2": [[1, 2], [3, 4]]}',
                "payoff1 row 1 has 1 entries, expected 2",
            ),
            ('{"rows": 0, "payoff1": [[1]], "payoff2": [[1]]}', "rows must be a positive integer"),
            ('{"rows": -1, "payoff1": [[1]], "payoff2": [[1]]}', "rows must be a positive integer"),
            ('{"cols": 0, "payoff1": [[1]], "payoff2": [[1]]}', "cols must be a positive integer"),
            ('{"payoff1": [[NaN]], "payoff2": [[1]]}', "not valid JSON: NaN is not a JSON number"),
            (
                '{"payoff1": [[1]], "payoff2": [[Infinity]]}',
                "not valid JSON: Infinity is not a JSON number",
            ),
            (
                '{"payoff1": [[-Infinity]], "payoff2": [[1]]}',
                "not valid JSON: -Infinity is not a JSON number",
            ),
        ],
    )
    def test_load_errors_exact(self, text, message):
        with pytest.raises(ValidationError) as info:
            load_game(text)
        assert str(info.value) == message

    def test_load_requires_both_matrices(self):
        with pytest.raises(ValidationError):
            load_game('{"payoff1": [[1]]}')


def test_public_names_resolve():
    missing = [name for name in govgame.__all__ if not hasattr(govgame, name)]
    assert missing == []
    namespace: dict = {}
    exec("from govgame import *", namespace)
    assert set(govgame.__all__) <= set(namespace)
