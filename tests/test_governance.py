"""Tests for governance parameters, surplus arithmetic, and prediction."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from govgame import ValidationError
from govgame.game_core import enumerate_pure_equilibria
from govgame.governance import (
    Chain,
    ForkRisk,
    GovernanceParams,
    Mode,
    Regime,
    build_governance_game,
    predict_outcome,
)
from govgame.scenario_runner import _prediction_json
from reference_writers import prediction_dict

F = Fraction


def params(beta, gamma, **kwargs) -> GovernanceParams:
    return GovernanceParams(beta=beta, gamma=gamma, **kwargs)


class TestGovernanceParams:
    def test_accepts_exact_strings(self):
        p = params("27/50", "0.7")
        assert p.beta == F(27, 50)
        assert p.gamma == F(7, 10)
        # The ends of [0, 1], in lowest terms and not.
        for share in ("0", "1", "0/7", "7/7"):
            p = params(share, share, gamma_prime=share, mode=Mode.ON_CHAIN)
            assert p.beta == p.gamma == p.gamma_prime == F(share)

    def test_beta_out_of_range(self):
        with pytest.raises(ValidationError, match=r"beta out of \[0,1\]"):
            params("3/2", "1/2")
        for beta in ("8/7", "-1/7"):
            with pytest.raises(ValidationError, match=r"beta out of \[0,1\]"):
                params(beta, "1/2")

    def test_gamma_out_of_range(self):
        with pytest.raises(ValidationError, match=r"gamma out of \[0,1\]"):
            params("1/2", "-1/10")
        for gamma in ("8/7", "-1/7"):
            with pytest.raises(ValidationError, match=r"gamma out of \[0,1\]"):
                params("1/2", gamma)

    def test_gamma_prime_out_of_range(self):
        with pytest.raises(ValidationError, match=r"gamma_prime out of \[0,1\]"):
            params("1/2", "1/2", gamma_prime="2", mode=Mode.ON_CHAIN)
        for gamma_prime in ("8/7", "-1/7"):
            with pytest.raises(ValidationError, match=r"gamma_prime out of \[0,1\]"):
                params("1/2", "1/2", gamma_prime=gamma_prime, mode=Mode.ON_CHAIN)

    def test_k_must_be_positive_integer(self):
        with pytest.raises(ValidationError, match="k must be a positive integer"):
            params("1/2", "1/2", k=0)
        with pytest.raises(ValidationError, match="k must be a positive integer"):
            params("1/2", "1/2", k=True)

    def test_voters_are_community_members(self):
        with pytest.raises(ValidationError, match="k must not exceed n"):
            params("1/2", "1/2", k=10, n=5)

    def test_scale_units_positive(self):
        with pytest.raises(ValidationError, match="s_v must be positive"):
            params("1/2", "1/2", s_v=0)
        with pytest.raises(ValidationError, match="s_v must be positive"):
            params("1/2", "1/2", s_v="0/3")
        with pytest.raises(ValidationError, match="s_c must be positive"):
            params("1/2", "1/2", s_c="-1")

    def test_mode_type_checked(self):
        with pytest.raises(ValidationError, match="mode must be a Mode value"):
            params("1/2", "1/2", mode="off_chain")

    def test_gamma_prime_outside_on_chain_warns(self):
        p = params("3/5", "7/10", gamma_prime="4/5", mode=Mode.OFF_CHAIN)
        assert "gamma_prime is only used in on_chain mode" in p.warnings

    def test_gamma_prime_not_above_gamma_warns(self):
        p = params("3/5", "7/10", gamma_prime="3/5", mode=Mode.ON_CHAIN)
        assert any("does not exceed gamma" in w for w in p.warnings)
        # Equal to gamma, in other terms.
        p = params("3/5", "1/2", gamma_prime="2/4", mode=Mode.ON_CHAIN)
        assert any("does not exceed gamma" in w for w in p.warnings)

    def test_well_formed_on_chain_has_no_warnings(self):
        p = params("3/5", "7/10", gamma_prime="4/5", mode=Mode.ON_CHAIN)
        assert p.warnings == ()


class TestForkRiskOrdering:
    def test_ordinal_scale(self):
        assert ForkRisk.NONE < ForkRisk.REDUCED < ForkRisk.PRESENT < ForkRisk.HIGH

    def test_comparisons(self):
        assert ForkRisk.HIGH > ForkRisk.NONE
        assert ForkRisk.REDUCED <= ForkRisk.REDUCED
        assert ForkRisk.PRESENT >= ForkRisk.REDUCED

    def test_order_is_strict_on_every_member(self):
        # Each member equals itself, so < and > are false and <= and >= true.
        for risk in ForkRisk:
            assert not risk < risk and not risk > risk
            assert risk <= risk and risk >= risk

    def test_rank_values(self):
        # Sorting puts the members back in declaration order, NONE up to HIGH.
        assert sorted(reversed(list(ForkRisk))) == list(ForkRisk)

    def test_comparison_with_another_type_raises(self):
        with pytest.raises(TypeError):
            ForkRisk.NONE < 1


class TestBuildGovernanceGame:
    def test_unanimous_cells(self):
        game = build_governance_game(params(1, 1))
        assert game.payoff1 == ((F(1), F(1)), (F(0), F(0)))
        assert game.payoff2 == ((F(1), F(0)), (F(1), F(0)))
        assert game.row_labels == ("Yes", "No")
        assert game.col_labels == ("Upgraded", "Original")

    def test_half_half_is_constant(self):
        game = build_governance_game(params("1/2", "1/2"))
        assert all(v == F(1, 2) for row in game.payoff1 for v in row)
        assert all(v == F(1, 2) for row in game.payoff2 for v in row)

    def test_majority_game_unique_equilibrium(self):
        game = build_governance_game(params("3/5", "7/10"))
        results = enumerate_pure_equilibria(game)
        assert len(results) == 1
        assert results[0].payoffs == (F(3, 5), F(7, 10))
        assert results[0].profile.sigma1.support == (0,)
        assert results[0].profile.sigma2.support == (0,)

    def test_scales_multiply_through(self):
        game = build_governance_game(params("3/5", "7/10", s_v=F(10), s_c=F(100)))
        assert game.payoff1[0][0] == F(6)
        assert game.payoff2[0][0] == F(70)

    def test_out_of_range_rejected(self):
        # GovernanceParams is the one validator on the way to the game.
        with pytest.raises(ValidationError, match=r"beta out of \[0,1\]"):
            params(F(2), F(1))
        with pytest.raises(ValidationError, match="s_v must be positive"):
            params(F(1, 2), F(1, 2), s_v=F(0))


def masses(prediction) -> tuple[F, F]:
    """Voter and community payoff masses carried by a prediction's surplus."""
    surplus = prediction.surplus
    return (surplus.s_yes + surplus.s_no, surplus.s_u + surplus.s_o)


class TestCumulativePayoffs:
    """The group masses k*s_v and n*s_c, as the surplus report splits them."""

    def test_identity_scale(self):
        assert masses(predict_outcome(params("3/5", "7/10"))) == (F(1), F(1))

    def test_multiplies(self):
        p = params("3/5", "7/10", k=10, n=100, s_v=F(2), s_c=F(3))
        assert masses(predict_outcome(p)) == (F(20), F(300))

    def test_fractional_units(self):
        p = params("3/5", "7/10", k=5, n=5, s_v=F(1, 5), s_c=F(1, 5))
        assert masses(predict_outcome(p)) == (F(1), F(1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            params("3/5", "7/10", k=0)
        with pytest.raises(ValidationError):
            params("3/5", "7/10", s_v=F(0))


class TestNoGovernanceSplit:
    """Community masses (s_u, s_o) = (gamma, 1 - gamma) * n*s_c without governance."""

    @staticmethod
    def split(gamma, n, s_c) -> tuple[F, F]:
        p = params("1/5", gamma, n=n, s_c=s_c, mode=Mode.NO_GOVERNANCE)
        surplus = predict_outcome(p).surplus
        return (surplus.s_u, surplus.s_o)

    def test_whole_community_upgrades(self):
        assert self.split(F(1), 100, F(1)) == (F(100), F(0))

    def test_seventy_thirty(self):
        assert self.split(F(7, 10), 100, F(1)) == (F(70), F(30))

    def test_even_split(self):
        assert self.split(F(1, 2), 2, F(1)) == (F(1), F(1))

    def test_mass_conserved(self):
        s_u, s_o = self.split(F(18, 25), 7, F(3))
        assert s_u + s_o == 21

    def test_gamma_out_of_range(self):
        with pytest.raises(ValidationError, match=r"gamma out of \[0,1\]"):
            self.split(F(3, 2), 1, F(1))


class TestClassifyRegime:
    def test_unanimous(self):
        assert predict_outcome(params(1, 1)).regime is Regime.UNANIMOUS_ACCEPT

    def test_majority_accept(self):
        assert predict_outcome(params("27/50", "7/10")).regime is Regime.MAJORITY_ACCEPT

    def test_tie(self):
        assert predict_outcome(params("1/2", "7/10")).regime is Regime.TIE

    def test_majority_reject(self):
        assert predict_outcome(params("1/5", "2/5")).regime is Regime.MAJORITY_REJECT

    def test_unanimous_vote_with_partial_community(self):
        assert predict_outcome(params(1, "7/10")).regime is Regime.MAJORITY_ACCEPT


def surplus_v(p: GovernanceParams) -> F:
    return predict_outcome(p).surplus.surplus_v


def surplus_c(p: GovernanceParams) -> F:
    return predict_outcome(p).surplus.surplus_c


class TestVoterSurplus:
    def test_unanimity_full_mass(self):
        assert surplus_v(params(1, 1)) == F(1)

    def test_case_study_beta(self):
        assert surplus_v(params("27/50", "7/10")) == F(2, 25)

    def test_tie_is_zero(self):
        assert surplus_v(params("1/2", "7/10")) == F(0)

    def test_off_chain_reject_positive_orientation(self):
        assert surplus_v(params("1/5", "2/5")) == F(3, 5)

    def test_on_chain_reject_signed(self):
        p = params("2/5", "2/5", gamma_prime="4/5", mode=Mode.ON_CHAIN)
        assert surplus_v(p) == F(-1, 5)

    def test_on_chain_reject_without_gamma_prime(self):
        # Without gamma_prime the prediction is refused; with any
        # gamma_prime the voter side keeps the signed (2*beta - 1)*k*s_v.
        p = params("1/5", "2/5", mode=Mode.ON_CHAIN, k=3, n=10, s_v=F(2))
        with pytest.raises(ValidationError, match="gamma_prime is required"):
            predict_outcome(p)
        for gamma_prime in ("0", "3/10", "1"):
            p = params(
                "1/5", "2/5", gamma_prime=gamma_prime, mode=Mode.ON_CHAIN, k=3, n=10, s_v=F(2)
            )
            assert surplus_v(p) == (2 * F(1, 5) - 1) * 3 * 2 == F(-18, 5)

    def test_scales_with_k_and_unit(self):
        assert surplus_v(params("27/50", "7/10", k=10, n=10, s_v=F(5))) == F(4)


class TestCommunitySurplus:
    def test_unanimity_full_mass(self):
        assert surplus_c(params(1, 1)) == F(1)

    def test_majority_accept(self):
        assert surplus_c(params("27/50", "7/10")) == F(2, 5)

    def test_on_chain_reject_uses_gamma_prime(self):
        p = params("2/5", "2/5", gamma_prime="4/5", mode=Mode.ON_CHAIN)
        assert surplus_c(p) == F(3, 5)

    def test_off_chain_reject_orientation(self):
        assert surplus_c(params("1/5", "2/5")) == F(1, 5)

    def test_on_chain_reject_requires_gamma_prime(self):
        p = params("2/5", "2/5", mode=Mode.ON_CHAIN)
        with pytest.raises(ValidationError, match="gamma_prime is required in on_chain mode"):
            surplus_c(p)

    def test_tie_uses_accept_orientation(self):
        assert surplus_c(params("1/2", "7/10")) == F(2, 5)


class TestTotalSurplus:
    def test_majority_accept(self):
        assert predict_outcome(params("3/5", "7/10")).surplus.total == F(3, 5)

    def test_off_chain_reject(self):
        assert predict_outcome(params("1/5", "2/5")).surplus.total == F(4, 5)

    def test_on_chain_reject(self):
        p = params("2/5", "2/5", gamma_prime="4/5", mode=Mode.ON_CHAIN)
        assert predict_outcome(p).surplus.total == F(2, 5)


class TestPredictOutcome:
    def test_case_study_parameters(self):
        result = predict_outcome(params("27/50", "7/10"))
        assert result.regime is Regime.MAJORITY_ACCEPT
        assert result.majority_chain is Chain.UPGRADED
        assert result.fork_risk is ForkRisk.PRESENT
        assert result.surplus.surplus_v == F(2, 25)

    def test_unanimity_any_mode(self):
        for mode in Mode:
            result = predict_outcome(params(1, 1, mode=mode))
            assert result.regime is Regime.UNANIMOUS_ACCEPT
            assert result.majority_chain is Chain.UPGRADED
            assert result.fork_risk is ForkRisk.NONE

    def test_on_chain_reject_positive_total(self):
        p = params("2/5", "2/5", gamma_prime="4/5", mode=Mode.ON_CHAIN)
        result = predict_outcome(p)
        assert result.regime is Regime.MAJORITY_REJECT
        assert result.majority_chain is Chain.UPGRADED
        assert result.fork_risk is ForkRisk.REDUCED
        assert result.surplus.total == F(2, 5)

    def test_on_chain_reject_negative_total(self):
        p = params("2/5", "2/5", gamma_prime="11/20", mode=Mode.ON_CHAIN)
        result = predict_outcome(p)
        assert result.surplus.total == F(-1, 10)
        assert result.majority_chain is Chain.ORIGINAL

    def test_on_chain_reject_total_of_plus_or_minus_one(self):
        # The chain follows the total's sign, not its size: +1 and -1 do not split.
        for gamma_prime, total, chain in (("1", 1, Chain.UPGRADED), ("1/2", -1, Chain.ORIGINAL)):
            p = params(0, "1/2", gamma_prime=gamma_prime, s_c=F(2), mode=Mode.ON_CHAIN)
            result = predict_outcome(p)
            assert result.surplus.total == total
            assert result.majority_chain is chain

    def test_on_chain_reject_zero_total_splits(self):
        p = params("2/5", "2/5", gamma_prime="3/5", mode=Mode.ON_CHAIN)
        result = predict_outcome(p)
        assert result.surplus.total == F(0)
        assert result.majority_chain is Chain.SPLIT_50_50
        assert "total surplus is exactly zero: the community splits evenly" in result.notes

    def test_off_chain_reject(self):
        result = predict_outcome(params("1/5", "2/5"))
        assert result.regime is Regime.MAJORITY_REJECT
        assert result.majority_chain is Chain.ORIGINAL
        assert result.fork_risk is ForkRisk.PRESENT

    def test_on_chain_accept_reduces_risk(self):
        result = predict_outcome(params("3/5", "7/10", mode=Mode.ON_CHAIN))
        assert result.fork_risk is ForkRisk.REDUCED
        assert result.majority_chain is Chain.UPGRADED

    def test_no_governance_follows_community(self):
        up = predict_outcome(params("1/5", "18/25", mode=Mode.NO_GOVERNANCE))
        assert up.majority_chain is Chain.UPGRADED
        assert up.fork_risk is ForkRisk.HIGH
        down = predict_outcome(params("4/5", "2/5", mode=Mode.NO_GOVERNANCE))
        assert down.majority_chain is Chain.ORIGINAL
        level = predict_outcome(params("4/5", "1/2", mode=Mode.NO_GOVERNANCE))
        assert level.majority_chain is Chain.SPLIT_50_50

    def test_no_governance_split_masses(self):
        result = predict_outcome(params("1/5", "7/10", mode=Mode.NO_GOVERNANCE, n=100))
        assert result.surplus.s_u == F(70)
        assert result.surplus.s_o == F(30)

    def test_tie_without_flag(self):
        result = predict_outcome(params("1/2", "7/10"))
        assert result.regime is Regime.TIE
        assert result.majority_chain is Chain.SPLIT_50_50
        assert result.fork_risk is ForkRisk.PRESENT
        assert any("tie vote: no majority side" in n for n in result.notes)

    def test_tie_on_chain_risk(self):
        result = predict_outcome(params("1/2", "7/10", mode=Mode.ON_CHAIN))
        assert result.fork_risk is ForkRisk.REDUCED

    def test_tie_break_accept(self):
        result = predict_outcome(params("1/2", "7/10"), tie_break="accept")
        assert result.regime is Regime.TIE
        assert result.majority_chain is Chain.UPGRADED
        assert "tie broken toward accept by caller flag" in result.notes

    def test_tie_break_reject(self):
        result = predict_outcome(params("1/2", "7/10"), tie_break="reject")
        assert result.majority_chain is Chain.ORIGINAL

    def test_tie_break_validated(self):
        with pytest.raises(ValidationError, match="tie_break must be 'accept' or 'reject'"):
            predict_outcome(params("1/2", "1/2"), tie_break="coin")

    def test_tie_break_ignored_when_not_tied(self):
        result = predict_outcome(params("3/5", "7/10"), tie_break="reject")
        assert result.majority_chain is Chain.UPGRADED
        assert "tie_break ignored: the vote is not tied" in result.notes

    def test_tie_break_noop_without_governance(self):
        result = predict_outcome(params("1/2", "7/10", mode=Mode.NO_GOVERNANCE), tie_break="accept")
        assert result.fork_risk is ForkRisk.HIGH
        assert "tie_break has no effect without governance" in result.notes

    def test_unanimous_vote_partial_community_note(self):
        result = predict_outcome(params(1, "7/10"))
        assert result.regime is Regime.MAJORITY_ACCEPT
        assert any("part of the community stays behind" in n for n in result.notes)

    def test_independent_majorities_note(self):
        result = predict_outcome(params("7/10", "1/5"))
        assert "community majority decided independently of the voter majority" in result.notes
        aligned = predict_outcome(params("7/10", "4/5"))
        assert "community majority decided independently of the voter majority" not in aligned.notes


INDEPENDENT = "community majority decided independently of the voter majority"
IGNORED = "tie_break ignored: the vote is not tied"
BEHIND = "unanimous yes vote, but part of the community stays behind (gamma < 1)"
ZERO_TOTAL = "total surplus is exactly zero: the community splits evenly"


@pytest.mark.parametrize(
    "mode, tie_break, beta, gamma, gamma_prime, expected",
    [
        ("none", "accept", "0", "3/4", None,
         ("MAJORITY_REJECT", "UPGRADED", "HIGH",
          (INDEPENDENT, "tie_break has no effect without governance"))),
        ("off_chain", None, "1", "0", None,
         ("MAJORITY_ACCEPT", "UPGRADED", "PRESENT", (INDEPENDENT, BEHIND))),
        ("off_chain", "accept", "0", "3/4", None,
         ("MAJORITY_REJECT", "ORIGINAL", "PRESENT", (INDEPENDENT, IGNORED))),
        ("off_chain", "accept", "1", "0", None,
         ("MAJORITY_ACCEPT", "UPGRADED", "PRESENT", (INDEPENDENT, IGNORED, BEHIND))),
        ("off_chain", "accept", "1", "1/2", None,
         ("MAJORITY_ACCEPT", "UPGRADED", "PRESENT", (IGNORED, BEHIND))),
        ("on_chain", None, "1", "0", None,
         ("MAJORITY_ACCEPT", "UPGRADED", "REDUCED", (INDEPENDENT, BEHIND))),
        ("on_chain", "accept", "0", "3/4", "1/4",
         ("MAJORITY_REJECT", "ORIGINAL", "REDUCED", (INDEPENDENT, IGNORED))),
        ("on_chain", "accept", "1", "0", None,
         ("MAJORITY_ACCEPT", "UPGRADED", "REDUCED", (INDEPENDENT, IGNORED, BEHIND))),
        ("on_chain", "accept", "1", "1/2", None,
         ("MAJORITY_ACCEPT", "UPGRADED", "REDUCED", (IGNORED, BEHIND))),
        ("on_chain", None, "1/4", "3/4", "4/5",
         ("MAJORITY_REJECT", "SPLIT_50_50", "REDUCED", (INDEPENDENT, ZERO_TOTAL))),
        ("on_chain", "accept", "1/4", "3/4", "4/5",
         ("MAJORITY_REJECT", "SPLIT_50_50", "REDUCED", (INDEPENDENT, IGNORED, ZERO_TOTAL))),
        ("on_chain", "reject", "1/2", "1/2", "1/2",
         ("TIE", "SPLIT_50_50", "REDUCED", ("tie broken toward reject by caller flag", ZERO_TOTAL))),
    ],
)
def test_notes_keep_their_order(mode, tie_break, beta, gamma, gamma_prime, expected):
    """The exact notes, in order, of every kind of input that draws two or more.

    The first nine give one input per distinct (notes, mode) pair that draws two or
    more notes on the grid of three modes, tie_break None/accept/reject, beta and
    gamma in {0, 1/4, 1/2, 3/4, 1} and gamma_prime in {None, 1/4, 3/4}; the last
    three add the exactly-zero total of an on-chain rejection after the other notes.
    """
    p = params(beta, gamma, gamma_prime=gamma_prime, k=3, n=10, s_v=2, s_c="1/2", mode=Mode(mode))
    result = predict_outcome(p, tie_break=tie_break)
    regime, chain, risk, notes = expected
    assert result.regime is Regime[regime]
    assert result.majority_chain is Chain[chain]
    assert result.fork_risk is ForkRisk[risk]
    assert result.notes == notes


class TestPredictionToDict:
    """The prediction's JSON, checked against the reference layout in tests/reference_writers.py."""

    def test_exact_strings(self):
        prediction = predict_outcome(params("27/50", "7/10"))
        text = _prediction_json(prediction)
        assert text == json.dumps(prediction_dict(prediction), indent=2)
        data = json.loads(text)
        assert data["regime"] == "majority_accept"
        assert data["majority_chain"] == "upgraded"
        assert data["fork_risk"] == "present"
        assert data["surplus"]["surplus_v"] == "2/25"
        assert data["surplus"]["total"] == "12/25"

    def test_refuses_a_value_too_long_to_print(self):
        # s_yes = (3/5) * 10**4301 has 4301 digits; the parameters themselves are not written.
        prediction = predict_outcome(params("3/5", "7/10", s_v=10**4301))
        with pytest.raises(ValidationError, match="more than 4300 digits"):
            _prediction_json(prediction)
