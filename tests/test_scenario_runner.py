"""Tests for the built-in suites, scenario files, and result serialization."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from govgame import cli
from govgame.errors import ValidationError
from govgame.game_core import BimatrixGame, enumerate_mixed_equilibria
from govgame.governance import Chain, ForkRisk, GovernanceParams, Mode, Regime
from govgame.scenario_runner import (
    ASSUMED_GAMMA,
    ETHEREUM_BETA,
    RESULT_CSV_COLUMNS,
    CheckStatus,
    Scenario,
    ScenarioResult,
    builtin_table1_scenarios,
    load_scenarios,
    results_to_csv,
    results_to_json,
    run_ethereum_case_study,
    run_scenario,
    run_table1_suite,
)
from reference_writers import result_dict

F = Fraction

EXPECTED_PAYOFFS = {
    "1": (F(1), F(1)),
    "2": (F(1), F(1)),
    "3": (F(1), F(1)),
    "4": (F(1), F(1)),
    "5": (F(1, 2), F(1, 2)),
    "6": (F(3, 5), F(7, 10)),
    "7": (F(4, 5), F(3, 5)),
    "8": (F(7, 10), F(4, 5)),
    "9": (F(13, 20), F(18, 25)),
}


class TestBuiltinSuite:
    def test_all_nine_match(self):
        results = run_table1_suite()
        assert [r.name for r in results] == [str(i) for i in range(1, 10)]
        assert all(r.status is CheckStatus.MATCH for r in results)

    def test_equilibrium_counts(self):
        counts = [len(r.equilibria) for r in run_table1_suite()]
        assert counts == [1, 1, 1, 1, 4, 1, 1, 1, 1]

    def test_payoffs_exact(self):
        for result in run_table1_suite():
            want = EXPECTED_PAYOFFS[result.name]
            for eq in result.equilibria:
                assert eq.payoffs == want

    def test_simulation_5_vertices_row_major(self):
        five = run_table1_suite()[4]
        cells = [
            (eq.profile.sigma1.support[0], eq.profile.sigma2.support[0])
            for eq in five.equilibria
        ]
        assert cells == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(eq.degenerate_game for eq in five.equilibria)

    def test_only_simulation_5_is_degenerate(self):
        for result in run_table1_suite():
            flagged = any(eq.degenerate_game for eq in result.equilibria)
            assert flagged == (result.name == "5")

    def test_strategy_indicators(self):
        results = run_table1_suite()
        nine = results[8]
        only = nine.equilibria[0]
        assert only.profile.sigma1.probs == (F(0), F(1))
        assert only.profile.sigma2.probs == (F(1), F(0))

    def test_predictions_follow_equilibrium_column(self):
        # In no-governance mode the set of the community's equilibrium
        # columns decides the destination, on Table 1's nine points and
        # on every point beta = b/60, gamma = g/60 (g a multiple of 3).
        grid = [
            run_scenario(
                Scenario(
                    name=f"{b}/{g}",
                    params=GovernanceParams(
                        beta=F(b, 60), gamma=F(g, 60), mode=Mode.NO_GOVERNANCE
                    ),
                )
            )
            for b in range(61)
            for g in range(0, 61, 3)
        ]
        assert len(grid) == 1281
        destination = {
            frozenset({0}): Chain.UPGRADED,
            frozenset({1}): Chain.ORIGINAL,
            frozenset({0, 1}): Chain.SPLIT_50_50,
        }
        for result in run_table1_suite() + grid:
            columns = frozenset(
                j for eq in result.equilibria for j in eq.profile.sigma2.support
            )
            assert result.prediction.majority_chain is destination[columns]

    def test_builtin_scenarios_use_no_governance_mode(self):
        assert all(
            s.params.mode is Mode.NO_GOVERNANCE for s in builtin_table1_scenarios()
        )


class TestRunScenario:
    def test_unanimous_scenario_matches(self):
        scenario = Scenario(
            name="unanimous",
            params=GovernanceParams(beta=F(1), gamma=F(1)),
            expected_equilibria=(("yes", "upgraded", F(1), F(1)),),
        )
        result = run_scenario(scenario)
        assert result.status is CheckStatus.MATCH
        assert len(result.equilibria) == 1

    def test_vote_ignored_scenario(self):
        scenario = Scenario(
            name="ignored-vote",
            params=GovernanceParams(beta=F(0), gamma=F(1)),
            expected_equilibria=(("no", "upgraded", F(1), F(1)),),
        )
        result = run_scenario(scenario)
        assert result.status is CheckStatus.MATCH

    def test_degenerate_scenario_count_match(self):
        rows = (
            ("yes", "upgraded", F(1, 2), F(1, 2)),
            ("yes", "original", F(1, 2), F(1, 2)),
            ("no", "upgraded", F(1, 2), F(1, 2)),
            ("no", "original", F(1, 2), F(1, 2)),
        )
        scenario = Scenario(
            name="level",
            params=GovernanceParams(beta=F(1, 2), gamma=F(1, 2)),
            expected_equilibria=rows,
        )
        result = run_scenario(scenario)
        assert result.status is CheckStatus.MATCH
        assert all(eq.degenerate_game for eq in result.equilibria)

    def test_no_expectation_reports_not_checked(self):
        scenario = Scenario(name="open", params=GovernanceParams(beta=F(1), gamma=F(1)))
        result = run_scenario(scenario)
        assert result.status is CheckStatus.NOT_CHECKED
        assert result.mismatches is None

    def test_count_mismatch_detail(self):
        scenario = Scenario(
            name="short",
            params=GovernanceParams(beta=F(1, 2), gamma=F(1, 2)),
            expected_equilibria=(("yes", "upgraded", F(1, 2), F(1, 2)),),
        )
        result = run_scenario(scenario)
        assert result.status is CheckStatus.MISMATCH
        assert "expected 1 equilibria, computed 4" in result.mismatches

    def test_payoff_mismatch_detail(self):
        scenario = Scenario(
            name="wrong-payoff",
            params=GovernanceParams(beta=F(1), gamma=F(1)),
            expected_equilibria=(("yes", "upgraded", F(1, 2), F(1)),),
        )
        result = run_scenario(scenario)
        assert result.status is CheckStatus.MISMATCH
        assert any("expected payoff_v 1/2, computed 1" in d for d in result.mismatches)

    def test_strategy_and_payoff_c_mismatch_details(self):
        scenario = Scenario(
            name="wrong-profile",
            params=GovernanceParams(beta=F(1), gamma=F(1)),
            expected_equilibria=(("no", "original", F(1), F(1, 2)),),
        )
        assert run_scenario(scenario).mismatches == (
            "equilibrium 1: expected pure row 'no', computed row strategy (1, 0)",
            "equilibrium 1: expected pure col 'original', computed col strategy (1, 0)",
            "equilibrium 1: expected payoff_c 1/2, computed 1",
        )

    def test_majority_chain_mismatch_detail(self):
        scenario = Scenario(
            name="wrong-chain",
            params=GovernanceParams(beta=F(7, 20), gamma=F(18, 25)),
            expected_chain=Chain.UPGRADED,
        )
        result = run_scenario(scenario)
        assert result.status is CheckStatus.MISMATCH
        assert "expected majority_chain upgraded, predicted original" in result.mismatches

    def test_error_carries_scenario_name(self):
        scenario = Scenario(
            name="needs-prime",
            params=GovernanceParams(beta=F(1, 5), gamma=F(2, 5), mode=Mode.ON_CHAIN),
        )
        with pytest.raises(ValidationError, match="scenario 'needs-prime': gamma_prime is required"):
            run_scenario(scenario)


class TestCaseStudy:
    def test_default_run_matches_history(self):
        result = run_ethereum_case_study()
        assert result.params.beta == ETHEREUM_BETA == F(27, 50)
        assert result.params.gamma == ASSUMED_GAMMA == F(7, 10)
        assert result.prediction.regime is Regime.MAJORITY_ACCEPT
        assert result.prediction.majority_chain is Chain.UPGRADED
        assert result.prediction.fork_risk is ForkRisk.PRESENT
        assert result.prediction.surplus.surplus_v == F(2, 25)
        assert result.status is CheckStatus.MATCH

    def test_gamma_is_labeled_as_assumed(self):
        result = run_ethereum_case_study()
        assert any("assumed; no measured value exists" in n for n in result.notes)

    def test_explicit_beta_equals_default(self):
        explicit = run_ethereum_case_study(beta="27/50")
        default = run_ethereum_case_study()
        assert explicit.prediction == default.prediction

    def test_unanimous_override_mismatches_on_risk(self):
        result = run_ethereum_case_study(beta=F(1))
        assert result.prediction.majority_chain is Chain.UPGRADED
        assert result.prediction.fork_risk is ForkRisk.NONE
        assert result.status is CheckStatus.MISMATCH
        assert any("fork_risk" in d for d in result.mismatches)

    def test_other_majority_gamma_same_prediction(self):
        result = run_ethereum_case_study(gamma="3/5")
        assert result.prediction.majority_chain is Chain.UPGRADED
        assert result.prediction.fork_risk is ForkRisk.PRESENT
        assert result.status is CheckStatus.MATCH

    def test_every_gamma_gives_the_default_prediction(self):
        # The assumed gamma does not matter: the off-chain majority accepts
        # and the chain splits for every community share in [0, 1].
        for g in range(101):
            result = run_ethereum_case_study(gamma=F(g, 100))
            assert result.prediction.regime is Regime.MAJORITY_ACCEPT
            assert result.prediction.majority_chain is Chain.UPGRADED
            assert result.prediction.fork_risk is ForkRisk.PRESENT
            assert result.status is CheckStatus.MATCH

    def test_minority_beta_mismatches_on_chain(self):
        result = run_ethereum_case_study(beta="1/5")
        assert result.prediction.majority_chain is Chain.ORIGINAL
        assert result.status is CheckStatus.MISMATCH
        assert any("majority_chain" in d for d in result.mismatches)


class TestLoadScenarios:
    def test_exact_rationals(self):
        text = '{"scenarios": [{"name": "nine", "beta": "7/20", "gamma": "18/25"}]}'
        scenarios = load_scenarios(text)
        assert len(scenarios) == 1
        assert scenarios[0].params.beta == F(7, 20)
        assert scenarios[0].params.gamma == F(18, 25)

    def test_json_decimals_parse_exactly(self):
        text = '{"scenarios": [{"name": "d", "beta": 0.54, "gamma": 0.7}]}'
        params = load_scenarios(text)[0].params
        assert params.beta == F(27, 50)
        assert params.gamma == F(7, 10)

    def test_defaults(self):
        text = '{"scenarios": [{"name": "d", "beta": "1/2", "gamma": "1/2"}]}'
        params = load_scenarios(text)[0].params
        assert params.mode is Mode.OFF_CHAIN
        assert params.k == 1
        assert params.n == 1
        assert params.s_v == F(1)
        assert params.s_c == F(1)

    def test_beta_out_of_range(self):
        text = '{"scenarios": [{"name": "x", "beta": "3/2", "gamma": "1/2"}]}'
        with pytest.raises(ValidationError, match=r"beta out of \[0,1\]"):
            load_scenarios(text)

    def test_k_exceeding_n(self):
        text = '{"scenarios": [{"name": "x", "beta": "1/2", "gamma": "1/2", "k": 10, "n": 5}]}'
        with pytest.raises(ValidationError, match="k must not exceed n"):
            load_scenarios(text)

    def test_deep_nesting_rejected(self):
        with pytest.raises(ValidationError, match="nesting is too deep"):
            load_scenarios("[" * 200000)

    def test_unknown_field_rejected(self):
        text = '{"scenarios": [{"name": "x", "beta": "1/2", "gamma": "1/2", "betta": 1}]}'
        with pytest.raises(ValidationError, match="unknown field 'betta'"):
            load_scenarios(text)

    def test_unknown_expected_field_rejected(self):
        text = (
            '{"scenarios": [{"name": "x", "beta": "1", "gamma": "1",'
            ' "expected": {"equilibriums": []}}]}'
        )
        with pytest.raises(ValidationError, match="unknown field"):
            load_scenarios(text)

    def test_default_name_is_position(self):
        text = (
            '{"scenarios": [{"beta": "1", "gamma": "1"}, {"name": "b", "beta": "1", "gamma": "1"},'
            ' {"beta": "1", "gamma": "1"}]}'
        )
        assert [s.name for s in load_scenarios(text)] == ["scenario-1", "b", "scenario-3"]

    @pytest.mark.parametrize(
        "scenario, message",
        [
            ('[]', "scenario 1 must be an object"),
            ('{"name": "", "beta": "1", "gamma": "1"}', "scenario 1: name must be a non-empty string"),
            ('{"name": 7, "beta": "1", "gamma": "1"}', "scenario 1: name must be a non-empty string"),
            (
                '{"name": "\\ud800", "beta": "1", "gamma": "1"}',
                "scenario 1: name holds the lone surrogate U+D800, which UTF-8 cannot encode",
            ),
            ('{"beta": "1", "gamma": "1", "betta": 1}', "unknown field 'betta' in scenario 1"),
            ('{"name": "x", "gamma": "1"}', "scenario 1 is missing 'beta'"),
            (
                '{"beta": "1", "gamma": "1", "expected": []}',
                "scenario 'scenario-1': expected must be an object",
            ),
            (
                '{"name": "x", "beta": "1", "gamma": "1", "expected": {"equilibriums": []}}',
                "scenario 'x': unknown field 'equilibriums' in expected",
            ),
            (
                '{"name": "x", "beta": "1", "gamma": "1", "expected": {"equilibria": [1]}}',
                "scenario 'x': expected equilibrium 1 must be an object",
            ),
            (
                '{"name": "x", "beta": "1", "gamma": "1", "expected": {"equilibria":'
                ' [{"row": "yes", "col": "upgraded", "payoff_v": "1", "payoff_c": "1",'
                ' "payoff": "1"}]}}',
                "scenario 'x': unknown field 'payoff' in expected equilibrium 1",
            ),
            (
                '{"name": "x", "beta": "1", "gamma": "1", "expected": {"equilibria":'
                ' [{"row": "yes", "col": "upgraded"}]}}',
                "scenario 'x': expected equilibrium 1 is missing 'payoff_c'",
            ),
            (
                '{"name": "x", "beta": "1", "gamma": "1", "expected": {}}',
                "scenario 'x': expected must give equilibria or majority_chain",
            ),
            (
                '{"name": "x", "beta": "1", "gamma": "1", "expected": {"equilibria":'
                ' [{"row": "yes", "col": "upgraded", "payoff_v": "1", "payoff_c": "1"},'
                ' {"row": "yes", "col": "upgraded", "payoff_v": "abc", "payoff_c": "1"}]}}',
                "scenario 'x': expected equilibrium 2: payoff_v: cannot parse 'abc' as a rational",
            ),
            (
                '{"name": "x", "beta": "1", "gamma": "1", "expected": {"equilibria":'
                ' [{"row": "yes", "col": "upgraded", "payoff_v": "1", "payoff_c": "1"},'
                ' {"row": "yes", "col": "sideways", "payoff_v": "1", "payoff_c": "1"}]}}',
                "scenario 'x': expected equilibrium 2: col must be 'upgraded' or 'original'",
            ),
            ('{"name": "x", "beta": NaN, "gamma": "1"}', "not valid JSON: NaN is not a JSON number"),
            (
                '{"name": "x", "beta": "1", "gamma": Infinity}',
                "not valid JSON: Infinity is not a JSON number",
            ),
            (
                '{"name": "x", "beta": "1", "gamma": "1", "k": -Infinity}',
                "not valid JSON: -Infinity is not a JSON number",
            ),
        ],
    )
    def test_field_errors_exact(self, scenario, message):
        with pytest.raises(ValidationError) as info:
            load_scenarios('{"scenarios": [%s]}' % scenario)
        assert str(info.value) == message

    def test_scenarios_must_be_an_array(self):
        with pytest.raises(ValidationError) as info:
            load_scenarios('{"scenarios": {"name": "x"}}')
        assert str(info.value) == '"scenarios" must be an array'

    def test_top_level_shape(self):
        for text, message in [
            ("[]", "scenario file must be an object"),
            ("{}", "scenario file is missing 'scenarios'"),
            ('{"scenario": []}', "unknown field 'scenario' in scenario file"),
            ('{"scenarios": [], "x": 1}', "unknown field 'x' in scenario file"),
        ]:
            with pytest.raises(ValidationError) as info:
                load_scenarios(text)
            assert str(info.value) == message

    def test_missing_required_field(self):
        with pytest.raises(ValidationError, match="beta"):
            load_scenarios('{"scenarios": [{"name": "x", "gamma": "1/2"}]}')

    def test_error_names_scenario(self):
        text = '{"scenarios": [{"name": "bad-one", "beta": "3/2", "gamma": "1/2"}]}'
        with pytest.raises(ValidationError, match="scenario 'bad-one'"):
            load_scenarios(text)

    def test_k_must_be_json_integer(self):
        text = '{"scenarios": [{"name": "x", "beta": "1/2", "gamma": "1/2", "k": "3", "n": 5}]}'
        with pytest.raises(ValidationError, match="k must be a positive integer"):
            load_scenarios(text)

    def test_expected_row_token_validated(self):
        text = (
            '{"scenarios": [{"name": "x", "beta": "1", "gamma": "1",'
            ' "expected": {"equilibria": [{"row": "maybe", "col": "upgraded",'
            ' "payoff_v": "1", "payoff_c": "1"}]}}]}'
        )
        with pytest.raises(ValidationError) as info:
            load_scenarios(text)
        assert str(info.value) == "scenario 'x': expected equilibrium 1: row must be 'yes' or 'no'"


class TestScenarioExpectation:
    """Scenario validates its own expectation, whether built in code or read from a file."""

    def test_file_expectation_is_parsed_exactly(self):
        text = (
            '{"scenarios": [{"name": "x", "beta": "1", "gamma": "1", "expected":'
            ' {"equilibria": [{"row": "yes", "col": "upgraded", "payoff_v": 1.0,'
            ' "payoff_c": "2/2"}], "majority_chain": "upgraded"}}]}'
        )
        (scenario,) = load_scenarios(text)
        assert scenario.expected_equilibria == (("yes", "upgraded", F(1), F(1)),)
        assert scenario.expected_chain is Chain.UPGRADED

    def test_library_values_are_normalised(self):
        scenario = Scenario(
            "x", GovernanceParams(beta=F(1), gamma=F(1)), [["yes", "upgraded", "1", 1]]
        )
        assert scenario.expected_equilibria == (("yes", "upgraded", F(1), F(1)),)
        assert run_scenario(scenario).status is CheckStatus.MATCH

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (
                {"expected_chain": "upgraded"},
                "expected_chain must be a Chain value or None",
            ),
            ({"expected_equilibria": 5}, "expected_equilibria must be a tuple or list"),
            (
                {"expected_equilibria": (("yes", "upgraded", 1),)},
                "expected equilibrium 1 must be a (row, col, payoff_v, payoff_c) tuple",
            ),
            (
                {"expected_equilibria": (("maybe", "upgraded", 1, 1),)},
                "expected equilibrium 1: row must be 'yes' or 'no'",
            ),
            (
                {"expected_equilibria": (("yes", "upgraded", 1, 1), ("yes", "upgraded", 1, 0.5))},
                "expected equilibrium 2: payoff_c must be given as text or an integer;"
                " binary floats are inexact",
            ),
            (
                {"expected_equilibria": (("yes", "upgraded", "1/0", 1),)},
                "expected equilibrium 1: payoff_v: denominator must be positive",
            ),
            (
                {"expected_equilibria": (("yes", "upgraded", 1, True),)},
                "expected equilibrium 1: payoff_c must be a number or 'p/q' string, got a boolean",
            ),
            (
                {"expected_equilibria": (("no", "original", "1e5000", 1),)},
                "expected equilibrium 1: payoff_v: exponent in '1e5000' exceeds 4300",
            ),
            ({"params": None}, "params must be a GovernanceParams"),
            ({"name": 123}, "name must be a non-empty string"),
            ({"name": None}, "name must be a non-empty string"),
            ({"name": ""}, "name must be a non-empty string"),
            (
                {"name": "a\ud800"},
                "name holds the lone surrogate U+D800, which UTF-8 cannot encode",
            ),
        ],
        ids=[
            "str-chain",
            "non-sequence",
            "three-tuple",
            "bad-token",
            "float-payoff",
            "zero-denominator-payoff",
            "bool-payoff",
            "huge-exponent-payoff",
            "no-params",
            "int-name",
            "none-name",
            "empty-name",
            "surrogate-name",
        ],
    )
    def test_library_expectation_errors(self, kwargs, message):
        with pytest.raises(ValidationError) as info:
            Scenario(**{"name": "x", "params": GovernanceParams(beta=F(1), gamma=F(1)), **kwargs})
        assert str(info.value) == message


class TestSerialization:
    def test_csv_columns(self):
        assert RESULT_CSV_COLUMNS == (
            "simulation",
            "beta",
            "gamma",
            "equilibrium_index",
            "yes",
            "no",
            "upgraded",
            "original",
            "v_payoff",
            "c_payoff",
        )

    def test_table1_csv_has_12_equilibrium_rows(self):
        lines = results_to_csv(run_table1_suite()).splitlines()
        assert lines[0] == ",".join(RESULT_CSV_COLUMNS)
        assert len(lines) == 13

    def test_csv_rows_exact(self):
        lines = results_to_csv(run_table1_suite()).splitlines()
        assert lines[1] == "1,1,1,1,1,0,1,0,1,1"
        assert lines[5] == "5,1/2,1/2,1,1,0,1,0,1/2,1/2"
        assert lines[8] == "5,1/2,1/2,4,0,1,0,1,1/2,1/2"
        assert lines[12] == "9,7/20,18/25,1,0,1,1,0,13/20,18/25"

    def test_json_is_list_of_nine(self):
        data = json.loads(results_to_json(run_table1_suite()))
        assert isinstance(data, list)
        assert len(data) == 9
        assert [d["name"] for d in data] == [str(i) for i in range(1, 10)]

    def test_json_rationals_are_strings(self):
        data = json.loads(results_to_json(run_table1_suite()))
        six = data[5]
        assert six["params"]["beta"] == "3/5"
        assert six["equilibria"][0]["payoff_v"] == "3/5"
        assert six["prediction"]["surplus"]["total"] == "3/5"

    def test_result_dict_keys(self):
        # The whole layout is checked against tests/reference_writers.py below.
        result = run_table1_suite()[0]
        data = json.loads(results_to_json([result]))[0]
        assert set(data) == {
            "name",
            "params",
            "equilibria",
            "prediction",
            "expectation_check",
            "notes",
        }

    def test_byte_determinism(self):
        a = run_table1_suite()
        b = run_table1_suite()
        assert results_to_json(a) == results_to_json(b)
        assert results_to_csv(a) == results_to_csv(b)


@given(
    st.fractions(min_value=F(0), max_value=F(1), max_denominator=20).filter(
        lambda b: b != F(1, 2)
    ),
    st.fractions(min_value=F(0), max_value=F(1), max_denominator=20).filter(
        lambda g: g != F(1, 2)
    ),
)
def test_independent_majority_note_iff_disagreement(beta, gamma):
    scenario = Scenario(
        name="prop", params=GovernanceParams(beta=beta, gamma=gamma)
    )
    result = run_scenario(scenario)
    note = "community majority decided independently of the voter majority"
    disagrees = (beta > F(1, 2)) != (gamma > F(1, 2))
    assert (note in result.prediction.notes) == disagrees


# Quotes, backslashes, control characters and non-ASCII text drawn often;
# names may not hold lone surrogates.
NAMES = st.text(
    st.characters(exclude_categories=["Cs"])
    | st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001f600'),
    min_size=1,
    max_size=8,
)
SHARES = st.fractions(min_value=0, max_value=1, max_denominator=12)
UNITS = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)
EXPECTED_EQUILIBRIA = st.lists(
    st.tuples(
        st.sampled_from(["yes", "no"]), st.sampled_from(["upgraded", "original"]), SHARES, SHARES
    ),
    max_size=4,
)


@st.composite
def scenario_results(draw):
    """A run scenario with any mode, optional gamma_prime and an expectation that may mismatch."""
    n = draw(st.integers(1, 5))
    params = GovernanceParams(
        draw(SHARES),
        draw(SHARES),
        draw(st.none() | SHARES),
        draw(st.integers(1, n)),
        n,
        draw(UNITS),
        draw(UNITS),
        draw(st.sampled_from(Mode)),
    )
    scenario = Scenario(
        draw(NAMES),
        params,
        draw(st.none() | EXPECTED_EQUILIBRIA),
        draw(st.none() | st.sampled_from(Chain)),
    )
    try:
        return run_scenario(scenario)
    except ValidationError:
        # An on-chain rejection without gamma_prime has no prediction.
        assume(False)


FOUR_EQUILIBRIA_TIE = run_scenario(
    Scenario("tie \"4\"", GovernanceParams("1/2", "1/2", mode=Mode.NO_GOVERNANCE))
)


def _reference_json(results) -> str:
    return json.dumps([result_dict(r) for r in results], indent=2)


@given(st.lists(scenario_results(), max_size=3))
@example([])
@example([FOUR_EQUILIBRIA_TIE])
def test_results_json_equals_the_reference_layout(results):
    assert results_to_json(results) == _reference_json(results)


@pytest.mark.parametrize(
    "run",
    [
        run_table1_suite,
        lambda: [run_ethereum_case_study()],
        lambda: [run_ethereum_case_study(beta="1/5")],
        lambda: [run_ethereum_case_study(beta="1", gamma="3/5")],
    ],
    ids=["table1", "casestudy", "casestudy-minority", "casestudy-unanimous"],
)
def test_suite_json_equals_the_reference_layout(run):
    results = run()
    assert results_to_json(results) == _reference_json(results)


def test_results_json_refuses_a_value_too_long_to_print():
    result = run_scenario(Scenario("long", GovernanceParams("1/2", "1/3", s_v=10**4300)))
    with pytest.raises(ValidationError, match="more than 4300 digits"):
        results_to_json([result])


@pytest.mark.parametrize(
    "fields",
    [
        {"gamma_prime": F(1, 10**4300), "mode": Mode.ON_CHAIN},
        # Counts are written bare; the small units keep every payoff printable.
        {"k": 10**4300, "n": 10**4300, "s_v": F(1, 10**10), "s_c": F(1, 10**10)},
    ],
    ids=["gamma_prime", "count"],
)
def test_results_json_refuses_any_param_too_long_to_print(fields):
    result = run_scenario(Scenario("long", GovernanceParams("3/5", "1/3", **fields)))
    with pytest.raises(ValidationError, match="more than 4300 digits"):
        results_to_json([result])


@pytest.mark.parametrize(
    "payoffs",
    # 1x3 has four strategy entries in all, as many as a 2x2 game has.
    # 2x3 and 3x2 have one strategy of the right size and one of the wrong.
    [
        [[1, 0, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0]],
        [[1, 0], [0, 1], [0, 0]],
    ],
    ids=["1x3", "3x3", "2x3", "3x2"],
)
def test_results_json_refuses_an_equilibrium_not_of_a_2x2_game(payoffs):
    # So do the CSV writer and the run/table1 table, rather than write a wrong row.
    result = run_scenario(Scenario("square", GovernanceParams("3/5", "1/3")))
    equilibria = tuple(enumerate_mixed_equilibria(BimatrixGame(payoffs, payoffs)))
    foreign = ScenarioResult(result.name, result.params, equilibria, result.prediction, None)
    for write in (results_to_json, results_to_csv, cli._result_table):
        with pytest.raises(ValidationError, match="not of a 2x2 game"):
            write([foreign])
