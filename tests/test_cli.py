"""Tests for the command-line interface and its exit-code contract."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from govgame import ValidationError, cli
from govgame.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from govgame.game_core import (
    enumerate_mixed_equilibria,
    enumerate_pure_equilibria,
    load_game,
)
from govgame.governance import GovernanceParams, Mode, predict_outcome
from govgame.scenario_runner import (
    ScenarioResult,
    builtin_table1_scenarios,
    csv_text,
    run_table1_suite,
)
from reference_writers import prediction_csv_rows, prediction_dict, solve_dict

SIM6_GAME = json.dumps(
    {
        "rows": 2,
        "cols": 2,
        "row_labels": ["Yes", "No"],
        "col_labels": ["Upgraded", "Original"],
        "payoff1": [["3/5", "3/5"], ["2/5", "2/5"]],
        "payoff2": [["7/10", "3/10"], ["7/10", "3/10"]],
    }
)

ALL_ZERO_GAME = json.dumps({"payoff1": [[0, 0], [0, 0]], "payoff2": [[0, 0], [0, 0]]})

MATCHING_PENNIES = json.dumps({"payoff1": [[1, -1], [-1, 1]], "payoff2": [[-1, 1], [1, -1]]})


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(SIM6_GAME)
    return str(path)


class TestSolve:
    def test_table_output(self, game_file, capsys):
        assert main(["solve", game_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Yes" in out and "Upgraded" in out
        assert "3/5 (0.600000)" in out
        assert "7/10 (0.700000)" in out

    def test_json_output(self, game_file, capsys):
        assert main(["solve", game_file, "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["degenerate_game"] is False
        assert len(data["equilibria"]) == 1
        assert data["equilibria"][0]["payoff1"] == "3/5"
        assert data["equilibria"][0]["row_strategy"] == ["1", "0"]

    def test_csv_output(self, game_file, capsys):
        assert main(["solve", game_file, "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "equilibrium_index,kind,Yes,No,Upgraded,Original,payoff1,payoff2"
        assert lines[1] == "1,pure,1,0,1,0,3/5,7/10"

    def test_csv_quotes_labels_with_commas(self, tmp_path, capsys):
        path = tmp_path / "comma.json"
        path.write_text(json.dumps({**json.loads(SIM6_GAME), "row_labels": ["a,b", "c"]}))
        assert main(["solve", str(path), "--format", "csv"]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][2:4] == ["a,b", "c"]
        assert [len(row) for row in rows] == [8, 8]

    @pytest.mark.parametrize("declared", [{"cols": "2"}, {"rows": True}, {"rows": 1.0}])
    def test_declared_shape_that_is_not_an_integer(self, tmp_path, capsys, declared):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({**declared, "payoff1": [[1, 2]], "payoff2": [[1, 2]]}))
        assert main(["solve", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        field = next(iter(declared))
        assert captured.err == f"error: {path}: {field} must be a positive integer\n"
        assert captured.out == ""

    @pytest.mark.parametrize("field", ["row_lables", "row"])
    def test_unknown_field_is_an_error(self, tmp_path, capsys, field):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({**json.loads(ALL_ZERO_GAME), field: 3}))
        assert main(["solve", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: unknown field {field!r} in game file\n"
        assert captured.out == ""

    def test_deeply_nested_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000)
        assert main(["solve", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nesting is too deep" in err
        assert "Traceback" not in err

    def test_pure_only_constant_game(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(ALL_ZERO_GAME)
        assert main(["solve", str(path), "--pure-only"]) == EXIT_OK
        out = capsys.readouterr().out
        data_lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(data_lines) == 4
        assert all("pure" in line for line in data_lines)

    @pytest.mark.parametrize(
        "fmt, expected", [("table", "no equilibria\n"), ("json", '"equilibria": []')]
    )
    def test_pure_only_without_pure_equilibrium(self, tmp_path, capsys, fmt, expected):
        path = tmp_path / "pennies.json"
        path.write_text(MATCHING_PENNIES)
        assert main(["solve", str(path), "--pure-only", "--format", fmt]) == EXIT_OK
        out = capsys.readouterr().out
        if fmt == "table":
            assert out == expected
        else:
            assert expected in out
            assert json.loads(out)["equilibria"] == []

    def test_pure_only_leaves_degeneracy_unknown(self, tmp_path, capsys):
        # The all-zero game is degenerate, but the pure enumeration never checks it.
        path = tmp_path / "zero.json"
        path.write_text(ALL_ZERO_GAME)
        assert main(["solve", str(path), "--pure-only", "--format", "json"]) == EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)["degenerate_game"] is None
        assert captured.err == ""

    def test_degenerate_warning_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(ALL_ZERO_GAME)
        assert main(["solve", str(path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "warning: degenerate game" in captured.err
        assert "warning" not in captured.out

    def test_quiet_silences_warning(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(ALL_ZERO_GAME)
        assert main(["solve", str(path), "--quiet"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_malformed_payoff(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"payoff1": [["1/0"]], "payoff2": [[1]]}')
        assert main(["solve", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(path) in err
        assert "denominator must be positive" in err

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["solve", missing]) == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_payoff_beyond_float_range_prints_its_exact_decimal(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"payoff1": [[1e400, 0], [0, 1]], "payoff2": [[1, 0], [0, 1]]}')
        assert main(["solve", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"{10**400} ({10**400}.000000)" in out
        assert "1 (1.000000)" in out

    def test_payoff_too_long_to_print(self, tmp_path, capsys):
        # 1e4300 passes the exponent bound, but its 4301 digits cannot be printed.
        path = tmp_path / "long.json"
        path.write_text('{"payoff1": [["1e4300", 0], [0, 1]], "payoff2": [[1, 0], [0, 1]]}')
        assert main(["solve", str(path), "--format", "json"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "4300 digits" in err
        assert "Traceback" not in err

    def test_huge_exponent_is_rejected_before_expansion(self, tmp_path, capsys):
        path = tmp_path / "exponent.json"
        path.write_text('{"payoff1": [[1e999999999, 0], [0, 1]], "payoff2": [[1, 0], [0, 1]]}')
        assert main(["solve", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "exceeds 4300" in err


class TestPredict:
    def test_case_parameters(self, capsys):
        code = main(["predict", "--mode", "off_chain", "--beta", "27/50", "--gamma", "7/10"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "MajorityAccept / Upgraded / Present"
        assert "surplus_v = 2/25 (0.080000)" in out

    def test_unanimity_any_mode(self, capsys):
        for mode in ("none", "off_chain", "on_chain"):
            code = main(["predict", "--mode", mode, "--beta", "1", "--gamma", "1"])
            assert code == EXIT_OK
            assert "UnanimousAccept / Upgraded / None" in capsys.readouterr().out

    def test_on_chain_reject(self, capsys):
        code = main(
            [
                "predict",
                "--mode",
                "on_chain",
                "--beta",
                "2/5",
                "--gamma",
                "2/5",
                "--gamma-prime",
                "4/5",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "MajorityReject / Upgraded / Reduced" in out
        assert "total     = 2/5 (0.400000)" in out

    def test_on_chain_reject_needs_gamma_prime(self, capsys):
        code = main(["predict", "--mode", "on_chain", "--beta", "2/5", "--gamma", "2/5"])
        assert code == EXIT_USAGE
        assert "gamma_prime is required" in capsys.readouterr().err

    def test_beta_required_with_governance(self, capsys):
        assert main(["predict", "--gamma", "7/10"]) == EXIT_USAGE
        assert "beta is required unless mode is 'none'" in capsys.readouterr().err

    def test_beta_optional_without_governance(self, capsys):
        assert main(["predict", "--mode", "none", "--gamma", "7/10"]) == EXIT_OK
        assert "High" in capsys.readouterr().out

    def test_beta_out_of_range(self, capsys):
        assert main(["predict", "--beta", "3/2", "--gamma", "1/2"]) == EXIT_USAGE
        assert "beta out of [0,1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--sv", "abc", "s_v: cannot parse 'abc' as a rational"),
            ("--sc", "1/0", "s_c: denominator must be positive"),
            ("--sv", "0", "s_v must be positive"),
            ("--sv", "0/3", "s_v must be positive"),
            ("--sc", "-1/2", "s_c must be positive"),
        ],
    )
    def test_unit_errors_name_the_parameter(self, capsys, flag, value, message):
        assert main(["predict", "--beta", "1/2", "--gamma", "1/2", f"{flag}={value}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_tie_without_flag(self, capsys):
        assert main(["predict", "--beta", "1/2", "--gamma", "7/10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Tie / Split5050 / Present" in out
        assert "note: tie vote: no majority side" in out

    def test_tie_break_accept(self, capsys):
        code = main(["predict", "--beta", "1/2", "--gamma", "7/10", "--tie-break", "accept"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "Tie / Upgraded / Present" in out
        assert "note: tie broken toward accept by caller flag" in out

    def test_decimal_input_is_exact(self, capsys):
        assert main(["predict", "--beta", "0.54", "--gamma", "0.7", "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["surplus"]["surplus_v"] == "2/25"

    def test_csv_format(self, capsys):
        code = main(["predict", "--beta", "27/50", "--gamma", "7/10", "--format", "csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("regime,majority_chain,fork_risk")
        assert lines[1] == "majority_accept,upgraded,present,27/50,23/50,7/10,3/10,2/25,2/5,12/25"

    def test_unit_beyond_float_range_prints_its_exact_decimal(self, capsys):
        code = main(["predict", "--beta", "3/5", "--gamma", "7/10", "--sv", "1e400"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert f"  s_yes     = {6 * 10**399} ({6 * 10**399}.000000)" in out
        assert "  s_u       = 7/10 (0.700000)" in out

    def test_unit_too_long_to_print(self, capsys):
        code = main(["predict", "--beta", "3/5", "--gamma", "7/10", "--sv", "1e4300"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "4300 digits" in err

    def test_gamma_prime_warning_off_chain(self, capsys):
        code = main(["predict", "--beta", "3/5", "--gamma", "7/10", "--gamma-prime", "4/5"])
        assert code == EXIT_OK
        assert "only used in on_chain mode" in capsys.readouterr().err


class TestTable1:
    def test_verify_passes(self, capsys):
        assert main(["table1", "--verify"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "all 9 simulations match their published values" in captured.err

    def test_verify_exits_2_on_a_mismatch(self, monkeypatch, capsys):
        def one_wrong_simulation():
            first, *rest = run_table1_suite()
            wrong = ScenarioResult(
                first.name,
                first.params,
                first.equilibria,
                first.prediction,
                ("expected payoff_v 2, computed 1",),
            )
            return [wrong, *rest]

        monkeypatch.setattr(cli, "run_table1_suite", one_wrong_simulation)
        assert main(["table1", "--verify"]) == EXIT_MISMATCH
        captured = capsys.readouterr()
        assert captured.err == "mismatch in '1': expected payoff_v 2, computed 1\n"
        assert captured.out.splitlines()[1].endswith(" mismatch")

    def test_csv_has_13_lines(self, capsys):
        assert main(["table1", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 13
        assert lines[0] == (
            "simulation,beta,gamma,equilibrium_index,yes,no,upgraded,original,"
            "v_payoff,c_payoff"
        )

    def test_json_has_nine_results(self, capsys):
        assert main(["table1", "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 9
        assert all(d["expectation_check"]["status"] == "match" for d in data)

    def test_output_is_byte_stable(self, capsys):
        main(["table1", "--format", "json"])
        first = capsys.readouterr().out
        main(["table1", "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_stdout_is_pure_csv(self, capsys):
        main(["table1", "--format", "csv", "--verify"])
        captured = capsys.readouterr()
        for line in captured.out.splitlines():
            assert line.count(",") == 9


class TestCasestudy:
    def test_default_matches(self, capsys):
        assert main(["casestudy"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "MajorityAccept / Upgraded / Present" in out
        assert "gamma = 7/10 (0.700000) [assumed; no measured value exists]" in out
        assert "historical comparison: match" in out

    def test_explicit_beta_same(self, capsys):
        assert main(["casestudy", "--beta", "27/50"]) == EXIT_OK
        assert "MajorityAccept / Upgraded / Present" in capsys.readouterr().out

    def test_gamma_override_drops_assumed_label(self, capsys):
        assert main(["casestudy", "--gamma", "3/5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gamma = 3/5 (0.600000)" in out
        assert "assumed" not in out.split("note:")[0]

    def test_minority_beta_mismatch(self, capsys):
        assert main(["casestudy", "--beta", "1/5"]) == EXIT_MISMATCH
        err = capsys.readouterr().err
        assert "mismatch in 'ethereum-dao-fork'" in err
        assert "majority_chain" in err

    def test_unanimous_beta_mismatch_on_risk(self, capsys):
        assert main(["casestudy", "--beta", "1"]) == EXIT_MISMATCH
        assert "fork_risk" in capsys.readouterr().err


class TestRun:
    def test_builtin_reproduction_file(self, tmp_path, capsys):
        path = tmp_path / "table1.json"
        scenarios = [
            {
                "name": scenario.name,
                "mode": scenario.params.mode.value,
                "beta": str(scenario.params.beta),
                "gamma": str(scenario.params.gamma),
                "expected": {
                    "equilibria": [
                        {"row": row, "col": col, "payoff_v": str(pv), "payoff_c": str(pc)}
                        for row, col, pv, pc in scenario.expected_equilibria
                    ]
                },
            }
            for scenario in builtin_table1_scenarios()
        ]
        path.write_text(json.dumps({"scenarios": scenarios}))
        assert main(["run", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("match") >= 9

    def test_not_checked_scenario(self, tmp_path, capsys):
        path = tmp_path / "open.json"
        path.write_text('{"scenarios": [{"name": "open", "beta": "3/5", "gamma": "7/10"}]}')
        assert main(["run", str(path)]) == EXIT_OK
        assert "not_checked" in capsys.readouterr().out

    def test_empty_expectation_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"scenarios": [{"name": "x", "beta": "1", "gamma": "1", "expected": {}}]}')
        assert main(["run", str(path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: scenario 'x': expected must give equilibria or majority_chain\n"

    def test_null_expectation_is_not_checked(self, tmp_path, capsys):
        path = tmp_path / "null.json"
        path.write_text('{"scenarios": [{"name": "x", "beta": "1", "gamma": "1", "expected": null}]}')
        assert main(["run", str(path), "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)[0]["expectation_check"] == {
            "status": "not_checked",
            "details": [],
        }

    def test_huge_exponent_is_rejected_before_expansion(self, tmp_path, capsys):
        path = tmp_path / "exponent.json"
        path.write_text(
            '{"scenarios": [{"name": "e", "beta": "3/5", "gamma": "7/10", "s_v": "1e999999999"}]}'
        )
        assert main(["run", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "exceeds 4300" in err

    def test_wrong_expectation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "wrong.json"
        path.write_text(
            json.dumps(
                {
                    "scenarios": [
                        {
                            "name": "one",
                            "beta": "1",
                            "gamma": "1",
                            "expected": {
                                "equilibria": [
                                    {
                                        "row": "yes",
                                        "col": "upgraded",
                                        "payoff_v": "1/2",
                                        "payoff_c": "1",
                                    }
                                ]
                            },
                        }
                    ]
                }
            )
        )
        assert main(["run", str(path)]) == EXIT_MISMATCH
        assert "mismatch in 'one'" in capsys.readouterr().err

    def test_every_mismatch_line_on_stderr(self, tmp_path, capsys):
        wrong = {"row": "no", "col": "upgraded", "payoff_v": "1/2", "payoff_c": "1"}
        scenarios = [
            {"name": name, "beta": "1", "gamma": "1", "expected": {"equilibria": [wrong]}}
            for name in ("a", "b")
        ]
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"scenarios": scenarios}))
        assert main(["run", str(path)]) == EXIT_MISMATCH
        lines = [
            "equilibrium 1: expected pure row 'no', computed row strategy (1, 0)",
            "equilibrium 1: expected payoff_v 1/2, computed 1",
        ]
        assert capsys.readouterr().err == "".join(
            f"mismatch in {name!r}: {line}\n" for name in ("a", "b") for line in lines
        )

    def test_schema_violation_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"scenarios": [{"name": "x", "beta": "1/2", "gamma": "1/2", "extra": 1}]}')
        assert main(["run", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(path) in err
        assert "unknown field 'extra'" in err

    @pytest.mark.parametrize("quiet", [False, True])
    def test_gamma_prime_warning_off_chain(self, tmp_path, capsys, quiet):
        path = tmp_path / "prime.json"
        path.write_text(
            '{"scenarios": [{"name": "w", "beta": "3/5", "gamma": "7/10", "gamma_prime": "4/5"}]}'
        )
        assert main(["run", str(path), *(["--quiet"] if quiet else [])]) == EXIT_OK
        warning = "warning: scenario 'w': gamma_prime is only used in on_chain mode\n"
        assert capsys.readouterr().err == ("" if quiet else warning)

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text('{"scenarios": [{"name": "a", "beta": "3/5", "gamma": "7/10"}]}')
        assert main(["run", str(path), "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data[0]["name"] == "a"
        assert data[0]["expectation_check"]["status"] == "not_checked"


class TestMalformedInput:
    @pytest.mark.parametrize("command", ["solve", "run"])
    def test_non_utf8_file(self, tmp_path, capsys, command):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe")
        assert main([command, str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {path}: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "fields",
        [{"mode": []}, {"mode": {}}, {"expected": {"majority_chain": {}}}],
    )
    def test_non_string_token(self, tmp_path, capsys, fields):
        path = tmp_path / "tokens.json"
        path.write_text(json.dumps({"scenarios": [{"beta": "1/2", "gamma": "1/2", **fields}]}))
        assert main(["run", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be one of" in err

    # JSON can spell a lone surrogate, which UTF-8 cannot encode, so the
    # table and CSV writers could not print it.
    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize(
        ("command", "document", "field"),
        [
            (
                "solve",
                {
                    "payoff1": [[1, 0], [0, 1]],
                    "payoff2": [[1, 0], [0, 1]],
                    "row_labels": ["\ud800", "b"],
                },
                "row_labels",
            ),
            ("run", {"scenarios": [{"name": "\ud800x", "beta": "1/2", "gamma": "1/2"}]}, "name"),
        ],
        ids=["solve", "run"],
    )
    def test_lone_surrogate_in_text(self, tmp_path, capsys, fmt, command, document, field):
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(document))
        assert main([command, str(path), "--format", fmt]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"{field} holds the lone surrogate U+D800" in captured.err


class TestNoPartialOutput:
    """A command that fails while formatting writes nothing to stdout."""

    # Each value passes parsing but has more than 4300 digits to print.
    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_predict(self, capsys, fmt):
        argv = ["predict", "--beta", "3/5", "--gamma", "7/10", "--sv", "1e4300"]
        self._assert_error_only(capsys, main([*argv, "--format", fmt]))

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_casestudy(self, capsys, fmt):
        self._assert_error_only(capsys, main(["casestudy", "--beta", "1e-4300", "--format", fmt]))

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_solve(self, tmp_path, capsys, fmt):
        path = tmp_path / "long.json"
        path.write_text('{"payoff1": [["1e4300", 0], [0, 1]], "payoff2": [[1, 0], [0, 1]]}')
        self._assert_error_only(capsys, main(["solve", str(path), "--format", fmt]))

    @staticmethod
    def _assert_error_only(capsys, code):
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "4300 digits" in captured.err


class TestExitContract:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert main(["nonsense"]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert main(["table1", "--bogus"]) == EXIT_USAGE

    def test_bad_format_value(self, capsys):
        assert main(["--format", "xml", "table1"]) == EXIT_USAGE

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK

    def test_format_flag_accepted_on_both_sides(self, capsys):
        assert main(["--format", "csv", "table1"]) == EXIT_OK
        before = capsys.readouterr().out
        assert main(["table1", "--format", "csv"]) == EXIT_OK
        after = capsys.readouterr().out
        assert before == after


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "govgame.cli"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == EXIT_USAGE


def test_module_invocation_table1():
    result = subprocess.run(
        [sys.executable, "-m", "govgame.cli", "table1", "--verify"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "all 9 simulations match" in result.stderr


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every govgame command imports govgame.cli in a new process, so it must not pay for these."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; before = set(sys.modules); import govgame.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


SHARES = st.fractions(min_value=0, max_value=1, max_denominator=12)
UNITS = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)


@given(
    st.sampled_from(Mode),
    SHARES,
    SHARES,
    st.none() | SHARES,
    st.integers(1, 5),
    st.integers(0, 4),
    UNITS,
    UNITS,
    st.sampled_from([None, "accept", "reject"]),
)
def test_predict_json_and_csv_equal_the_reference_layout(
    mode, beta, gamma, gamma_prime, k, extra, s_v, s_c, tie_break
):
    """`predict --format json/csv` against tests/reference_writers.py."""
    n = k + extra
    try:
        prediction = predict_outcome(
            GovernanceParams(beta, gamma, gamma_prime, k, n, s_v, s_c, mode), tie_break
        )
    except ValidationError:
        # An on-chain rejection without gamma_prime has no prediction.
        assume(False)
    argv = ["predict", "--mode", mode.value, "--beta", str(beta), "--gamma", str(gamma)]
    argv += ["--k", str(k), "--n", str(n), "--sv", str(s_v), "--sc", str(s_c), "--quiet"]
    if gamma_prime is not None:
        argv += ["--gamma-prime", str(gamma_prime)]
    if tie_break is not None:
        argv += ["--tie-break", tie_break]
    for fmt, want in (
        ("json", json.dumps(prediction_dict(prediction), indent=2) + "\n"),
        ("csv", csv_text(prediction_csv_rows(prediction))),
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--format", fmt]) == EXIT_OK
        assert out.getvalue() == want


# Labels with quotes, backslashes, control characters, non-ASCII text and
# empty strings; lone surrogates are refused when the game is read.
LABEL = st.text(
    st.characters(exclude_categories=["Cs"])
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n"]),
    max_size=4,
)
PAYOFF = st.integers(-2, 2) | st.fractions(-5, 5, max_denominator=4).map(str)


@st.composite
def games(draw) -> dict:
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    matrix = st.lists(st.lists(PAYOFF, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    return {
        "row_labels": draw(st.lists(LABEL, min_size=rows, max_size=rows)),
        "col_labels": draw(st.lists(LABEL, min_size=cols, max_size=cols)),
        "payoff1": draw(matrix),
        "payoff2": draw(matrix),
    }


@given(games())
@example({"payoff1": [[0] * 3] * 3, "payoff2": [[0] * 3] * 3})  # degenerate_game: true
@example(  # a 1x1 game
    {"row_labels": ['a "b"'], "col_labels": ["\u00e9\U0001f600"], "payoff1": [[1]], "payoff2": [[-3]]}
)
@example(json.loads(MATCHING_PENNIES))  # no pure equilibrium: "equilibria": []
def test_solve_json_equals_the_reference_layout(tmp_path_factory, document):
    """`solve --format json`, with and without --pure-only, against tests/reference_writers.py."""
    path = tmp_path_factory.mktemp("solve") / "game.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    game = load_game(path.read_text(encoding="utf-8"))
    mixed = enumerate_mixed_equilibria(game)
    for extra, equilibria, degenerate in (
        ([], mixed, any(eq.degenerate_game for eq in mixed)),
        (["--pure-only"], enumerate_pure_equilibria(game), None),
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["solve", str(path), "--format", "json", "--quiet", *extra]) == EXIT_OK
        want = solve_dict(game, equilibria, degenerate)
        assert out.getvalue() == json.dumps(want, indent=2) + "\n"
