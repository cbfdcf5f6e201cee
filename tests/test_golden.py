"""Byte-for-byte checks of CLI standard output against golden files.

Each case runs `govgame.cli.main` in process and compares its standard
output and exit code with `tests/golden/<case>.out` and the exit code
recorded in `tests/golden/exit_codes.json`. The cases in STDERR_CASES,
the ones that report expectation checks, also compare their standard
error with `tests/golden/stderr/<case>.err`. The golden files are a
reference, not a description of the code under test: regenerate them
only from a commit whose output is known to be right, with

    PYTHONPATH=<that checkout>/src python tests/test_golden.py --write

The same cases check a command line, such as an installed console
script, with

    python tests/test_golden.py --check govgame

which runs every case as a new process of the given command, compares
its standard output, exit code and, for STDERR_CASES, standard error
with the golden files, names each case that differs and exits 1 if any
does.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import govgame
from govgame.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
STDERR = GOLDEN / "stderr"
FORMATS = ("table", "json", "csv")

# case stem -> argv; "inputs/<file>" names a file under tests/golden.
_COMMANDS = {
    "table1": ["table1"],
    "table1_verify": ["table1", "--verify"],
    "casestudy": ["casestudy"],
    "casestudy_beta_1_5": ["casestudy", "--beta", "1/5"],
    "casestudy_beta_1": ["casestudy", "--beta", "1"],
    "casestudy_gamma_3_5": ["casestudy", "--gamma", "3/5"],
    "predict_off_chain_accept": ["predict", "--beta", "27/50", "--gamma", "7/10"],
    "predict_on_chain_reject": [
        "predict", "--mode", "on_chain", "--beta", "2/5", "--gamma", "2/5",
        "--gamma-prime", "4/5", "--k", "3", "--n", "10", "--sv", "2", "--sc", "1/2",
    ],
    "predict_on_chain_reject_original": [
        "predict", "--mode", "on_chain", "--beta", "1/5", "--gamma", "1/5",
        "--gamma-prime", "3/10",
    ],
    "predict_on_chain_reject_zero_total": [
        "predict", "--mode", "on_chain", "--beta", "1/4", "--gamma", "1/4",
        "--gamma-prime", "3/4",
    ],
    "predict_none_without_beta": ["predict", "--mode", "none", "--gamma", "3/10"],
    "predict_tie": ["predict", "--beta", "1/2", "--gamma", "7/10"],
    "predict_tie_on_chain": ["predict", "--mode", "on_chain", "--beta", "1/2", "--gamma", "7/10"],
    "predict_tie_break_reject": [
        "predict", "--beta", "1/2", "--gamma", "7/10", "--tie-break", "reject",
    ],
    "predict_beta_1_above_gamma": ["predict", "--beta", "1", "--gamma", "3/5"],
    "predict_unanimity": ["predict", "--mode", "on_chain", "--beta", "1", "--gamma", "1"],
    "predict_missing_gamma_prime": [
        "predict", "--mode", "on_chain", "--beta", "2/5", "--gamma", "2/5",
    ],
    "predict_bad_beta": ["predict", "--beta", "x", "--gamma", "1/2"],
    "solve_sim6": ["solve", "inputs/sim6.json"],
    "solve_sim6_pure": ["solve", "inputs/sim6.json", "--pure-only"],
    # The vote game at beta = 3/5, gamma = 1/2: one row against two tied columns.
    "solve_vote_gamma_1_2": ["solve", "inputs/vote_gamma_1_2.json"],
    "solve_vote_gamma_1_2_pure": ["solve", "inputs/vote_gamma_1_2.json", "--pure-only"],
    "solve_all_zero": ["solve", "inputs/all_zero.json"],
    "solve_all_zero_pure": ["solve", "inputs/all_zero.json", "--pure-only"],
    "solve_identity_vs_ones": ["solve", "inputs/identity_vs_ones.json"],
    "solve_identity_vs_ones_pure": ["solve", "inputs/identity_vs_ones.json", "--pure-only"],
    "solve_nondegenerate_3x3": ["solve", "inputs/nondegenerate_3x3.json"],
    "solve_nondegenerate_3x3_pure": ["solve", "inputs/nondegenerate_3x3.json", "--pure-only"],
    # Nothing is eliminated from either game, so both are walked whole; the
    # 4x4 game's vertices carry more labels than their dimension.
    "solve_generic_6x6": ["solve", "inputs/generic_6x6.json"],
    "solve_identity_vs_ones_4x4": ["solve", "inputs/identity_vs_ones_4x4.json"],
    "run_scenarios": ["run", "inputs/scenarios.json"],
}

CASES = {
    f"{stem}.{fmt}": argv + ["--format", fmt]
    for stem, argv in _COMMANDS.items()
    for fmt in FORMATS
}

STDERR_CASES = sorted(
    f"{stem}.{fmt}"
    for stem in ("run_scenarios", "casestudy_beta_1_5", "casestudy_beta_1", "table1_verify")
    for fmt in FORMATS
)


def _resolved(argv: list[str]) -> list[str]:
    return [str(GOLDEN / a) if a.startswith("inputs/") else a for a in argv]


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in process; return its exit code, standard output and error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_resolved(argv))
    return code, out.getvalue(), err.getvalue()


def check(command: list[str], cases: list[str]) -> list[str]:
    """Run each case as a process of command; return the cases that differ from the golden files."""
    codes = json.loads(_read(GOLDEN / "exit_codes.json"))
    differ = []
    for case in cases:
        run = subprocess.run(command + _resolved(CASES[case]), capture_output=True)
        same = (
            run.returncode == codes[case]
            and run.stdout.decode("utf-8") == _read(GOLDEN / f"{case}.out")
            and (
                case not in STDERR_CASES
                or run.stderr.decode("utf-8") == _read(STDERR / f"{case}.err")
            )
        )
        if not same:
            differ.append(case)
    return differ


def _read(path: Path) -> str:
    with open(path, encoding="utf-8", newline="") as handle:
        return handle.read()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    code, out, _ = run_case(CASES[case])
    expected_codes = json.loads(_read(GOLDEN / "exit_codes.json"))
    assert code == expected_codes[case]
    assert out == _read(GOLDEN / f"{case}.out")


@pytest.mark.parametrize("case", STDERR_CASES)
def test_golden_stderr(case):
    _, _, err = run_case(CASES[case])
    assert err == _read(STDERR / f"{case}.err")


def test_every_golden_file_has_a_case():
    stems = {path.name[: -len(".out")] for path in GOLDEN.glob("*.out")}
    assert stems == set(CASES)
    assert {path.name[: -len(".err")] for path in STDERR.glob("*.err")} == set(STDERR_CASES)


def test_check_mode_runs_cases_as_processes_of_a_command(monkeypatch):
    # The subprocesses import the govgame under test.
    monkeypatch.setenv("PYTHONPATH", str(Path(govgame.__file__).parents[1]))
    # A failing run with stderr, a table and a walked solve.
    cases = ["casestudy_beta_1_5.table", "table1.csv", "solve_identity_vs_ones_4x4.json"]
    assert check([sys.executable, "-m", "govgame.cli"], cases) == []
    assert check([sys.executable, "-c", "print('x')"], cases) == cases


def _write() -> None:
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], out, err = run_case(argv)
        with open(GOLDEN / f"{case}.out", "w", encoding="utf-8", newline="") as handle:
            handle.write(out)
        if case in STDERR_CASES:
            with open(STDERR / f"{case}.err", "w", encoding="utf-8", newline="") as handle:
                handle.write(err)
    with open(GOLDEN / "exit_codes.json", "w", encoding="utf-8") as handle:
        handle.write(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        _write()
    elif sys.argv[1:2] == ["--check"] and sys.argv[2:]:
        failed = check(sys.argv[2:], sorted(CASES))
        for case in failed:
            print(f"differs: {case}")
        print(f"{len(CASES) - len(failed)} of {len(CASES)} cases match")
        sys.exit(1 if failed else 0)
    else:
        sys.exit("usage: python tests/test_golden.py --write | --check COMMAND...")
