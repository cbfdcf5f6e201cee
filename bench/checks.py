"""Compare govgame's outputs with the oracles' answers.

Each check returns a list of problems, empty when the output is right.
Values are compared as Fractions, so only what the output says counts,
not how the program spells it.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import oracles
from inputs import GameCase, ScenarioCase

F = Fraction
PURE = ((F(1), F(0)), (F(0), F(1)))
RESULT_CSV_FIELDS = 10


def _fractions(values) -> tuple[Fraction, ...]:
    return tuple(F(v) for v in values)


def _prediction_problems(where: str, got: dict, want: dict) -> list[str]:
    problems = [
        f"{where}: {key} is {got.get(key)!r}, oracle says {want[key]!r}"
        for key in ("regime", "majority_chain", "fork_risk")
        if got.get(key) != want[key]
    ]
    surplus = got.get("surplus", {})
    for key, value in want["surplus"].items():
        if key not in surplus or F(surplus[key]) != value:
            problems.append(f"{where}: surplus {key} is {surplus.get(key)!r}, oracle says {value}")
    return problems


def prediction_json(text: str, want: dict) -> list[str]:
    """`govgame predict --format json` output against oracles.predict."""
    return _prediction_problems("predict", json.loads(text), want)


def results_json(text: str, cases: list[ScenarioCase]) -> dict[str, list[str]]:
    """results_to_json text against the oracles, problems keyed by scenario name."""
    results = json.loads(text)
    if len(results) != len(cases):
        return {"*": [f"{len(results)} results for {len(cases)} scenarios"]}
    out: dict[str, list[str]] = {}
    for got, case in zip(results, cases):
        entry = case.entry
        name = entry["name"]
        problems = []
        if got["name"] != name:
            problems.append(f"result named {got['name']!r}")
        params = got["params"]
        for key in ("mode", "k", "n"):
            if params.get(key) != entry[key]:
                problems.append(f"params.{key} is {params.get(key)!r}")
        for key in ("beta", "gamma", "gamma_prime", "s_v", "s_c"):
            if (key in params) != (key in entry) or (key in entry and F(params[key]) != F(entry[key])):
                problems.append(f"params.{key} is {params.get(key)!r}")
        if len(got["equilibria"]) != len(case.equilibria):
            problems.append(f"{len(got['equilibria'])} equilibria, oracle has {len(case.equilibria)}")
        else:
            for idx, (eq, (i, j, pv, pc)) in enumerate(zip(got["equilibria"], case.equilibria), 1):
                if (
                    _fractions(eq["row_strategy"]) != PURE[i]
                    or _fractions(eq["col_strategy"]) != PURE[j]
                    or F(eq["payoff_v"]) != pv
                    or F(eq["payoff_c"]) != pc
                    or eq["kind"] != "pure"
                ):
                    problems.append(f"equilibrium {idx} is {eq}, oracle has cell ({i}, {j}) paying {pv}, {pc}")
                if "degenerate_game" in eq and eq["degenerate_game"] != case.continuum:
                    problems.append(f"degenerate_game is {eq['degenerate_game']}, oracle says {case.continuum}")
        problems += _prediction_problems("prediction", got["prediction"], case.prediction)
        status = "match" if "expected" in entry else "not_checked"
        check = got["expectation_check"]
        if check["status"] != status or check["details"]:
            problems.append(f"expectation_check is {check}, want {status}")
        if problems:
            out[name] = problems
    return out


def results_csv(text: str, cases: list[ScenarioCase]) -> dict[str, list[str]]:
    """results_to_csv text: 10 fields a row, one row per equilibrium, oracle values."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or len(rows[0]) != RESULT_CSV_FIELDS:
        return {"*": [f"csv header is {rows[:1]}"]}
    body = iter(rows[1:])
    out: dict[str, list[str]] = {}
    for case in cases:
        entry = case.entry
        for idx, (i, j, pv, pc) in enumerate(case.equilibria, 1):
            row = next(body, None)
            want = (entry["name"], F(entry["beta"]), F(entry["gamma"]), idx) + PURE[i] + PURE[j] + (pv, pc)
            if row is None or len(row) != RESULT_CSV_FIELDS:
                out.setdefault(entry["name"], []).append(f"csv row {row}")
                continue
            got = (row[0],) + _fractions(row[1:3]) + (int(row[3]),) + _fractions(row[4:])
            if got != want:
                out.setdefault(entry["name"], []).append(f"csv row {row}, want {want}")
    extra = list(body)
    if extra:
        out.setdefault("*", []).append(f"{len(extra)} csv rows more than equilibria")
    return out


def game_equilibria(reported: list, case: GameCase) -> tuple[bool, list[str]]:
    """Reported (row mix, col mix, payoffs, is_pure) against the extreme set.

    Returns (missed, problems). missed is the solver fault the benchmark
    counts: a degenerate game whose reported equilibria are a strict
    subset of the oracle's extreme equilibria.
    """
    problems = []
    profiles = []
    for x, y, pays, pure in reported:
        if not oracles.is_nash(case.payoff1, case.payoff2, x, y):
            problems.append(f"reported {x}, {y} is not an equilibrium")
        elif tuple(pays) != oracles.payoffs(case.payoff1, case.payoff2, x, y):
            problems.append(f"payoffs {pays} at {x}, {y}")
        if pure != (x.count(1) == 1 and y.count(1) == 1):
            problems.append(f"kind of {x}, {y}")
        profiles.append((x, y))
    found = set(profiles)
    if len(found) != len(profiles):
        problems.append("an equilibrium is reported twice")
    if problems or found == case.extreme:
        return False, problems
    if found < case.extreme and not case.generic:
        return True, [f"{len(case.extreme - found)} of {len(case.extreme)} extreme equilibria missing"]
    return False, [f"reported set differs from the {len(case.extreme)} extreme equilibria"]


def solve_json(text: str, case: GameCase) -> tuple[bool, list[str]]:
    """`govgame solve --format json` output."""
    payload = json.loads(text)
    reported = [
        (_fractions(eq["row_strategy"]), _fractions(eq["col_strategy"]),
         (F(eq["payoff1"]), F(eq["payoff2"])), eq["kind"] == "pure")
        for eq in payload["equilibria"]
    ]
    return game_equilibria(reported, case)


def solve_csv(text: str, case: GameCase) -> tuple[bool, list[str]]:
    """`govgame solve --format csv` output: one row per equilibrium."""
    rows = list(csv.reader(io.StringIO(text)))
    width = 2 + 2 * case.size + 2
    if not rows or any(len(row) != width for row in rows):
        return False, [f"csv rows are not all {width} fields wide"]
    reported = []
    for idx, row in enumerate(rows[1:], 1):
        if int(row[0]) != idx:
            return False, [f"csv row {idx} is numbered {row[0]}"]
        x = _fractions(row[2:2 + case.size])
        y = _fractions(row[2 + case.size:2 + 2 * case.size])
        reported.append((x, y, _fractions(row[-2:]), row[1] == "pure"))
    return game_equilibria(reported, case)
