"""Built-in simulation suites and user scenario files.

A scenario bundles governance parameters with an optional expected
outcome. Running one builds the voting game, enumerates its equilibria
exactly, predicts the fork outcome, and compares against the
expectation. The nine built-in simulations and the Ethereum DAO-fork
case study live here, as do the scenario file parser and the layouts
that write results and predictions as JSON and CSV.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator
from enum import Enum
from fractions import Fraction

from .errors import ValidationError
from .game_core import EquilibriumResult, _Record, enumerate_mixed_equilibria
from .governance import (
    SURPLUS_FIELDS,
    _PARAM_KEYS,
    _predict,
    Chain,
    ForkRisk,
    GovernanceParams,
    Mode,
    PredictionResult,
    build_governance_game,
)
from .rationals import (
    _RAW,
    _fill,
    _json_array,
    _quote,
    _template,
    format_rational,
    json_object,
    parse_json,
    parse_rational,
    reject_lone_surrogates,
)


_ROWS = ("yes", "no")
_COLS = ("upgraded", "original")


def _check_name(name: object, field: str) -> None:
    """Raise ValidationError unless the name is a non-empty, printable str."""
    if not isinstance(name, str) or not name:
        raise ValidationError(f"{field} must be a non-empty string")
    reject_lone_surrogates(name, field)


class Scenario(_Record):
    """Named governance parameters with an optional expectation.

    name is a non-empty string. expected_equilibria holds (row, col,
    payoff_v, payoff_c) tuples in the solver's row-major order, with row
    "yes" or "no" and col "upgraded" or "original"; expected_chain is
    the predicted majority chain. An expectation left None is not
    checked, and a scenario with neither reports not_checked.
    """

    _fields = ("name", "params", "expected_equilibria", "expected_chain")

    def __init__(
        self,
        name: str,
        params: GovernanceParams,
        expected_equilibria: tuple | list | None = None,
        expected_chain: Chain | None = None,
    ) -> None:
        _check_name(name, "name")
        if not isinstance(params, GovernanceParams):
            raise ValidationError("params must be a GovernanceParams")
        if expected_chain is not None and not isinstance(expected_chain, Chain):
            raise ValidationError("expected_chain must be a Chain value or None")
        if expected_equilibria is not None:
            if not isinstance(expected_equilibria, (tuple, list)):
                raise ValidationError("expected_equilibria must be a tuple or list")
            checked = []
            for pos, entry in enumerate(expected_equilibria, start=1):
                what = f"expected equilibrium {pos}"
                if not isinstance(entry, (tuple, list)) or len(entry) != 4:
                    raise ValidationError(f"{what} must be a (row, col, payoff_v, payoff_c) tuple")
                row, col, payoff_v, payoff_c = entry
                if row not in _ROWS:
                    raise ValidationError(f"{what}: row must be 'yes' or 'no'")
                if col not in _COLS:
                    raise ValidationError(f"{what}: col must be 'upgraded' or 'original'")
                payoff_v = parse_rational(payoff_v, f"{what}: payoff_v")
                checked.append((row, col, payoff_v, parse_rational(payoff_c, f"{what}: payoff_c")))
            expected_equilibria = tuple(checked)
        self._store(name, params, expected_equilibria, expected_chain)


class CheckStatus(Enum):
    MATCH = "match"
    MISMATCH = "mismatch"
    NOT_CHECKED = "not_checked"


class ScenarioResult(_Record):
    """Everything computed for one scenario.

    equilibria are the 2x2 vote game's, and every result writer refuses
    any other. mismatches is None without an expectation, and otherwise
    holds one line per difference from it; status is derived from it, so
    a match never carries a mismatch line.
    """

    _fields = ("name", "params", "equilibria", "prediction", "mismatches", "notes")
    _defaults = {"notes": ()}

    @property
    def status(self) -> CheckStatus:
        if self.mismatches is None:
            return CheckStatus.NOT_CHECKED
        return CheckStatus.MISMATCH if self.mismatches else CheckStatus.MATCH


def _equilibrium_text(eq: EquilibriumResult) -> tuple[list[str], list[str], str, str]:
    """The row strategy, the col strategy and both payoffs, each value as exact text."""
    return (
        [format_rational(p) for p in eq.profile.sigma1.probs],
        [format_rational(p) for p in eq.profile.sigma2.probs],
        format_rational(eq.payoffs[0]),
        format_rational(eq.payoffs[1]),
    )


def _diff_equilibrium(idx: int, want: tuple, got: EquilibriumResult) -> list[str]:
    row, col, payoff_v, payoff_c = want
    same = (
        got.profile.sigma1.probs[_ROWS.index(row)] == 1,
        got.profile.sigma2.probs[_COLS.index(col)] == 1,
        got.payoffs[0] == payoff_v,
        got.payoffs[1] == payoff_c,
    )
    if all(same):
        return []
    row_strategy, col_strategy, got_v, got_c = _equilibrium_text(got)
    lines = (
        f"pure row {row!r}, computed row strategy ({', '.join(row_strategy)})",
        f"pure col {col!r}, computed col strategy ({', '.join(col_strategy)})",
        f"payoff_v {format_rational(payoff_v)}, computed {got_v}",
        f"payoff_c {format_rational(payoff_c)}, computed {got_c}",
    )
    return [f"equilibrium {idx}: expected {line}" for ok, line in zip(same, lines) if not ok]


def _check_expectation(
    scenario: Scenario,
    equilibria: tuple[EquilibriumResult, ...],
    prediction: PredictionResult,
) -> tuple[str, ...] | None:
    wanted, chain = scenario.expected_equilibria, scenario.expected_chain
    if wanted is None and chain is None:
        return None
    details: list[str] = []
    if wanted is not None:
        if len(equilibria) != len(wanted):
            details.append(f"expected {len(wanted)} equilibria, computed {len(equilibria)}")
        else:
            for idx, (want, got) in enumerate(zip(wanted, equilibria), start=1):
                details.extend(_diff_equilibrium(idx, want, got))
    if chain is not None and prediction.majority_chain is not chain:
        details.append(
            f"expected majority_chain {chain.value}, "
            f"predicted {prediction.majority_chain.value}"
        )
    return tuple(details)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Solve the scenario's voting game and predict its outcome.

    Builds the 2x2 game from the parameters, enumerates all equilibria
    (pure and mixed) exactly, runs the outcome predictor, and compares
    against the expectation when one is given. Equilibria are compared
    in the solver's canonical row-major order. The predictor reads the
    solved game's masses, so the result equals predict_outcome(params).
    """
    params = scenario.params
    try:
        game = build_governance_game(params)
        equilibria = tuple(enumerate_mixed_equilibria(game))
        prediction = _predict(params, None, game)
        mismatches = _check_expectation(scenario, equilibria, prediction)
    except ValidationError as exc:
        raise ValidationError(f"scenario {scenario.name!r}: {exc}") from None
    return ScenarioResult(scenario.name, params, equilibria, prediction, mismatches)


# The nine built-in simulations: name, beta, gamma, and the published
# equilibria as (row, col, payoff_v, payoff_c). The fraction strings
# are stored verbatim, not recomputed.
_TABLE1 = (
    ("1", "1", "1", (("yes", "upgraded", "1", "1"),)),
    ("2", "0", "0", (("no", "original", "1", "1"),)),
    ("3", "1", "0", (("yes", "original", "1", "1"),)),
    ("4", "0", "1", (("no", "upgraded", "1", "1"),)),
    (
        "5",
        "1/2",
        "1/2",
        (
            ("yes", "upgraded", "1/2", "1/2"),
            ("yes", "original", "1/2", "1/2"),
            ("no", "upgraded", "1/2", "1/2"),
            ("no", "original", "1/2", "1/2"),
        ),
    ),
    ("6", "3/5", "7/10", (("yes", "upgraded", "3/5", "7/10"),)),
    ("7", "1/5", "2/5", (("no", "original", "4/5", "3/5"),)),
    ("8", "7/10", "1/5", (("yes", "original", "7/10", "4/5"),)),
    ("9", "7/20", "18/25", (("no", "upgraded", "13/20", "18/25"),)),
)


def builtin_table1_scenarios() -> list[Scenario]:
    """The nine built-in simulations with their published outcomes.

    The simulations exercise the bare strategy game, so they run in
    no-governance mode; the predicted destination then coincides with
    the community's equilibrium column in every row.
    """
    return [
        Scenario(name, GovernanceParams(beta, gamma, mode=Mode.NO_GOVERNANCE), rows)
        for name, beta, gamma, rows in _TABLE1
    ]


def run_table1_suite() -> list[ScenarioResult]:
    """Run the nine built-in simulations in their published order."""
    return [run_scenario(scenario) for scenario in builtin_table1_scenarios()]


ETHEREUM_BETA = Fraction(27, 50)
ASSUMED_GAMMA = Fraction(7, 10)
HISTORICAL_OUTCOME = (
    "majority moved to the upgraded chain and the community split in two"
)


def run_ethereum_case_study(
    beta: Fraction | str | None = None, gamma: Fraction | str | None = None
) -> ScenarioResult:
    """Replay the 2016 Ethereum DAO-fork vote against the predictor.

    Mining pools holding about 54 percent of the vote supported the
    upgrade, so beta defaults to 27/50 under off-chain governance. No
    measured community proportion exists: gamma defaults to an assumed
    7/10 (every gamma in [0, 1] gives the same qualitative prediction),
    or to 1 when beta is overridden to 1, since a unanimous vote leaves
    nobody to stay behind. The expectation check compares the
    prediction against the recorded outcome: the majority moved to the
    upgraded chain (ETH) and the original chain (ETC) survived the
    split.
    """
    notes: list[str] = []
    beta = ETHEREUM_BETA if beta is None else parse_rational(beta, "beta")
    if gamma is None:
        gamma = Fraction(1) if beta == 1 else ASSUMED_GAMMA
        notes.append(
            f"gamma = {format_rational(gamma)} (assumed; no measured value exists)"
        )
    params = GovernanceParams(beta=beta, gamma=gamma, mode=Mode.OFF_CHAIN)
    base = run_scenario(Scenario(name="ethereum-dao-fork", params=params))
    details = []
    if base.prediction.majority_chain is not Chain.UPGRADED:
        details.append(
            f"majority_chain: predicted {base.prediction.majority_chain.value}, "
            "history shows upgraded"
        )
    if base.prediction.fork_risk is ForkRisk.NONE:
        details.append("fork_risk: predicted none, history shows the chain split")
    notes.append(f"recorded outcome: {HISTORICAL_OUTCOME}")
    return ScenarioResult(
        base.name, params, base.equilibria, base.prediction, tuple(details), tuple(notes)
    )


_SCENARIO_KEYS = {"name", "mode", *_PARAM_KEYS, "expected"}
_EXPECTED_KEYS = {"equilibria", "majority_chain"}
_EQUILIBRIUM_KEYS = ("row", "col", "payoff_v", "payoff_c")
_MODES = {mode.value: mode for mode in Mode}
_CHAINS = {chain.value: chain for chain in Chain}


def _token(value: object, field: str, table: dict[str, Enum]) -> Enum:
    """The member the token names; ValidationError unless it is one of table's keys."""
    if not isinstance(value, str) or value not in table:
        raise ValidationError(f"{field} must be one of {sorted(table)}, got {value!r}")
    return table[value]


def _parse_expected(raw: object) -> tuple[list | None, Chain | None]:
    """The expectation's equilibria as (row, col, payoff_v, payoff_c) lists, and its chain."""
    if raw is None:
        return None, None
    raw = json_object(raw, "expected", _EXPECTED_KEYS)
    if not raw:
        raise ValidationError("expected must give equilibria or majority_chain")
    equilibria = None
    if "equilibria" in raw:
        if not isinstance(raw["equilibria"], list):
            raise ValidationError("expected.equilibria must be an array")
        equilibria = []
        for pos, entry in enumerate(raw["equilibria"], start=1):
            entry = json_object(
                entry, f"expected equilibrium {pos}", _EQUILIBRIUM_KEYS, _EQUILIBRIUM_KEYS
            )
            equilibria.append([entry[key] for key in _EQUILIBRIUM_KEYS])
    chain = None
    if "majority_chain" in raw:
        chain = _token(raw["majority_chain"], "majority_chain", _CHAINS)
    return equilibria, chain


def _parse_scenario(index: int, entry: object) -> Scenario:
    entry = json_object(entry, f"scenario {index + 1}", _SCENARIO_KEYS, ("beta", "gamma"))
    name = entry.get("name", f"scenario-{index + 1}")
    _check_name(name, f"scenario {index + 1}: name")
    try:
        # GovernanceParams parses and range-checks every field, absent ones
        # taking its defaults; Scenario checks the expectation's values.
        given = {key: entry[key] for key in _PARAM_KEYS if key in entry}
        if "mode" in entry:
            given["mode"] = _token(entry["mode"], "mode", _MODES)
        params = GovernanceParams(**given)
        return Scenario(name, params, *_parse_expected(entry.get("expected")))
    except ValidationError as exc:
        raise ValidationError(f"scenario {name!r}: {exc}") from None


def load_scenarios(text: str) -> list[Scenario]:
    """Parse a scenario file into scenarios, in file order.

    The file is a JSON object {"scenarios": [...]}. Every scenario
    needs "beta" and "gamma"; "name" defaults to "scenario-<N>" for the
    N-th scenario, "mode" to "off_chain", "k" and "n" to 1, and "s_v"
    and "s_c" to "1". Rationals may be written as numbers or "p/q"
    strings and are parsed exactly. Unknown fields are rejected so
    typos cannot silently change a scenario's meaning.
    """
    data = json_object(parse_json(text), "scenario file", {"scenarios"}, {"scenarios"})
    if not isinstance(data["scenarios"], list):
        raise ValidationError('"scenarios" must be an array')
    return [_parse_scenario(i, entry) for i, entry in enumerate(data["scenarios"])]


# A prediction's columns, and its JSON: a slot per _prediction_values value, then the notes.
_PREDICTION_COLUMNS = (*PredictionResult._fields[:3], *SURPLUS_FIELDS)
_PREDICTION_SKELETON = {
    **dict.fromkeys(_PREDICTION_COLUMNS[:3], "%s"),
    "surplus": dict.fromkeys(SURPLUS_FIELDS, "%s"),
    "notes": _RAW,
}
_PREDICTION_JSON = _template(_PREDICTION_SKELETON)


def _prediction_values(prediction: PredictionResult) -> tuple:
    """The _PREDICTION_COLUMNS values: each enum's value, then the surplus Fractions."""
    regime, chain, risk, surplus, _ = prediction._values()
    return (regime.value, chain.value, risk.value, *surplus._values())


def _prediction_json(prediction: PredictionResult) -> str:
    """The prediction as JSON at depth 0; only its notes are escaped, as no other value needs it."""
    notes = _json_array([_quote(note) for note in prediction.notes], "\n  ")
    return _fill(_PREDICTION_JSON, (*_prediction_values(prediction), notes))


def _vote_equilibria(result: ScenarioResult) -> tuple[EquilibriumResult, ...]:
    """The result's equilibria; ValidationError unless each is of a 2x2 game."""
    for eq in result.equilibria:
        if len(eq.profile.sigma1.probs) != 2 or len(eq.profile.sigma2.probs) != 2:
            raise ValidationError(f"scenario {result.name!r}: equilibrium not of a 2x2 game")
    return result.equilibria


# A result's equilibrium (two slots per strategy of the 2x2 vote game) and a result, as JSON at
# their depths in results_to_json; k and n are bare, and gamma_prime's slot holds its line or "".
_EQUILIBRIUM_JSON = _template(
    {
        "kind": "%s",
        "degenerate_game": _RAW,
        "row_strategy": ["%s", "%s"],
        "col_strategy": ["%s", "%s"],
        "payoff_v": "%s",
        "payoff_c": "%s",
    },
    3,
)
_RESULT_JSON = _template(
    {
        "name": _RAW,
        "params": {"mode": "%s", **dict.fromkeys(_PARAM_KEYS, "%s"), "k": _RAW, "n": _RAW},
        "equilibria": _RAW,
        "prediction": _PREDICTION_SKELETON,
        "expectation_check": {"status": "%s", "details": _RAW},
        "notes": _RAW,
    },
    1,
).replace('\n      "gamma_prime": "%s",', "%s")


def _result_json(result: ScenarioResult) -> str:
    """One result as JSON text: a fill of _RESULT_JSON, and of _EQUILIBRIUM_JSON per equilibrium.

    Arrays come from _json_array, and _fill refuses a value too long to
    print. Only the name, the mismatch lines and the notes are escaped:
    enum values and exact text never need it.
    """
    params, prediction, gamma_prime = result.params, result.prediction, ""
    equilibria = []
    for eq in _vote_equilibria(result):
        row, col = eq.profile.sigma1.probs, eq.profile.sigma2.probs
        flag = "true" if eq.degenerate_game else "false"
        equilibria.append(_fill(_EQUILIBRIUM_JSON, (eq.kind.value, flag, *row, *col, *eq.payoffs)))
    if params.gamma_prime is not None:
        gamma_prime = f'\n      "gamma_prime": "{format_rational(params.gamma_prime)}",'
    return _fill(
        _RESULT_JSON,
        (
            _quote(result.name),
            params.mode.value,
            params.beta,
            params.gamma,
            gamma_prime,
            params.k,
            params.n,
            params.s_v,
            params.s_c,
            _json_array(equilibria, "\n    "),
            *_prediction_values(prediction),
            _json_array([_quote(note) for note in prediction.notes], "\n      "),
            result.status.value,
            _json_array([_quote(line) for line in result.mismatches or ()], "\n      "),
            _json_array([_quote(note) for note in result.notes], "\n    "),
        ),
    )


def results_to_json(results: list[ScenarioResult]) -> str:
    """Full-fidelity JSON array of scenario results, as json.dumps(..., indent=2) lays it out."""
    return _json_array([_result_json(r) for r in results], "\n")


RESULT_CSV_COLUMNS = (
    "simulation", "beta", "gamma", "equilibrium_index", *_ROWS, *_COLS, "v_payoff", "c_payoff"
)


def result_rows(result: ScenarioResult) -> Iterator[list[str]]:
    """Yield one row of RESULT_CSV_COLUMNS strings per equilibrium, in order."""
    beta, gamma = format_rational(result.params.beta), format_rational(result.params.gamma)
    for idx, eq in enumerate(_vote_equilibria(result), start=1):
        row_strategy, col_strategy, payoff_v, payoff_c = _equilibrium_text(eq)
        yield [result.name, beta, gamma, str(idx), *row_strategy, *col_strategy, payoff_v, payoff_c]


def csv_text(rows: Iterable[Iterable[str]]) -> str:
    """The rows as CSV text, each line ended by a bare newline."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def results_to_csv(results: list[ScenarioResult]) -> str:
    """CSV with one line per equilibrium, all values exact.

    Multi-equilibrium scenarios repeat their identifying columns; a
    shared payoff (as in the built-in simulation with four equilibria)
    simply appears on each of its lines.
    """
    return csv_text([RESULT_CSV_COLUMNS, *(row for r in results for row in result_rows(r))])
