"""Built-in simulation suites and user scenario files.

A scenario bundles governance parameters with an optional expected
outcome. Running one builds the voting game, enumerates its equilibria
exactly, predicts the fork outcome, and compares against the
expectation. The nine built-in simulations and the Ethereum DAO-fork
case study live here, as do the scenario file parser and the JSON/CSV
result serializers.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .errors import ValidationError
from .game_core import EquilibriumResult, MixedStrategy, enumerate_mixed_equilibria
from .governance import (
    Chain,
    ForkRisk,
    GovernanceParams,
    Mode,
    PredictionResult,
    build_governance_game,
    predict_outcome,
    prediction_to_dict,
)
from .rationals import (
    format_rational,
    json_text,
    parse_json,
    parse_rational,
    reject_lone_surrogates,
)


@dataclass(frozen=True)
class ExpectedEquilibrium:
    """One expected pure equilibrium: strategies plus exact payoffs."""

    row: str
    col: str
    payoff_v: Fraction
    payoff_c: Fraction

    def __post_init__(self) -> None:
        if self.row not in ("yes", "no"):
            raise ValidationError("expected row must be 'yes' or 'no'")
        if self.col not in ("upgraded", "original"):
            raise ValidationError("expected col must be 'upgraded' or 'original'")
        object.__setattr__(self, "payoff_v", parse_rational(self.payoff_v, "payoff_v"))
        object.__setattr__(self, "payoff_c", parse_rational(self.payoff_c, "payoff_c"))


@dataclass(frozen=True)
class ExpectedOutcome:
    """What a scenario is expected to produce; absent pieces are skipped."""

    equilibria: tuple[ExpectedEquilibrium, ...] | None = None
    majority_chain: Chain | None = None


@dataclass(frozen=True)
class Scenario:
    """Named governance parameters with an optional expectation."""

    name: str
    params: GovernanceParams
    expected: ExpectedOutcome | None = None


class CheckStatus(Enum):
    MATCH = "match"
    MISMATCH = "mismatch"
    NOT_CHECKED = "not_checked"


@dataclass(frozen=True)
class ExpectationCheck:
    """Outcome of comparing computed results against an expectation."""

    status: CheckStatus
    details: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScenarioResult:
    """Everything computed for one scenario."""

    name: str
    params: GovernanceParams
    equilibria: tuple[EquilibriumResult, ...]
    prediction: PredictionResult
    expectation_check: ExpectationCheck
    notes: tuple[str, ...] = ()


_ROW_INDEX = {"yes": 0, "no": 1}
_COL_INDEX = {"upgraded": 0, "original": 1}


def _strategy_text(mix: MixedStrategy) -> str:
    return "(" + ", ".join(format_rational(p) for p in mix.probs) + ")"


def _diff_equilibrium(
    idx: int, want: ExpectedEquilibrium, got: EquilibriumResult
) -> list[str]:
    out = []
    sigma1 = got.profile.sigma1
    sigma2 = got.profile.sigma2
    if sigma1.probs[_ROW_INDEX[want.row]] != 1:
        out.append(
            f"equilibrium {idx}: expected pure row {want.row!r}, "
            f"computed row strategy {_strategy_text(sigma1)}"
        )
    if sigma2.probs[_COL_INDEX[want.col]] != 1:
        out.append(
            f"equilibrium {idx}: expected pure col {want.col!r}, "
            f"computed col strategy {_strategy_text(sigma2)}"
        )
    if got.payoffs[0] != want.payoff_v:
        out.append(
            f"equilibrium {idx}: expected payoff_v {format_rational(want.payoff_v)}, "
            f"computed {format_rational(got.payoffs[0])}"
        )
    if got.payoffs[1] != want.payoff_c:
        out.append(
            f"equilibrium {idx}: expected payoff_c {format_rational(want.payoff_c)}, "
            f"computed {format_rational(got.payoffs[1])}"
        )
    return out


def _check_expectation(
    expected: ExpectedOutcome | None,
    equilibria: tuple[EquilibriumResult, ...],
    prediction: PredictionResult,
) -> ExpectationCheck:
    if expected is None:
        return ExpectationCheck(CheckStatus.NOT_CHECKED)
    details: list[str] = []
    if expected.equilibria is not None:
        if len(equilibria) != len(expected.equilibria):
            details.append(
                f"expected {len(expected.equilibria)} equilibria, "
                f"computed {len(equilibria)}"
            )
        else:
            for idx, (want, got) in enumerate(
                zip(expected.equilibria, equilibria), start=1
            ):
                details.extend(_diff_equilibrium(idx, want, got))
    if (
        expected.majority_chain is not None
        and prediction.majority_chain is not expected.majority_chain
    ):
        details.append(
            f"expected majority_chain {expected.majority_chain.value}, "
            f"predicted {prediction.majority_chain.value}"
        )
    if details:
        return ExpectationCheck(CheckStatus.MISMATCH, tuple(details))
    return ExpectationCheck(CheckStatus.MATCH)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Solve the scenario's voting game and predict its outcome.

    Builds the 2x2 game from the parameters, enumerates all equilibria
    (pure and mixed) exactly, runs the outcome predictor, and compares
    against the expectation when one is given. Equilibria are compared
    in the solver's canonical row-major order.
    """
    params = scenario.params
    try:
        game = build_governance_game(params)
        equilibria = tuple(enumerate_mixed_equilibria(game))
        prediction = predict_outcome(params)
        check = _check_expectation(scenario.expected, equilibria, prediction)
    except ValidationError as exc:
        raise ValidationError(f"scenario {scenario.name!r}: {exc}") from None
    return ScenarioResult(scenario.name, params, equilibria, prediction, check)


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
    scenarios = []
    for name, beta, gamma, rows in _TABLE1:
        expected = ExpectedOutcome(
            equilibria=tuple(
                ExpectedEquilibrium(row, col, Fraction(pv), Fraction(pc))
                for row, col, pv, pc in rows
            )
        )
        params = GovernanceParams(
            beta=Fraction(beta), gamma=Fraction(gamma), mode=Mode.NO_GOVERNANCE
        )
        scenarios.append(Scenario(name=name, params=params, expected=expected))
    return scenarios


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
    7/10 (any value above 1/2 gives the same qualitative prediction),
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
    status = CheckStatus.MISMATCH if details else CheckStatus.MATCH
    notes.append(f"recorded outcome: {HISTORICAL_OUTCOME}")
    return replace(
        base, expectation_check=ExpectationCheck(status, tuple(details)), notes=tuple(notes)
    )


_PARAM_KEYS = ("beta", "gamma", "gamma_prime", "k", "n", "s_v", "s_c")
_SCENARIO_KEYS = {"name", "mode", *_PARAM_KEYS, "expected"}
_EXPECTED_KEYS = {"equilibria", "majority_chain"}
_EQUILIBRIUM_KEYS = {"row", "col", "payoff_v", "payoff_c"}
_MODES = {mode.value: mode for mode in Mode}
_CHAINS = {chain.value: chain for chain in Chain}


def _parse_expected(raw: object) -> ExpectedOutcome | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ValidationError("expected must be an object")
    unknown = sorted(set(raw) - _EXPECTED_KEYS)
    if unknown:
        raise ValidationError(f"unknown field {unknown[0]!r} in expected")
    equilibria = None
    if "equilibria" in raw:
        if not isinstance(raw["equilibria"], list):
            raise ValidationError("expected.equilibria must be an array")
        parsed = []
        for pos, entry in enumerate(raw["equilibria"], start=1):
            if not isinstance(entry, dict):
                raise ValidationError(f"expected equilibrium {pos} must be an object")
            unknown = sorted(set(entry) - _EQUILIBRIUM_KEYS)
            if unknown:
                raise ValidationError(
                    f"unknown field {unknown[0]!r} in expected equilibrium {pos}"
                )
            missing = sorted(_EQUILIBRIUM_KEYS - set(entry))
            if missing:
                raise ValidationError(
                    f"expected equilibrium {pos} is missing {missing[0]!r}"
                )
            parsed.append(ExpectedEquilibrium(**entry))
        equilibria = tuple(parsed)
    chain = None
    if "majority_chain" in raw:
        token = raw["majority_chain"]
        if not isinstance(token, str) or token not in _CHAINS:
            raise ValidationError(
                f"majority_chain must be one of {sorted(_CHAINS)}, got {token!r}"
            )
        chain = _CHAINS[token]
    return ExpectedOutcome(equilibria=equilibria, majority_chain=chain)


def _parse_scenario(index: int, entry: object) -> Scenario:
    if not isinstance(entry, dict):
        raise ValidationError(f"scenario {index + 1} must be an object")
    name = entry.get("name", f"scenario-{index + 1}")
    if not isinstance(name, str) or not name:
        raise ValidationError(f"scenario {index + 1}: name must be a non-empty string")
    reject_lone_surrogates(name, f"scenario {index + 1}: name")
    try:
        unknown = sorted(set(entry) - _SCENARIO_KEYS)
        if unknown:
            raise ValidationError(f"unknown field {unknown[0]!r}")
        for required in ("beta", "gamma"):
            if required not in entry:
                raise ValidationError(f"missing field {required!r}")
        mode_token = entry.get("mode", Mode.OFF_CHAIN.value)
        if not isinstance(mode_token, str) or mode_token not in _MODES:
            raise ValidationError(
                f"mode must be one of {sorted(_MODES)}, got {mode_token!r}"
            )
        # GovernanceParams parses and range-checks every field it is given;
        # absent optional fields take its defaults.
        params = GovernanceParams(
            **{field: entry[field] for field in _PARAM_KEYS if field in entry},
            mode=_MODES[mode_token],
        )
        expected = _parse_expected(entry.get("expected"))
    except ValidationError as exc:
        raise ValidationError(f"scenario {name!r}: {exc}") from None
    return Scenario(name=name, params=params, expected=expected)


def load_scenarios(text: str) -> list[Scenario]:
    """Parse a scenario file into scenarios, in file order.

    The file is a JSON object {"scenarios": [...]}. Every scenario
    needs "beta" and "gamma"; "mode" defaults to "off_chain", "k" and
    "n" to 1, and "s_v" and "s_c" to "1". Rationals may be written as
    numbers or "p/q" strings and are parsed exactly. Unknown fields are
    rejected so typos cannot silently change a scenario's meaning.
    """
    data = parse_json(text)
    if not isinstance(data, dict) or set(data) != {"scenarios"}:
        raise ValidationError(
            'scenario file must be an object with a single "scenarios" array'
        )
    if not isinstance(data["scenarios"], list):
        raise ValidationError('"scenarios" must be an array')
    return [_parse_scenario(i, entry) for i, entry in enumerate(data["scenarios"])]


def _params_to_dict(params: GovernanceParams) -> dict:
    entry: dict = {
        "mode": params.mode.value,
        "beta": format_rational(params.beta),
        "gamma": format_rational(params.gamma),
    }
    if params.gamma_prime is not None:
        entry["gamma_prime"] = format_rational(params.gamma_prime)
    entry["k"] = params.k
    entry["n"] = params.n
    entry["s_v"] = format_rational(params.s_v)
    entry["s_c"] = format_rational(params.s_c)
    return entry


def _equilibrium_to_dict(eq: EquilibriumResult) -> dict:
    return {
        "kind": eq.kind.value,
        "degenerate_game": eq.degenerate_game,
        "row_strategy": [format_rational(p) for p in eq.profile.sigma1.probs],
        "col_strategy": [format_rational(p) for p in eq.profile.sigma2.probs],
        "payoff_v": format_rational(eq.payoffs[0]),
        "payoff_c": format_rational(eq.payoffs[1]),
    }


def result_to_dict(result: ScenarioResult) -> dict:
    """JSON-ready mapping for one result, rationals as "p/q" strings."""
    return {
        "name": result.name,
        "params": _params_to_dict(result.params),
        "equilibria": [_equilibrium_to_dict(eq) for eq in result.equilibria],
        "prediction": prediction_to_dict(result.prediction),
        "expectation_check": {
            "status": result.expectation_check.status.value,
            "details": list(result.expectation_check.details),
        },
        "notes": list(result.notes),
    }


def results_to_json(results: list[ScenarioResult]) -> str:
    """Full-fidelity JSON array of scenario results."""
    return json_text([result_to_dict(r) for r in results])


RESULT_CSV_COLUMNS = (
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


def result_rows(result: ScenarioResult) -> Iterator[list[str]]:
    """Yield one row of RESULT_CSV_COLUMNS strings per equilibrium, in order."""
    beta = format_rational(result.params.beta)
    gamma = format_rational(result.params.gamma)
    for idx, eq in enumerate(result.equilibria, start=1):
        yield [
            result.name,
            beta,
            gamma,
            str(idx),
            *(format_rational(p) for p in eq.profile.sigma1.probs),
            *(format_rational(p) for p in eq.profile.sigma2.probs),
            format_rational(eq.payoffs[0]),
            format_rational(eq.payoffs[1]),
        ]


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
