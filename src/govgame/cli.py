"""Command-line interface: solve games, predict outcomes, run suites.

Exit codes: 0 on success, 1 on input or usage errors, 2 when computed
results contradict an expectation (a failed verification or a scenario
mismatch). Standard output carries only the requested data; warnings
and other diagnostics go to standard error. Each command formats its
whole output before writing it in one piece, so a command that fails
writes nothing to standard output.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from fractions import Fraction

from .game_core import (
    MixedStrategy,
    enumerate_mixed_equilibria,
    enumerate_pure_equilibria,
    load_game,
)
from .governance import (
    SURPLUS_FIELDS,
    _PARAM_KEYS,
    GovernanceParams,
    Mode,
    PredictionResult,
    SurplusReport,
    predict_outcome,
)
from .rationals import (
    _RAW, ValidationError, _fill, _json_array, _quote, _template, approx, format_rational
)
from .scenario_runner import (
    RESULT_CSV_COLUMNS,
    _PREDICTION_COLUMNS,
    ScenarioResult,
    _equilibrium_text,
    _prediction_json,
    _prediction_values,
    csv_text,
    load_scenarios,
    result_rows,
    results_to_csv,
    results_to_json,
    run_ethereum_case_study,
    run_scenario,
    run_table1_suite,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser, root: bool = False) -> None:
    # Subcommands declare the same flags with SUPPRESS defaults so a
    # value given before the subcommand is not overwritten.
    parser.add_argument(
        "--format",
        choices=["table", "json", "csv"],
        default="table" if root else argparse.SUPPRESS,
        help="output format (default table)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        default=False if root else argparse.SUPPRESS,
        help="suppress warnings on standard error",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="govgame",
        description=(
            "Exact Nash solver and hard-fork predictor for protocol-upgrade "
            "voting games."
        ),
    )
    _add_common(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("solve", help="enumerate Nash equilibria of a game file")
    _add_common(p)
    p.add_argument("game_file", help="path to a game interchange JSON file")
    p.add_argument(
        "--pure-only",
        action="store_true",
        help="skip vertex enumeration and list only pure equilibria",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "predict", help="predict regime, destination chain, and fork risk"
    )
    _add_common(p)
    p.add_argument(
        "--mode",
        choices=[mode.value for mode in Mode],
        default=Mode.OFF_CHAIN.value,
        help="governance mode (default off_chain)",
    )
    p.add_argument("--beta", help="proportion voting yes, e.g. 27/50 or 0.54")
    p.add_argument("--gamma", required=True, help="proportion moving to the upgraded chain")
    p.add_argument(
        "--gamma-prime",
        help="post-consultation upgraded-chain proportion (on_chain rejections)",
    )
    # Flags left out are not passed on, so GovernanceParams supplies the defaults.
    p.add_argument("--k", type=int, help="voter count (default 1)")
    p.add_argument("--n", type=int, help="community size (default 1)")
    p.add_argument("--sv", dest="s_v", metavar="SV", help="per-voter payoff unit (default 1)")
    p.add_argument(
        "--sc", dest="s_c", metavar="SC", help="per-community-member payoff unit (default 1)"
    )
    p.add_argument(
        "--tie-break",
        choices=["accept", "reject"],
        help="force a side when beta is exactly 1/2",
    )
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("table1", help="run the nine built-in simulations")
    _add_common(p)
    p.add_argument(
        "--verify",
        action="store_true",
        help="exit 2 unless every simulation matches its published values",
    )
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("casestudy", help="replay the Ethereum DAO-fork vote")
    _add_common(p)
    p.add_argument("--beta", help="override the recorded 27/50 yes share")
    p.add_argument("--gamma", help="override the assumed 7/10 upgraded share")
    p.set_defaults(func=cmd_casestudy)

    p = sub.add_parser("run", help="run scenarios from a file")
    _add_common(p)
    p.add_argument("scenario_file", help="path to a scenario JSON file")
    p.set_defaults(func=cmd_run)

    return parser


def _diag(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _load(path: str, parse: Callable[[str], object]) -> object:
    """parse applied to the file's text; its errors name the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    try:
        return parse(text)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _text(lines: list[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


def _grid(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(cell) for cell in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in (header, *rows)
    ]


def _payoff_text(value: Fraction) -> str:
    return f"{format_rational(value)} ({approx(value)})"


def _strategy_text(labels: tuple[str, ...], mix: MixedStrategy) -> str:
    if mix.is_pure:
        return labels[mix.support[0]]
    return " ".join(
        f"{label}:{format_rational(p)}" for label, p in zip(labels, mix.probs)
    )


# solve --format json, and each equilibrium at its depth; arrays come from _json_array.
_SOLVE_JSON = _template(
    dict.fromkeys(("row_labels", "col_labels", "degenerate_game", "equilibria"), _RAW)
)
_SOLVED_EQUILIBRIUM_JSON = _template(
    {"kind": "%s", "row_strategy": _RAW, "col_strategy": _RAW, "payoff1": "%s", "payoff2": "%s"}, 2
)


def cmd_solve(args: argparse.Namespace) -> int:
    game = _load(args.game_file, load_game)
    if args.pure_only:
        # The pure enumeration does not compute the flag, so it is reported as unknown.
        equilibria = enumerate_pure_equilibria(game)
        degenerate = None
    else:
        equilibria = enumerate_mixed_equilibria(game)
        degenerate = any(eq.degenerate_game for eq in equilibria)
    if degenerate:
        _diag(
            args,
            "warning: degenerate game, the equilibrium continuum is reported "
            "by its vertex equilibria",
        )
    if args.format == "json":
        # Only the labels are escaped: enum values and exact text never need it.
        entries = []
        for eq in equilibria:
            row, col, *payoffs = _equilibrium_text(eq)
            mixes = [_json_array([f'"{p}"' for p in mix], "\n      ") for mix in (row, col)]
            entries.append(_fill(_SOLVED_EQUILIBRIUM_JSON, (eq.kind.value, *mixes, *payoffs)))
        flag = "null" if degenerate is None else "true" if degenerate else "false"
        sides = (game.row_labels, game.col_labels)
        labels = [_json_array([_quote(label) for label in side], "\n  ") for side in sides]
        text = _fill(_SOLVE_JSON, (*labels, flag, _json_array(entries, "\n  "))) + "\n"
    elif args.format == "csv":
        labels = [*game.row_labels, *game.col_labels]
        rows = [["equilibrium_index", "kind", *labels, "payoff1", "payoff2"]]
        for idx, eq in enumerate(equilibria, start=1):
            row_strategy, col_strategy, payoff1, payoff2 = _equilibrium_text(eq)
            rows.append([str(idx), eq.kind.value, *row_strategy, *col_strategy, payoff1, payoff2])
        text = csv_text(rows)
    elif not equilibria:
        text = "no equilibria\n"
    else:
        header = ["#", "kind", "row strategy", "col strategy", "payoff1", "payoff2"]
        rows = [
            [
                str(idx),
                eq.kind.value,
                _strategy_text(game.row_labels, eq.profile.sigma1),
                _strategy_text(game.col_labels, eq.profile.sigma2),
                _payoff_text(eq.payoffs[0]),
                _payoff_text(eq.payoffs[1]),
            ]
            for idx, eq in enumerate(equilibria, start=1)
        ]
        text = _text(_grid(header, rows))
    sys.stdout.write(text)
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    mode = Mode(args.mode)
    given = {key: value for key in _PARAM_KEYS if (value := getattr(args, key)) is not None}
    if "beta" not in given:
        if mode is not Mode.NO_GOVERNANCE:
            raise ValidationError("beta is required unless mode is 'none'")
        # Without governance no vote takes place; an even split is the
        # neutral stand-in so the voter-side fields stay defined.
        given["beta"] = Fraction(1, 2)
    params = GovernanceParams(**given, mode=mode)
    for warning in params.warnings:
        _diag(args, f"warning: {warning}")
    prediction = predict_outcome(params, tie_break=args.tie_break)
    if args.format == "json":
        text = _prediction_json(prediction) + "\n"
    elif args.format == "csv":
        values = _prediction_values(prediction)
        text = csv_text([_PREDICTION_COLUMNS, [*values[:3], *map(format_rational, values[3:])]])
    else:
        text = _text(
            [
                _headline(prediction),
                *_surplus_lines(prediction.surplus, SURPLUS_FIELDS, indent="  "),
                *(f"note: {note}" for note in prediction.notes),
            ]
        )
    sys.stdout.write(text)
    return EXIT_OK


def _headline(prediction: PredictionResult) -> str:
    """'MajorityAccept / Upgraded / Present': each enum value in CamelCase."""
    return " / ".join(v.title().replace("_", "") for v in _prediction_values(prediction)[:3])


def _surplus_lines(surplus: SurplusReport, names: tuple[str, ...], indent: str = "") -> list[str]:
    return [f"{indent}{name:<9} = {_payoff_text(getattr(surplus, name))}" for name in names]


def _result_table(results: list[ScenarioResult]) -> str:
    header = [*RESULT_CSV_COLUMNS[:3], "eq", *RESULT_CSV_COLUMNS[4:], "status"]
    rows = []
    for result in results:
        for idx, row in enumerate(result_rows(result)):
            if idx:
                # Follow-on equilibria leave the scenario columns blank.
                rows.append(["", "", "", *row[3:], ""])
            else:
                rows.append([*row, result.status.value])
    return _text(
        [
            *_grid(header, rows),
            "",
            "predictions:",
            *(f"  {result.name}: {_headline(result.prediction)}" for result in results),
        ]
    )


def _results_text(args: argparse.Namespace, results: list[ScenarioResult]) -> str:
    if args.format == "json":
        return results_to_json(results) + "\n"
    if args.format == "csv":
        return results_to_csv(results)
    return _result_table(results)


def _mismatch_exit(results: list[ScenarioResult]) -> int:
    """Write each mismatch line to standard error; EXIT_MISMATCH if there was one."""
    lines = [f"mismatch in {r.name!r}: {detail}" for r in results for detail in r.mismatches or ()]
    sys.stderr.write(_text(lines))
    return EXIT_MISMATCH if lines else EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    results = run_table1_suite()
    sys.stdout.write(_results_text(args, results))
    if not args.verify:
        return EXIT_OK
    code = _mismatch_exit(results)
    if code == EXIT_OK:
        _diag(args, "all 9 simulations match their published values")
    return code


def cmd_casestudy(args: argparse.Namespace) -> int:
    result = run_ethereum_case_study(beta=args.beta, gamma=args.gamma)
    if args.format == "table":
        suffix = " [assumed; no measured value exists]" if args.gamma is None else ""
        text = _text(
            [
                _headline(result.prediction),
                f"beta  = {_payoff_text(result.params.beta)}",
                f"gamma = {_payoff_text(result.params.gamma)}{suffix}",
                *_surplus_lines(result.prediction.surplus, SURPLUS_FIELDS[4:]),
                f"historical comparison: {result.status.value}",
                *(f"note: {note}" for note in result.notes),
            ]
        )
    else:
        text = _results_text(args, [result])
    sys.stdout.write(text)
    if args.format == "csv":
        for note in result.notes:
            _diag(args, f"note: {note}")
    return _mismatch_exit([result])


def cmd_run(args: argparse.Namespace) -> int:
    results = [run_scenario(scenario) for scenario in _load(args.scenario_file, load_scenarios)]
    sys.stdout.write(_results_text(args, results))
    for result in results:
        for warning in result.params.warnings:
            _diag(args, f"warning: scenario {result.name!r}: {warning}")
    return _mismatch_exit(results)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
