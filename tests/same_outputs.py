"""Hash govgame's outputs over fixed families of inputs, to show they did not change.

A change that must keep every output the same writes the hashes at the
commit before it and checks them after it:

    PYTHONPATH=src python tests/same_outputs.py --write FILE
    PYTHONPATH=src python tests/same_outputs.py --check FILE

Each family is a fixed, seeded list of inputs. Its hash is the SHA-256
of the text written for every input in order: equilibria and
predictions through format_rational, scenario results through
results_to_json and results_to_csv, and the predict command's exit
code, standard output and standard error through govgame.cli.main.
Only load_scenarios_messages hashes reprs, of records, Fractions, enums,
tuples and strings, whose text is the same on every supported Python
version, so the hashes do not depend on it. --check prints one line per family and exits 1 if any
family differs from FILE.

tests/golden/same_outputs.json holds the hashes of the current outputs,
and tests/test_same_outputs.py checks each family against it in the
tier-1 suite. A change that alters an output on purpose rewrites it and
says why.
Only the standard library and govgame's public functions are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from itertools import product

from govgame import (
    BimatrixGame,
    GovernanceParams,
    Mode,
    ValidationError,
    build_governance_game,
    enumerate_mixed_equilibria,
    format_rational,
    load_game,
    load_scenarios,
    predict_outcome,
    results_to_csv,
    results_to_json,
    run_scenario,
)
from govgame.cli import main as cli_main

F = Fraction
SURPLUS = ("s_yes", "s_no", "s_u", "s_o", "surplus_v", "surplus_c", "total")


def _equilibria_text(game: BimatrixGame) -> str:
    lines = []
    for eq in enumerate_mixed_equilibria(game):
        x = " ".join(format_rational(p) for p in eq.profile.sigma1.probs)
        y = " ".join(format_rational(p) for p in eq.profile.sigma2.probs)
        u1, u2 = (format_rational(u) for u in eq.payoffs)
        lines.append(f"{eq.kind.value} {int(eq.degenerate_game)} | {x} | {y} | {u1} {u2}")
    return "\n".join(lines) + "\n\n"


def _games_2x2() -> list[BimatrixGame]:
    """All 6,561 2x2 games with payoffs in {-1, 0, 1}."""
    return [
        BimatrixGame([list(e[0:2]), list(e[2:4])], [list(e[4:6]), list(e[6:8])])
        for e in product((-1, 0, 1), repeat=8)
    ]


def _games_random() -> list[BimatrixGame]:
    """1,080 seeded games, 10 per shape from 1x1 to 6x6 and value set."""
    rng = random.Random(2026)
    draws = (
        lambda: rng.randint(-2, 2),
        lambda: rng.randint(0, 1),
        lambda: F(rng.randint(-20, 20), rng.randint(1, 10)),
    )
    games = []
    for rows, cols, draw in product(range(1, 7), range(1, 7), draws):
        for _ in range(10):
            a = [[draw() for _ in range(cols)] for _ in range(rows)]
            b = [[draw() for _ in range(cols)] for _ in range(rows)]
            games.append(BimatrixGame(a, b))
    return games


def _games_identity_zero() -> list[BimatrixGame]:
    """Identity against all-ones, and all-zero, at sizes 2 to 6."""
    games = []
    for n in range(2, 7):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        games.append(BimatrixGame(identity, [[1] * n] * n))
        games.append(BimatrixGame([[0] * n] * n, [[0] * n] * n))
    return games


def _games_large() -> list[BimatrixGame]:
    """Two seeded generic games per size from 7x7 to 10x10, and identity against all-ones at 7 and 8.

    Walks of this size pivot to the largest integer determinants.
    """
    rng = random.Random(2027)

    def draw(n: int) -> list[list[Fraction]]:
        return [[F(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(n)] for _ in range(n)]

    games = [BimatrixGame(draw(n), draw(n)) for n in range(7, 11) for _ in range(2)]
    for n in (7, 8):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        games.append(BimatrixGame(identity, [[1] * n] * n))
    return games


def _games_larger() -> list[BimatrixGame]:
    """Four seeded generic games per size at 11x11 and 12x12, and identity against all-ones at 11 and 12.

    The largest walks of any family: the most bases, each with the most
    columns whose edge must be told new or already reached.
    """
    rng = random.Random(2029)

    def draw(n: int) -> list[list[Fraction]]:
        return [[F(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(n)] for _ in range(n)]

    games = [BimatrixGame(draw(n), draw(n)) for n in (11, 12) for _ in range(4)]
    for n in (11, 12):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        games.append(BimatrixGame(identity, [[1] * n] * n))
    return games


def _games_ties() -> list[BimatrixGame]:
    """Four seeded games per size from 7x7 to 9x9 over {0, 1} and over {-2..2}, and identity against all-ones at 9.

    Ties put many bases on one vertex, so most of these walks end at
    bases whose every edge leads back to one already found.
    """
    rng = random.Random(2028)
    games = []
    for n, (low, high) in product(range(7, 10), ((0, 1), (-2, 2))):
        for _ in range(4):
            a = [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]
            b = [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]
            games.append(BimatrixGame(a, b))
    identity = [[int(i == j) for j in range(9)] for i in range(9)]
    games.append(BimatrixGame(identity, [[1] * 9] * 9))
    return games


def _games_vote() -> list[BimatrixGame]:
    """The vote games of the W1 grid, beta = b/60 and gamma = g/60, at two k/n pairs."""
    return [
        build_governance_game(
            GovernanceParams(F(b, 60), F(g, 60), k=k, n=n, s_v=s_v, s_c=s_c)
        )
        for k, n, s_v, s_c in ((1, 1, F(1), F(1)), (3, 10, F(2), F(1, 2)))
        for g in range(0, 61, 3)
        for b in range(61)
    ]


def _sweep_text(seed: int) -> str:
    """One W1 grid as a scenario file: three modes, gamma = g/60 for g = 0, 3, ..., 60, beta = b/60.

    k <= n, s_v and s_c are drawn per point; on-chain points carry a
    gamma'; about a quarter carry an expected block, whose random
    entries make both matches and mismatches.
    """
    rng = random.Random(seed)
    chains = ("upgraded", "original", "split_50_50")
    scenarios = []
    for mode in ("none", "off_chain", "on_chain"):
        for g in range(0, 61, 3):
            for b in range(61):
                k = rng.randint(1, 12)
                entry = {
                    "name": f"{mode}-b{b}-g{g}",
                    "mode": mode,
                    "beta": f"{b}/60",
                    "gamma": f"{g}/60",
                    "k": k,
                    "n": rng.randint(k, 40),
                    "s_v": f"{rng.randint(1, 30)}/{rng.randint(1, 12)}",
                    "s_c": f"{rng.randint(1, 30)}/{rng.randint(1, 12)}",
                }
                if mode == "on_chain":
                    entry["gamma_prime"] = f"{rng.randint(0, 60)}/60"
                if rng.random() < 0.25:
                    entry["expected"] = {
                        "equilibria": [
                            {
                                "row": rng.choice(("yes", "no")),
                                "col": rng.choice(("upgraded", "original")),
                                "payoff_v": str(rng.randint(0, 3)),
                                "payoff_c": str(rng.randint(0, 3)),
                            }
                        ],
                        "majority_chain": rng.choice(chains),
                    }
                scenarios.append(entry)
    return json.dumps({"scenarios": scenarios})


def _sweep(seed: int) -> list[str]:
    results = [run_scenario(s) for s in load_scenarios(_sweep_text(seed))]
    return [results_to_json(results), results_to_csv(results)]


def _predictions() -> list[str]:
    """predict_outcome over shares in tenths, every mode, three gamma' and both tie breaks."""
    texts = []
    shares = [F(i, 10) for i in range(11)]
    for mode, beta, gamma, gamma_prime, (k, n), tie_break in product(
        Mode, shares, shares, (None, F(1, 4), F(4, 5)), ((1, 1), (3, 10)), (None, "accept", "reject")
    ):
        try:
            params = GovernanceParams(beta, gamma, gamma_prime, k, n, F(2), F(1, 2), mode)
            p = predict_outcome(params, tie_break)
        except ValidationError as error:
            texts.append(f"error: {error}\n")
            continue
        surplus = " ".join(format_rational(getattr(p.surplus, f)) for f in SURPLUS)
        notes = "; ".join(p.notes)
        texts.append(
            f"{p.regime.value} {p.majority_chain.value} {p.fork_risk.value} | {surplus} | {notes}\n"
        )
    return texts


def _predict_cli() -> list[str]:
    """govgame predict's exit code, stdout and stderr over shares in quarters, in every format."""
    texts = []
    shares = ("0", "1/4", "1/2", "3/4", "1")
    for mode, beta, gamma, gamma_prime, tie_break, fmt in product(
        Mode, shares, shares, (None, "4/5"), (None, "accept"), ("table", "json", "csv")
    ):
        argv = ["predict", "--mode", mode.value, "--beta", beta, "--gamma", gamma, "--format", fmt]
        argv += ["--k", "3", "--n", "10", "--sv", "2", "--sc", "1/2"]
        if gamma_prime is not None:
            argv += ["--gamma-prime", gamma_prime]
        if tie_break is not None:
            argv += ["--tie-break", tie_break]
        texts.append(_cli_text(argv))
    return texts


def _predict_extreme_units() -> list[str]:
    """govgame predict with units far beyond float range, in every mode and format.

    Surpluses and totals of thousands of digits take the large-integer
    path of the sign and difference rules, and a value of more than 4300
    digits ends the table, JSON and CSV writers in an error line.
    """
    texts = []
    units = (("1e4000", "1e-4000"), ("3/7", "1e300"), ("1e-300", "5"))
    for mode, beta, gamma, (s_v, s_c), fmt in product(
        Mode, ("0", "1/3", "1/2", "2/3", "1"), ("0", "1/2", "0.999", "1"), units, ("table", "json", "csv")
    ):
        argv = ["predict", "--mode", mode.value, "--beta", beta, "--gamma", gamma, "--format", fmt]
        argv += ["--gamma-prime", "9/10", "--k", "7", "--n", "99", "--sv", s_v, "--sc", s_c]
        texts.append(_cli_text(argv))
    return texts


def _cli_text(argv: list[str]) -> str:
    """The command line, then govgame.cli.main's exit code, stdout and stderr on it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return f"{' '.join(argv)}\nexit {code}\n{out.getvalue()}--\n{err.getvalue()}--\n"


# Scenario fields with values each of them may reject, and a second value
# for pairs of fields, whose first error in parse order is the one raised.
_FIELDS = ("name", "mode", "beta", "gamma", "gamma_prime", "k", "n", "s_v", "s_c")
_ODD_VALUES = (
    None, "007", "0/5", "5/0", "1/2", 3, 0, "x", "", [], {}, True, "-0", " 1/2 ", "1e5000", "1e-5"
)


def _scenario_files() -> list[str]:
    """Malformed and edge-case scenario files, as text."""
    base = {"beta": "3/5", "gamma": "2/5"}
    entries: list[object] = []
    for mode, field, value in product(("none", "off_chain", "on_chain"), _FIELDS, _ODD_VALUES):
        entries.append({**base, "mode": mode, field: value})
    for i, first in enumerate(_FIELDS):
        for second in _FIELDS[i + 1:]:
            entries += [{**base, first: bad, second: bad} for bad in (None, [])]
    entries += [
        {**base, "zeta": 1, "alpha": 2, "mode2": 3},
        {**base, "Beta": 1, "gammaprime": 2},
        {"gamma": "1"},
        {"beta": "1"},
        {},
        {"zeta": 1},
        [],
        "scenario",
        {**base, "k": None, "n": None, "s_v": None, "s_c": None, "gamma_prime": None},
        {**base, "gamma_prime": None, "mode": "on_chain"},
        {**base, "gamma_prime": "1/5", "mode": "off_chain"},
        {**base, "gamma_prime": "1/5", "mode": "on_chain"},
        {**base, "k": 5, "n": 4},
        {**base, "mode": "OFF_CHAIN"},
        {**base, "mode": "off-chain"},
        {**base, "expected": None},
        {**base, "expected": {}},
        {**base, "expected": []},
        {**base, "expected": {"majority_chain": "upgraded", "zeta": 1, "alpha": 2}},
        {**base, "expected": {"majority_chain": "sideways"}},
        {**base, "expected": {"majority_chain": None}},
        {**base, "expected": {"equilibria": {}}},
        {**base, "expected": {"equilibria": []}},
        {**base, "expected": {"equilibria": [{}]}},
        {**base, "expected": {"equilibria": [{"row": "yes"}]}},
        {**base, "expected": {"equilibria": [{"row": "yes", "payoff_c": "1"}]}},
        {
            **base,
            "expected": {
                "equilibria": [
                    {"row": "yes", "col": "original", "payoff_v": "3/5", "payoff_c": "007"},
                    {"row": "no", "col": "upgraded", "payoff_v": "5/0", "payoff_c": "1"},
                ]
            },
        },
        {
            **base,
            "expected": {
                "equilibria": [
                    {"row": "yes", "col": "original", "payoff_v": "3/5", "payoff_c": "0/5",
                     "zz": 1, "aa": 2}
                ]
            },
        },
        {
            **base,
            "expected": {
                "equilibria": [{"row": "maybe", "col": "up", "payoff_v": "1", "payoff_c": "1"}]
            },
        },
    ]
    files = [json.dumps({"scenarios": [entry]}) for entry in entries]
    files.append(json.dumps({"scenarios": [base, {**base, "name": "b"}, {**base, "beta": "5/0"}]}))
    files += [
        json.dumps({"scenarios": [base], "zeta": 1, "alpha": 2}),
        json.dumps({"scenarios": {}}),
        json.dumps({"scenario": []}),
        json.dumps({}),
        json.dumps([]),
        '{"scenarios": [{"beta": 0.5, "gamma": 1e-2, "k": 2, "n": 3, "s_v": 2.50, "s_c": 1E+1}]}',
        '{"scenarios": [{"beta": 1/2}]}',
        "",
    ]
    return files


def _game_files() -> list[str]:
    """Malformed and edge-case game files, as text."""
    one = {"payoff1": [[1, "1/2"]], "payoff2": [[0, 2]]}
    games: list[object] = [
        one,
        {**one, "zeta": 1, "beta": 2},
        {**one, "Rows": 1, "cols": 2},
        {},
        {"payoff2": [[1]]},
        {"payoff1": [[1]]},
        {"payoff1": [["007", "0/5"]], "payoff2": [["1", "2"]]},
        {"payoff1": [["5/0"]], "payoff2": [["1"]]},
        {"payoff1": [["1e5000"]], "payoff2": [["1"]]},
        {"payoff1": [[None]], "payoff2": [["1"]]},
        {**one, "rows": None, "cols": None},
        {**one, "rows": 2},
        {**one, "cols": "2"},
        {**one, "row_labels": None, "col_labels": ["x"]},
        {**one, "row_labels": ["a"], "col_labels": ["x", 1]},
        {"payoff1": [[1], [2]], "payoff2": [[1]]},
        {"payoff1": [[1, 2], [3]], "payoff2": [[1, 2], [3, 4]]},
        {"payoff1": [], "payoff2": []},
        [],
    ]
    return [json.dumps(game) for game in games] + ['{"payoff1": [[0.1]], "payoff2": [[1e-2]]}']


def _loaded(load, text: str) -> str:
    """The text, then the repr of what load made of it or its ValidationError."""
    try:
        outcome = repr(load(text))
    except ValidationError as error:
        outcome = f"error: {error}"
    return f"{text}\n{outcome}\n"


def _load_messages() -> list[str]:
    """load_scenarios and load_game on malformed and edge-case files."""
    texts = [_loaded(load_scenarios, text) for text in _scenario_files()]
    return texts + [_loaded(load_game, text) for text in _game_files()]


def _solved(games) -> list[str]:
    return [_equilibria_text(game) for game in games]


FAMILIES = {
    "mixed_2x2_minus_one_to_one": lambda: _solved(_games_2x2()),
    "mixed_random_1x1_to_6x6": lambda: _solved(_games_random()),
    "mixed_identity_and_zero_2_to_6": lambda: _solved(_games_identity_zero()),
    "mixed_large_7x7_to_10x10": lambda: _solved(_games_large()),
    "mixed_larger_11x11_and_12x12": lambda: _solved(_games_larger()),
    "mixed_ties_7x7_to_9x9": lambda: _solved(_games_ties()),
    "mixed_vote_games_w1": lambda: _solved(_games_vote()),
    "run_scenario_w1_seed_11": lambda: _sweep(11),
    "run_scenario_w1_seed_12": lambda: _sweep(12),
    "predict_outcome_grid": _predictions,
    "predict_cli_formats": _predict_cli,
    "predict_extreme_units": _predict_extreme_units,
    "load_scenarios_messages": _load_messages,
}


def digest(name: str) -> dict[str, object]:
    """The family's item count and the SHA-256 of its texts in order."""
    items = FAMILIES[name]()
    sha256 = hashlib.sha256("".join(items).encode("utf-8")).hexdigest()
    return {"items": len(items), "sha256": sha256}


def digests() -> dict[str, dict[str, object]]:
    """digest of every family, by name."""
    return {name: digest(name) for name in FAMILIES}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("--write", "--check"):
        print("usage: python tests/same_outputs.py --write FILE | --check FILE", file=sys.stderr)
        return 2
    mode, path = argv
    got = digests()
    if mode == "--write":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(got, indent=2) + "\n")
        return 0
    with open(path, encoding="utf-8") as handle:
        want = json.load(handle)
    differ = False
    for name in sorted(set(want) | set(got)):
        same = want.get(name) == got.get(name)
        differ |= not same
        print(f"{'same' if same else 'DIFFERENT'}  {name}")
    return int(differ)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
