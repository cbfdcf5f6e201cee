"""Seeded inputs for the benchmark's workloads, with their oracle answers.

Every generator takes a random.Random and returns plain data: the text
govgame is given and what the oracles say it must produce. Nothing here
calls govgame.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import oracles

F = Fraction
MODES = ("none", "off_chain", "on_chain")
GAME_SIZES = (2, 3, 4, 5, 6)
GRID_GS = range(0, 61, 3)  # gamma = g/60
# Table 1's nine (beta, gamma) inputs, in the paper's order.
TABLE1 = (
    ("1", "1"), ("0", "0"), ("1", "0"), ("0", "1"), ("1/2", "1/2"),
    ("3/5", "7/10"), ("1/5", "2/5"), ("7/10", "1/5"), ("7/20", "18/25"),
)


@dataclass(frozen=True)
class ScenarioCase:
    """One scenario as written to a file, and the oracle's answer for it."""

    entry: dict
    equilibria: list  # (row, col, payoff_v, payoff_c) in row-major order
    continuum: bool
    prediction: dict


@dataclass(frozen=True)
class GameCase:
    """One game as interchange JSON text, and its extreme equilibria."""

    name: str
    size: int
    payoff1: list
    payoff2: list
    text: str
    extreme: frozenset
    generic: bool


def scenario_case(name, mode, beta, gamma, gamma_prime=None, k=1, n=1, s_v=F(1), s_c=F(1), with_expected=False) -> ScenarioCase:
    """A scenario file entry with the oracle's equilibria and prediction."""
    eqs, continuum = oracles.governance_equilibria(beta, gamma, k * s_v, n * s_c)
    prediction = oracles.predict(mode, beta, gamma, gamma_prime, k, n, s_v, s_c)
    entry = {"name": name, "mode": mode, "beta": str(beta), "gamma": str(gamma)}
    if gamma_prime is not None:
        entry["gamma_prime"] = str(gamma_prime)
    entry.update(k=k, n=n, s_v=str(s_v), s_c=str(s_c))
    if with_expected:
        entry["expected"] = {
            "equilibria": [
                {
                    "row": ("yes", "no")[i],
                    "col": ("upgraded", "original")[j],
                    "payoff_v": str(pv),
                    "payoff_c": str(pc),
                }
                for i, j, pv, pc in eqs
            ],
            "majority_chain": prediction["majority_chain"],
        }
    return ScenarioCase(entry, eqs, continuum, prediction)


def _grid_point(rng: random.Random, mode: str, b: int, g: int, name: str) -> ScenarioCase:
    k = rng.randint(1, 12)
    n = rng.randint(k, 40)
    s_v = F(rng.randint(1, 30), rng.randint(1, 12))
    s_c = F(rng.randint(1, 30), rng.randint(1, 12))
    gamma_prime = F(rng.randint(0, 60), 60) if mode == "on_chain" else None
    return scenario_case(
        name, mode, F(b, 60), F(g, 60), gamma_prime, k, n, s_v, s_c,
        with_expected=rng.random() < 0.25,
    )


def sweep_column(rng: random.Random, mode: str, g: int) -> list[ScenarioCase]:
    """One file of ROADMAP's W1 grid: beta = b/60 for b = 0..60 at gamma = g/60.

    The grid has a file per mode and per g in GRID_GS. k <= n, s_v and
    s_c vary per point, so the payoff denominators vary; on-chain rows
    carry a gamma'; about a quarter of the scenarios carry an expected
    block made by the oracles.
    """
    return [_grid_point(rng, mode, b, g, f"{mode}-b{b}-g{g}") for b in range(61)]


def sample_scenarios(rng: random.Random, count: int) -> list[ScenarioCase]:
    """count points of the W1 grid in random modes, for a small scenario file."""
    return [
        _grid_point(rng, mode, b, g, f"s{i}-{mode}-b{b}-g{g}")
        for i in range(count)
        for mode, b, g in [(rng.choice(MODES), rng.randint(0, 60), rng.choice(GRID_GS))]
    ]


def scenario_text(cases: list[ScenarioCase]) -> str:
    return json.dumps({"scenarios": [c.entry for c in cases]}, indent=1)


def _game(name: str, payoff1: list, payoff2: list) -> GameCase:
    extreme, generic = oracles.extreme_equilibria(payoff1, payoff2)
    size = len(payoff1)
    text = json.dumps(
        {
            "rows": size,
            "cols": size,
            "payoff1": [[str(F(v)) for v in row] for row in payoff1],
            "payoff2": [[str(F(v)) for v in row] for row in payoff2],
        }
    )
    return GameCase(name, size, payoff1, payoff2, text, frozenset(extreme), generic)


def generic_game(rng: random.Random, size: int, name: str) -> GameCase:
    """Payoffs F(-20..20, 1..10), as tests/test_acceptance.py draws them.

    Draws that happen to be degenerate are drawn again, so these games
    have only isolated equilibria and exercise the solver's unique path.
    """
    while True:
        p1 = [[F(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(size)] for _ in range(size)]
        p2 = [[F(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(size)] for _ in range(size)]
        case = _game(name, p1, p2)
        if case.generic:
            return case


def small_integer_game(rng: random.Random, size: int, name: str) -> GameCase:
    """Payoffs in -3..3: the ties make many of these games degenerate."""
    p1 = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
    p2 = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
    return _game(name, p1, p2)


def identity_vs_ones() -> GameCase:
    """The degenerate game whose two mixed extreme equilibria the solver skips."""
    return _game("identity-vs-ones", [[1, 0], [0, 1]], [[1, 1], [1, 1]])
