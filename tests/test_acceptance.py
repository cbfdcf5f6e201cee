"""Acceptance gate: the six top-level criteria, each timed and exact.

Each criterion is one test function so a verbose run shows one
pass/fail line per criterion; each also prints a PASS line with its
measured runtime.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from govgame.game_core import (
    BimatrixGame,
    enumerate_mixed_equilibria,
    enumerate_pure_equilibria,
    is_strong_nash,
    pareto_optimal_pure_profiles,
)
from govgame.governance import (
    Chain,
    ForkRisk,
    GovernanceParams,
    Mode,
    Regime,
    classify_regime,
    predict_outcome,
)
from govgame.scenario_runner import (
    CheckStatus,
    run_ethereum_case_study,
    run_table1_suite,
)
from reference_solvers import brute_force_pure, is_nash, payoffs

F = Fraction

TABLE1_PAYOFFS = [
    (F(1), F(1)),
    (F(1), F(1)),
    (F(1), F(1)),
    (F(1), F(1)),
    (F(1, 2), F(1, 2)),
    (F(3, 5), F(7, 10)),
    (F(4, 5), F(3, 5)),
    (F(7, 10), F(4, 5)),
    (F(13, 20), F(18, 25)),
]

TABLE1_INDICATORS = {
    "1": ((F(1), F(0)), (F(1), F(0))),
    "2": ((F(0), F(1)), (F(0), F(1))),
    "3": ((F(1), F(0)), (F(0), F(1))),
    "4": ((F(0), F(1)), (F(1), F(0))),
    "6": ((F(1), F(0)), (F(1), F(0))),
    "7": ((F(0), F(1)), (F(0), F(1))),
    "8": ((F(1), F(0)), (F(0), F(1))),
    "9": ((F(0), F(1)), (F(1), F(0))),
}


def _stamp(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"FAIL: {name} took {elapsed:.2f}s (budget {budget}s)"
    print(f"PASS: {name} in {elapsed:.2f}s (budget {budget}s)")


def _random_fraction(rng: random.Random) -> Fraction:
    return F(rng.randint(-20, 20), rng.randint(1, 10))


def _random_game(rng: random.Random, max_size: int = 4) -> BimatrixGame:
    rows = rng.randint(2, max_size)
    cols = rng.randint(2, max_size)
    return BimatrixGame(
        payoff1=[[_random_fraction(rng) for _ in range(cols)] for _ in range(rows)],
        payoff2=[[_random_fraction(rng) for _ in range(cols)] for _ in range(rows)],
    )


def test_criterion_1_table1_reproduction_exact():
    started = time.perf_counter()
    results = run_table1_suite()
    assert [len(r.equilibria) for r in results] == [1, 1, 1, 1, 4, 1, 1, 1, 1]
    assert all(r.status is CheckStatus.MATCH for r in results)
    for result, want in zip(results, TABLE1_PAYOFFS):
        for eq in result.equilibria:
            assert eq.payoffs == want
    for result in results:
        if result.name in TABLE1_INDICATORS:
            rows, cols = TABLE1_INDICATORS[result.name]
            only = result.equilibria[0]
            assert only.profile.sigma1.probs == rows
            assert only.profile.sigma2.probs == cols
    _stamp("table1 reproduction, exact equality", started, 1.0)


def test_criterion_2_ethereum_case_study():
    started = time.perf_counter()
    rng = random.Random(20260819)
    for gamma in (F(51, 100), F(3, 5), F(7, 10), F(9, 10), F(99, 100)):
        result = run_ethereum_case_study(gamma=gamma)
        assert result.prediction.regime is Regime.MAJORITY_ACCEPT
        assert result.prediction.majority_chain is Chain.UPGRADED
        assert result.prediction.fork_risk is ForkRisk.PRESENT
        assert result.status is CheckStatus.MATCH
    for _ in range(100):
        k = rng.randint(1, 1000)
        n = k + rng.randint(0, 1000)
        s_v = F(rng.randint(1, 50), rng.randint(1, 20))
        params = GovernanceParams(beta=F(27, 50), gamma=F(7, 10), k=k, n=n, s_v=s_v)
        assert predict_outcome(params).surplus.surplus_v == F(2, 25) * k * s_v
    _stamp("case study prediction and voter surplus", started, 1.0)


def test_criterion_3_pure_solver_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(13)
    for _ in range(1000):
        game = _random_game(rng)
        enumerated = [
            (r.profile.sigma1.support[0], r.profile.sigma2.support[0])
            for r in enumerate_pure_equilibria(game)
        ]
        assert enumerated == brute_force_pure(game)
        for result in enumerate_pure_equilibria(game):
            x, y = result.profile.sigma1.probs, result.profile.sigma2.probs
            assert is_nash(game.payoff1, game.payoff2, x, y)
    _stamp("pure solver vs brute force on 1000 games", started, 10.0)


def test_criterion_4_mixed_solver_soundness():
    started = time.perf_counter()
    rng = random.Random(29)
    checked = 0
    while checked < 200:
        game = _random_game(rng, max_size=2)
        results = enumerate_mixed_equilibria(game)
        if any(r.degenerate_game for r in results):
            continue
        checked += 1
        assert results, "a finite 2x2 game must have an equilibrium"
        for result in results:
            x, y = result.profile.sigma1.probs, result.profile.sigma2.probs
            assert is_nash(game.payoff1, game.payoff2, x, y)
            assert result.payoffs == payoffs(game.payoff1, game.payoff2, x, y)
    pennies = BimatrixGame(
        payoff1=[[F(1), F(-1)], [F(-1), F(1)]],
        payoff2=[[F(-1), F(1)], [F(1), F(-1)]],
    )
    only = enumerate_mixed_equilibria(pennies)
    assert len(only) == 1
    assert only[0].profile.sigma1.probs == (F(1, 2), F(1, 2))
    assert only[0].profile.sigma2.probs == (F(1, 2), F(1, 2))
    _stamp("mixed solver soundness on 200 games", started, 5.0)


def test_criterion_5_conservation_and_destination_dichotomy():
    started = time.perf_counter()
    rng = random.Random(47)
    modes = [Mode.NO_GOVERNANCE, Mode.OFF_CHAIN, Mode.ON_CHAIN]
    reject_branch_seen = 0
    for i in range(1000):
        mode = modes[i % 3]
        k = rng.randint(1, 100)
        params = GovernanceParams(
            beta=F(rng.randint(0, 60), 60),
            gamma=F(rng.randint(0, 60), 60),
            gamma_prime=F(rng.randint(0, 60), 60) if mode is Mode.ON_CHAIN else None,
            k=k,
            n=k + rng.randint(0, 100),
            s_v=F(rng.randint(1, 40), rng.randint(1, 12)),
            s_c=F(rng.randint(1, 40), rng.randint(1, 12)),
            mode=mode,
        )
        prediction = predict_outcome(params)
        report = prediction.surplus
        assert report.s_yes + report.s_no == params.k * params.s_v
        assert report.s_u + report.s_o == params.n * params.s_c
        if mode is Mode.ON_CHAIN and classify_regime(params) is Regime.MAJORITY_REJECT:
            reject_branch_seen += 1
            gain = (2 * params.gamma_prime - 1) * params.n * params.s_c
            loss = (1 - 2 * params.beta) * params.k * params.s_v
            if gain > loss:
                assert prediction.majority_chain is Chain.UPGRADED
            elif gain < loss:
                assert prediction.majority_chain is Chain.ORIGINAL
            else:
                assert prediction.majority_chain is Chain.SPLIT_50_50
    assert reject_branch_seen > 50
    _stamp("conservation and destination dichotomy on 1000 parameter sets", started, 5.0)


def _brute_force_frontier(game: BimatrixGame) -> list[tuple[int, int]]:
    """Cells that no other cell Pareto-dominates, by comparing every pair of cells."""
    cells = [(i, j) for i in range(game.rows) for j in range(game.cols)]
    pays = {(i, j): (game.payoff1[i][j], game.payoff2[i][j]) for i, j in cells}
    frontier = []
    for cell in cells:
        u1, u2 = pays[cell]
        if not any(v1 >= u1 and v2 >= u2 and (v1, v2) != (u1, u2) for v1, v2 in pays.values()):
            frontier.append(cell)
    return frontier


def test_criterion_6_strong_nash_and_accept_cell_dominance():
    started = time.perf_counter()
    rng = random.Random(13)
    for _ in range(1000):
        game = _random_game(rng)
        frontier = _brute_force_frontier(game)
        assert pareto_optimal_pure_profiles(game) == frontier
        stable = brute_force_pure(game)
        for i in range(game.rows):
            for j in range(game.cols):
                assert is_strong_nash(game, i, j) == ((i, j) in stable and (i, j) in frontier)
    for _ in range(500):
        beta = F(rng.randint(51, 99), 100)
        gamma = F(rng.randint(51, 99), 100)
        mass_v = F(rng.randint(1, 30), rng.randint(1, 10))
        mass_c = F(rng.randint(1, 30), rng.randint(1, 10))
        comparison = BimatrixGame(
            payoff1=[[beta * mass_v, (1 - beta) * mass_v]],
            payoff2=[[gamma * mass_c, (1 - gamma) * mass_c]],
            col_labels=("B1", "B2"),
        )
        assert _brute_force_frontier(comparison) == [(0, 0)]
        assert pareto_optimal_pure_profiles(comparison) == [(0, 0)]
    _stamp("strong Nash within Pareto frontier, accept cell dominant", started, 5.0)
