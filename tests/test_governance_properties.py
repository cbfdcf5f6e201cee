"""Property tests for surplus arithmetic and prediction rules."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from govgame.game_core import (
    BimatrixGame,
    EquilibriumKind,
    enumerate_mixed_equilibria,
    enumerate_pure_equilibria,
    pareto_optimal_pure_profiles,
)
from govgame.governance import (
    Chain,
    ForkRisk,
    GovernanceParams,
    Mode,
    Regime,
    build_governance_game,
    classify_regime,
    predict_outcome,
)

F = Fraction
HALF = F(1, 2)

unit = st.fractions(min_value=F(0), max_value=F(1), max_denominator=30)
positive = st.fractions(min_value=F(1, 10), max_value=F(10), max_denominator=12)
modes = st.sampled_from(list(Mode))
tie_breaks = st.sampled_from([None, "accept", "reject"])
# Risk of every vote that is not unanimous; unanimity has risk NONE.
RISK_BY_MODE = {
    Mode.NO_GOVERNANCE: ForkRisk.HIGH,
    Mode.OFF_CHAIN: ForkRisk.PRESENT,
    Mode.ON_CHAIN: ForkRisk.REDUCED,
}


@st.composite
def governance_params(draw, betas=unit):
    beta = draw(betas)
    gamma = draw(unit)
    mode = draw(modes)
    gamma_prime = draw(unit) if mode is Mode.ON_CHAIN else None
    k = draw(st.integers(min_value=1, max_value=50))
    n = draw(st.integers(min_value=k, max_value=100))
    return GovernanceParams(
        beta=beta,
        gamma=gamma,
        gamma_prime=gamma_prime,
        k=k,
        n=n,
        s_v=draw(positive),
        s_c=draw(positive),
        mode=mode,
    )


@settings(max_examples=200)
@given(governance_params())
def test_mass_conservation(params):
    prediction = predict_outcome(params)
    report = prediction.surplus
    assert report.s_yes + report.s_no == params.k * params.s_v
    assert report.s_u + report.s_o == params.n * params.s_c
    assert report.total == report.surplus_v + report.surplus_c
    # One sign orients both surpluses: -1 for a rejection outside on_chain.
    rejects = prediction.regime is Regime.MAJORITY_REJECT
    sign = -1 if rejects and params.mode is not Mode.ON_CHAIN else 1
    assert report.surplus_v == sign * (report.s_yes - report.s_no)
    assert report.surplus_c == sign * (report.s_u - report.s_o)


@given(
    st.fractions(min_value=F(51, 100), max_value=F(99, 100), max_denominator=100),
    unit,
    st.integers(min_value=1, max_value=50),
    positive,
)
def test_accept_voter_surplus_positive(beta, gamma, k, s_v):
    params = GovernanceParams(beta=beta, gamma=gamma, k=k, n=k, s_v=s_v)
    assert predict_outcome(params).surplus.surplus_v > 0


@given(
    st.fractions(min_value=F(0), max_value=F(49, 100), max_denominator=100),
    unit,
)
def test_off_chain_reject_voter_surplus_positive(beta, gamma):
    params = GovernanceParams(beta=beta, gamma=gamma, mode=Mode.OFF_CHAIN)
    assert predict_outcome(params).surplus.surplus_v > 0


@given(
    st.fractions(min_value=F(51, 100), max_value=F(99, 100), max_denominator=100),
    st.fractions(min_value=F(51, 100), max_value=F(99, 100), max_denominator=100),
)
def test_accept_community_surplus_positive(beta, gamma):
    params = GovernanceParams(beta=beta, gamma=gamma)
    assert predict_outcome(params).surplus.surplus_c > 0


@settings(max_examples=200)
@given(
    st.fractions(min_value=F(0), max_value=F(49, 100), max_denominator=100),
    unit,
    unit,
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=80),
    positive,
    positive,
)
def test_on_chain_reject_destination_dichotomy(beta, gamma, gamma_prime, k, extra, s_v, s_c):
    params = GovernanceParams(
        beta=beta,
        gamma=gamma,
        gamma_prime=gamma_prime,
        k=k,
        n=k + extra,
        s_v=s_v,
        s_c=s_c,
        mode=Mode.ON_CHAIN,
    )
    prediction = predict_outcome(params)
    community_gain = (2 * gamma_prime - 1) * params.n * s_c
    voter_loss = (1 - 2 * beta) * k * s_v
    if community_gain > voter_loss:
        assert prediction.majority_chain is Chain.UPGRADED
    elif community_gain < voter_loss:
        assert prediction.majority_chain is Chain.ORIGINAL
    else:
        assert prediction.majority_chain is Chain.SPLIT_50_50


@given(
    st.fractions(min_value=F(51, 100), max_value=F(99, 100), max_denominator=100),
    st.fractions(min_value=F(51, 100), max_value=F(99, 100), max_denominator=100),
    positive,
    positive,
)
def test_accept_cell_pareto_dominates_reject_cell(beta, gamma, mass_v, mass_c):
    comparison = BimatrixGame(
        payoff1=[[beta * mass_v, (1 - beta) * mass_v]],
        payoff2=[[gamma * mass_c, (1 - gamma) * mass_c]],
        col_labels=("B1", "B2"),
    )
    assert pareto_optimal_pure_profiles(comparison) == [(0, 0)]


@settings(max_examples=150)
@given(governance_params(), positive)
def test_scale_equivariance_voter_side(params, factor):
    scaled = GovernanceParams(
        beta=params.beta,
        gamma=params.gamma,
        gamma_prime=params.gamma_prime,
        k=params.k,
        n=params.n,
        s_v=params.s_v * factor,
        s_c=params.s_c,
        mode=params.mode,
    )
    base = predict_outcome(params).surplus
    same = predict_outcome(scaled).surplus
    assert same.surplus_v == factor * base.surplus_v
    assert same.surplus_c == base.surplus_c
    assert classify_regime(scaled) is classify_regime(params)


@settings(max_examples=150)
@given(governance_params(), positive)
def test_joint_scaling_never_changes_prediction(params, factor):
    # Scaling both units by the same factor cannot flip any sign, so
    # the prediction is invariant even in the on-chain reject branch.
    scaled = GovernanceParams(
        beta=params.beta,
        gamma=params.gamma,
        gamma_prime=params.gamma_prime,
        k=params.k,
        n=params.n,
        s_v=params.s_v * factor,
        s_c=params.s_c * factor,
        mode=params.mode,
    )
    base = predict_outcome(params)
    same = predict_outcome(scaled)
    assert same.regime is base.regime
    assert same.majority_chain is base.majority_chain
    assert same.fork_risk is base.fork_risk
    assert same.surplus.total == factor * base.surplus.total


@settings(max_examples=150)
@given(governance_params(), positive)
def test_single_scale_fixed_outside_on_chain_reject(params, factor):
    regime = classify_regime(params)
    if params.mode is Mode.ON_CHAIN and regime is Regime.MAJORITY_REJECT:
        return
    scaled = GovernanceParams(
        beta=params.beta,
        gamma=params.gamma,
        gamma_prime=params.gamma_prime,
        k=params.k,
        n=params.n,
        s_v=params.s_v * factor,
        s_c=params.s_c,
        mode=params.mode,
    )
    base = predict_outcome(params)
    same = predict_outcome(scaled)
    assert same.majority_chain is base.majority_chain
    assert same.fork_risk is base.fork_risk


@given(
    unit.filter(lambda b: b != HALF),
    unit.filter(lambda g: g != HALF),
)
def test_equilibrium_column_matches_prediction_when_aligned(beta, gamma):
    # With aligned majorities under off-chain rules, the unique pure
    # equilibrium's column is the predicted destination chain.
    if (beta > HALF) != (gamma > HALF):
        return
    params = GovernanceParams(beta=beta, gamma=gamma, mode=Mode.OFF_CHAIN)
    game = BimatrixGame(
        payoff1=[[beta, beta], [1 - beta, 1 - beta]],
        payoff2=[[gamma, 1 - gamma], [gamma, 1 - gamma]],
        row_labels=("Yes", "No"),
        col_labels=("Upgraded", "Original"),
    )
    results = enumerate_pure_equilibria(game)
    assert len(results) == 1
    column = results[0].profile.sigma2.support[0]
    predicted = predict_outcome(params).majority_chain
    assert predicted is (Chain.UPGRADED if column == 0 else Chain.ORIGINAL)


@settings(max_examples=200)
@given(st.one_of(st.just(HALF), unit), st.one_of(st.just(HALF), unit), positive, positive)
def test_vote_game_is_dominance_solvable_unless_a_share_is_half(beta, gamma, payoff_v, payoff_c):
    # Neither side's payoff depends on the other's move, so a share off
    # 1/2 makes that side's better move strictly dominant.
    params = GovernanceParams(beta=beta, gamma=gamma, s_v=payoff_v, s_c=payoff_c)
    results = enumerate_mixed_equilibria(build_governance_game(params))
    assert all(r.kind is EquilibriumKind.PURE for r in results)
    cells = [(r.profile.sigma1.support[0], r.profile.sigma2.support[0]) for r in results]
    rows = [0, 1] if beta == HALF else [0 if beta > HALF else 1]
    cols = [0, 1] if gamma == HALF else [0 if gamma > HALF else 1]
    assert cells == [(i, j) for i in rows for j in cols]
    assert all(r.degenerate_game == (len(cells) > 1) for r in results)


@settings(max_examples=200)
@given(governance_params(betas=st.one_of(st.just(HALF), unit)))
def test_vote_game_entries_are_the_surplus_masses(params):
    game = build_governance_game(params)
    # The trusted constructor builds what the validating one would.
    assert game == BimatrixGame(game.payoff1, game.payoff2, game.row_labels, game.col_labels)
    assert all(type(v) is F for matrix in (game.payoff1, game.payoff2) for row in matrix for v in row)
    report = predict_outcome(params).surplus
    s_u, s_o = report.s_u, report.s_o
    if params.mode is Mode.ON_CHAIN and classify_regime(params) is Regime.MAJORITY_REJECT:
        # The report splits the community by gamma_prime, the game by gamma.
        community = params.n * params.s_c
        assert s_u == params.gamma_prime * community
        s_u = params.gamma * community
        s_o = community - s_u
    assert game.payoff1 == ((report.s_yes,) * 2, (report.s_no,) * 2)
    assert game.payoff2 == ((s_u, s_o),) * 2


@settings(max_examples=100)
@given(governance_params())
def test_fork_risk_none_iff_unanimity(params):
    prediction = predict_outcome(params)
    assert (prediction.fork_risk is ForkRisk.NONE) == (
        prediction.regime is Regime.UNANIMOUS_ACCEPT
    )


@settings(max_examples=200)
@given(governance_params(betas=st.one_of(st.just(HALF), unit)), tie_breaks)
def test_fork_risk_by_mode(params, tie_break):
    prediction = predict_outcome(params, tie_break)
    if prediction.regime is Regime.UNANIMOUS_ACCEPT:
        assert prediction.fork_risk is ForkRisk.NONE
    else:
        assert prediction.fork_risk is RISK_BY_MODE[params.mode]
