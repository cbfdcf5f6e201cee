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
    PredictionResult,
    Regime,
    SurplusReport,
    build_governance_game,
    _difference,
    _sign,
    classify_regime,
    predict_outcome,
)
from govgame.scenario_runner import Scenario, run_scenario

F = Fraction
HALF = F(1, 2)

unit = st.fractions(min_value=F(0), max_value=F(1), max_denominator=30)
positive = st.fractions(min_value=F(1, 10), max_value=F(10), max_denominator=12)
# Shares and payoff units with large numerators and denominators, and the
# shares' end points exactly.
wide_unit = st.one_of(
    st.just(F(0)),
    st.just(F(1)),
    unit,
    st.fractions(min_value=F(0), max_value=F(1), max_denominator=10**12),
)
wide_positive = st.one_of(
    positive,
    st.fractions(min_value=F(1, 10**12), max_value=F(10**12), max_denominator=10**12),
)
modes = st.sampled_from(list(Mode))
tie_breaks = st.sampled_from([None, "accept", "reject"])
# Risk of every vote that is not unanimous; unanimity has risk NONE.
RISK_BY_MODE = {
    Mode.NO_GOVERNANCE: ForkRisk.HIGH,
    Mode.OFF_CHAIN: ForkRisk.PRESENT,
    Mode.ON_CHAIN: ForkRisk.REDUCED,
}


@st.composite
def governance_params(draw, betas=unit, shares=unit, units=positive, modes=modes):
    beta = draw(betas)
    gamma = draw(shares)
    mode = draw(modes)
    gamma_prime = draw(shares) if mode is Mode.ON_CHAIN else None
    k = draw(st.integers(min_value=1, max_value=50))
    n = draw(st.integers(min_value=k, max_value=100))
    return GovernanceParams(
        beta=beta,
        gamma=gamma,
        gamma_prime=gamma_prime,
        k=k,
        n=n,
        s_v=draw(units),
        s_c=draw(units),
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


def _operator_masses(params: GovernanceParams, share: F) -> tuple[F, F, F, F]:
    """s_yes, s_no, s_u, s_o by the Fraction operators, the formula the masses follow."""
    voters = params.k * params.s_v
    community = params.n * params.s_c
    s_yes = params.beta * voters
    s_u = share * community
    return s_yes, voters - s_yes, s_u, community - s_u


def _operator_report(params: GovernanceParams, effective: Regime) -> SurplusReport:
    """The surplus report by the Fraction operators, from the masses' formula."""
    rejects = effective is Regime.MAJORITY_REJECT
    on_chain = params.mode is Mode.ON_CHAIN
    share = params.gamma_prime if rejects and on_chain else params.gamma
    s_yes, s_no, s_u, s_o = _operator_masses(params, share)
    sign = -1 if rejects and not on_chain else 1
    surplus_v, surplus_c = sign * (s_yes - s_no), sign * (s_u - s_o)
    return SurplusReport(s_yes, s_no, s_u, s_o, surplus_v, surplus_c, surplus_v + surplus_c)


def _operator_chain(value: F) -> Chain:
    return Chain.UPGRADED if value > 0 else Chain.ORIGINAL if value < 0 else Chain.SPLIT_50_50


def _operator_prediction(params: GovernanceParams, tie_break) -> PredictionResult:
    """predict_outcome's documented rules, by Fraction operators and comparisons."""
    beta, gamma, mode = params.beta, params.gamma, params.mode
    governed = mode is not Mode.NO_GOVERNANCE
    unanimous = beta == 1 and gamma == 1
    if unanimous:
        regime = Regime.UNANIMOUS_ACCEPT
    elif beta == HALF:
        regime = Regime.TIE
    else:
        regime = Regime.MAJORITY_ACCEPT if beta > HALF else Regime.MAJORITY_REJECT
    notes = []
    if beta < HALF < gamma or gamma < HALF < beta:
        notes.append("community majority decided independently of the voter majority")
    effective = regime
    if not unanimous and tie_break is not None:
        if not governed:
            notes.append("tie_break has no effect without governance")
        elif regime is Regime.TIE:
            effective = Regime[f"MAJORITY_{tie_break.upper()}"]
            notes.append(f"tie broken toward {tie_break} by caller flag")
        else:
            notes.append("tie_break ignored: the vote is not tied")
    elif governed and regime is Regime.TIE:
        notes.append("tie vote: no majority side; pass tie_break to force accept or reject")
    if governed and beta == 1 and gamma < 1:
        notes.append("unanimous yes vote, but part of the community stays behind (gamma < 1)")
    report = _operator_report(params, effective)
    if unanimous or (governed and effective is Regime.MAJORITY_ACCEPT):
        chain = Chain.UPGRADED
    elif not governed:
        chain = _operator_chain(gamma - HALF)
    elif effective is Regime.TIE:
        chain = Chain.SPLIT_50_50
    elif mode is Mode.OFF_CHAIN:
        chain = Chain.ORIGINAL
    else:
        chain = _operator_chain(report.total)
        if report.total == 0:
            notes.append("total surplus is exactly zero: the community splits evenly")
    risk = ForkRisk.NONE if unanimous else RISK_BY_MODE[mode]
    return PredictionResult(regime, chain, risk, report, tuple(notes))


wide_shares = st.one_of(st.just(HALF), wide_unit)
wide_params = governance_params(betas=wide_shares, shares=wide_shares, units=wide_positive)


@settings(max_examples=300)
@given(governance_params(betas=wide_shares, shares=wide_unit, units=wide_positive))
def test_vote_game_entries_are_the_surplus_masses(params):
    game = build_governance_game(params)
    # The trusted constructor builds what the validating one would.
    assert game == BimatrixGame(game.payoff1, game.payoff2, game.row_labels, game.col_labels)
    assert all(type(v) is F for matrix in (game.payoff1, game.payoff2) for row in matrix for v in row)
    report = predict_outcome(params).surplus
    share = params.gamma
    if params.mode is Mode.ON_CHAIN and classify_regime(params) is Regime.MAJORITY_REJECT:
        # The report splits the community by gamma_prime, the game by gamma.
        share = params.gamma_prime
    expected = _operator_masses(params, params.gamma)
    s_yes, s_no, s_u, s_o = expected
    assert game.payoff1 == ((s_yes,) * 2, (s_no,) * 2)
    assert game.payoff2 == ((s_u, s_o),) * 2
    # The repr also pins the type and the lowest terms of each mass.
    masses = (game.payoff1[0][0], game.payoff1[1][0], game.payoff2[0][0], game.payoff2[0][1])
    assert repr(masses) == repr(expected)
    masses = (report.s_yes, report.s_no, report.s_u, report.s_o)
    assert repr(masses) == repr(_operator_masses(params, share))


@settings(max_examples=400)
@given(wide_params, tie_breaks)
def test_prediction_matches_the_operator_reference(params, tie_break):
    # The predictor decides from integer numerators and denominators; the
    # reference compares and combines Fractions. The repr pins every field,
    # the type and lowest terms of each surplus and the order of the notes.
    assert repr(predict_outcome(params, tie_break)) == repr(_operator_prediction(params, tie_break))


# On-chain rejections, whose report re-splits the community by gamma_prime and
# so cannot reuse the vote game's community masses.
on_chain_rejections = governance_params(
    betas=st.one_of(st.just(F(0)), st.fractions(min_value=F(0), max_value=F(49, 100))),
    shares=wide_shares,
    units=wide_positive,
    modes=st.just(Mode.ON_CHAIN),
).filter(lambda params: params.gamma_prime != params.gamma)


@settings(max_examples=300)
@given(st.one_of(wide_params, on_chain_rejections))
def test_run_scenario_predicts_as_predict_outcome(params):
    # run_scenario hands the solved vote game to the predictor, and
    # predict_outcome builds the same game, so both share one code path; the
    # operator reference, which uses only Fraction operators, is independent.
    prediction = run_scenario(Scenario("s", params)).prediction
    expected = predict_outcome(params)
    assert prediction == expected
    assert repr(prediction) == repr(expected)
    assert repr(prediction) == repr(_operator_prediction(params, None))


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


# Signed rationals for the difference rule: zero, small values, and numerators
# and denominators of up to 300 digits.
BIG = 10**300
signed = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=F(-50), max_value=F(50), max_denominator=30),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@settings(max_examples=400)
@given(signed, st.one_of(signed, st.just(None)))
def test_difference_is_a_minus_b_over_a_positive_denominator(a, b):
    b = a if b is None else b  # None draws the equal pair
    num, den = _difference(a, b)
    assert type(num) is int and type(den) is int
    assert den > 0
    assert F(num, den) == a - b
    assert (num > 0) - (num < 0) == (a > b) - (a < b) == _sign(a, b)


@settings(max_examples=200)
@given(st.fractions(min_value=F(1, 10**6), max_value=F(1) - F(1, 10**6), max_denominator=10**6))
def test_gamma_prime_warning_at_its_boundary(gamma):
    # The consultation round is expected to raise the share: gamma_prime
    # equal to gamma, or just below it, warns; just above it does not.
    expected = "gamma_prime does not exceed gamma"
    for step, warns in ((F(0), True), (F(1, BIG), False), (F(-1, BIG), True)):
        gamma_prime = gamma + step
        num, _ = _difference(gamma_prime, gamma)
        assert (num <= 0) == warns
        params = GovernanceParams(gamma, gamma, gamma_prime, mode=Mode.ON_CHAIN)
        assert any(w.startswith(expected) for w in params.warnings) == warns
