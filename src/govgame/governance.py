"""Protocol-upgrade governance: parameters, the voting game, and prediction.

A proposal is put to k voters, a share beta of whom vote yes; the
surrounding community of n members then splits, a share gamma moving to
the upgraded chain. The voting game over these shares is built here,
together with the surplus quantities whose signs predict where the
community majority ends up and how likely a lasting chain split is
under each governance mode.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction

from .errors import ValidationError
from .game_core import BimatrixGame
from .rationals import format_rational, parse_rational


class Mode(Enum):
    """How upgrade decisions are governed."""

    NO_GOVERNANCE = "none"
    OFF_CHAIN = "off_chain"
    ON_CHAIN = "on_chain"


class Regime(Enum):
    """Vote outcome classes derived from beta (gamma enters only for unanimity)."""

    UNANIMOUS_ACCEPT = "unanimous_accept"
    MAJORITY_ACCEPT = "majority_accept"
    MAJORITY_REJECT = "majority_reject"
    TIE = "tie"


class Chain(Enum):
    """Destination of the community majority after the decision."""

    UPGRADED = "upgraded"
    ORIGINAL = "original"
    SPLIT_50_50 = "split_50_50"


@functools.total_ordering
class ForkRisk(Enum):
    """Ordinal chain-split risk level: NONE < REDUCED < PRESENT < HIGH.

    The levels are qualitative; no numeric probabilities are attached.
    """

    NONE = "none"
    REDUCED = "reduced"
    PRESENT = "present"
    HIGH = "high"

    @property
    def rank(self) -> int:
        """Position on the ordinal scale, NONE = 0 up to HIGH = 3."""
        return list(ForkRisk).index(self)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, ForkRisk):
            return NotImplemented
        return self.rank < other.rank


# Chain-split risk of every vote that is not unanimous; unanimity has risk NONE.
_FORK_RISK = {
    Mode.NO_GOVERNANCE: ForkRisk.HIGH,
    Mode.OFF_CHAIN: ForkRisk.PRESENT,
    Mode.ON_CHAIN: ForkRisk.REDUCED,
}


def _share(value: object, name: str) -> Fraction:
    share = parse_rational(value, name)
    if not 0 <= share <= 1:
        raise ValidationError(f"{name} out of [0,1]")
    return share


def _positive(value: object, name: str) -> Fraction:
    unit = parse_rational(value, name)
    if unit <= 0:
        raise ValidationError(f"{name} must be positive")
    return unit


@dataclass(frozen=True)
class GovernanceParams:
    """Full parameter set for one governance scenario.

    Attributes:
        beta: proportion of voters voting yes, in [0, 1].
        gamma: proportion of the community moving to the upgraded
            chain, in [0, 1].
        gamma_prime: shifted community proportion after the extra
            consultation round; meaningful only in on_chain mode.
        k: voter count; voters belong to the community, so k <= n.
        n: community size.
        s_v: per-voter payoff unit, positive.
        s_c: per-community-member payoff unit, positive.
        mode: governance mode deciding which evaluation rules apply.
        warnings: non-fatal oddities recorded at construction.
    """

    beta: Fraction
    gamma: Fraction
    gamma_prime: Fraction | None = None
    k: int = 1
    n: int = 1
    s_v: Fraction = Fraction(1)
    s_c: Fraction = Fraction(1)
    mode: Mode = Mode.OFF_CHAIN
    warnings: tuple[str, ...] = field(default=(), init=False)

    def __post_init__(self) -> None:
        beta = _share(self.beta, "beta")
        gamma = _share(self.gamma, "gamma")
        gamma_prime = self.gamma_prime
        if gamma_prime is not None:
            gamma_prime = _share(gamma_prime, "gamma_prime")
        for name, value in (("k", self.k), ("n", self.n)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValidationError(f"{name} must be a positive integer")
        if self.k > self.n:
            raise ValidationError("k must not exceed n")
        s_v = _positive(self.s_v, "s_v")
        s_c = _positive(self.s_c, "s_c")
        if not isinstance(self.mode, Mode):
            raise ValidationError("mode must be a Mode value")
        warnings = []
        if gamma_prime is not None:
            if self.mode is not Mode.ON_CHAIN:
                warnings.append("gamma_prime is only used in on_chain mode")
            elif gamma_prime <= gamma:
                warnings.append(
                    "gamma_prime does not exceed gamma; the consultation round "
                    "is expected to increase the upgraded-chain share"
                )
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "gamma_prime", gamma_prime)
        object.__setattr__(self, "s_v", s_v)
        object.__setattr__(self, "s_c", s_c)
        object.__setattr__(self, "warnings", tuple(warnings))


@dataclass(frozen=True)
class SurplusReport:
    """Payoff masses and oriented surpluses for one scenario.

    s_yes and s_no split the voter mass k*s_v by beta; s_u and s_o split
    the community mass n*s_c by gamma, or by gamma_prime after an
    on-chain rejection's consultation round. One sign sigma orients
    both surpluses, surplus_v = sigma*(s_yes - s_no) and surplus_c =
    sigma*(s_u - s_o): -1 for a rejection outside on_chain mode, toward
    the winning No side, and +1 otherwise. total is their sum.
    """

    s_yes: Fraction
    s_no: Fraction
    s_u: Fraction
    s_o: Fraction
    surplus_v: Fraction
    surplus_c: Fraction
    total: Fraction


# Field names in declaration order; every surplus writer iterates these.
SURPLUS_FIELDS = tuple(spec.name for spec in fields(SurplusReport))


@dataclass(frozen=True)
class PredictionResult:
    """Predicted outcome of one governance scenario."""

    regime: Regime
    majority_chain: Chain
    fork_risk: ForkRisk
    surplus: SurplusReport
    notes: tuple[str, ...] = ()


def build_governance_game(
    beta: Fraction, gamma: Fraction, payoff_v: Fraction, payoff_c: Fraction
) -> BimatrixGame:
    """Build the 2x2 voting game between voters and community.

    Rows are the voter strategies (Yes, No), columns the community
    strategies (Upgraded, Original). The voter side earns beta*payoff_v
    on Yes and (1-beta)*payoff_v on No regardless of the column; the
    community side earns gamma*payoff_c on Upgraded and
    (1-gamma)*payoff_c on Original regardless of the row.
    """
    beta = _share(beta, "beta")
    gamma = _share(gamma, "gamma")
    payoff_v = _positive(payoff_v, "payoff_v")
    payoff_c = _positive(payoff_c, "payoff_c")
    yes = beta * payoff_v
    no = (1 - beta) * payoff_v
    up = gamma * payoff_c
    orig = (1 - gamma) * payoff_c
    return BimatrixGame(
        payoff1=((yes, yes), (no, no)),
        payoff2=((up, orig), (up, orig)),
        row_labels=("Yes", "No"),
        col_labels=("Upgraded", "Original"),
    )


def classify_regime(params: GovernanceParams) -> Regime:
    """Classify the vote outcome by beta.

    Unanimity additionally requires gamma = 1: a vote is only fully
    consensual when the whole community follows it. A unanimous yes
    vote with gamma < 1 classifies as MAJORITY_ACCEPT and is flagged in
    prediction notes.
    """
    half = Fraction(1, 2)
    if params.beta == 1 and params.gamma == 1:
        return Regime.UNANIMOUS_ACCEPT
    if params.beta == half:
        return Regime.TIE
    if params.beta < half:
        return Regime.MAJORITY_REJECT
    return Regime.MAJORITY_ACCEPT


def _orientation(params: GovernanceParams, regime: Regime) -> int:
    """The sign sigma of SurplusReport: -1 for a rejection outside on_chain."""
    if regime is Regime.MAJORITY_REJECT and params.mode is not Mode.ON_CHAIN:
        return -1
    return 1


def _split(share: Fraction, mass: Fraction, sign: int) -> tuple[Fraction, Fraction, Fraction]:
    """share*mass, (1 - share)*mass, and their difference oriented by sign."""
    high = share * mass
    low = (1 - share) * mass
    return high, low, sign * (high - low)


def voter_surplus(params: GovernanceParams) -> Fraction:
    """Oriented voter surplus for the scenario's regime.

    Accept regimes give (2*beta - 1)*k*s_v; a tie gives 0; rejections
    give (1 - 2*beta)*k*s_v except in on_chain mode, where the signed
    (negative) accept-oriented value is kept so it can offset the
    post-consultation community surplus.
    """
    sign = _orientation(params, classify_regime(params))
    return _split(params.beta, params.k * params.s_v, sign)[2]


def community_surplus(params: GovernanceParams) -> Fraction:
    """Oriented community surplus for the scenario's regime.

    Unanimity gives the full mass n*s_c; accept regimes and ties give
    (2*gamma - 1)*n*s_c; rejections give (1 - 2*gamma)*n*s_c except in
    on_chain mode, where the consultation round's gamma_prime replaces
    gamma: (2*gamma_prime - 1)*n*s_c.
    """
    return _report(params, classify_regime(params)).surplus_c


def _report(params: GovernanceParams, regime: Regime) -> SurplusReport:
    share = params.gamma
    if regime is Regime.MAJORITY_REJECT and params.mode is Mode.ON_CHAIN:
        if params.gamma_prime is None:
            raise ValidationError(
                "gamma_prime is required in on_chain mode when the vote rejects"
            )
        share = params.gamma_prime
    sign = _orientation(params, regime)
    s_yes, s_no, surplus_v = _split(params.beta, params.k * params.s_v, sign)
    s_u, s_o, surplus_c = _split(share, params.n * params.s_c, sign)
    return SurplusReport(s_yes, s_no, s_u, s_o, surplus_v, surplus_c, surplus_v + surplus_c)


def _chain_by_sign(value: Fraction) -> Chain:
    """UPGRADED for a positive value, ORIGINAL for a negative one, else a split."""
    if value > 0:
        return Chain.UPGRADED
    if value < 0:
        return Chain.ORIGINAL
    return Chain.SPLIT_50_50


def predict_outcome(
    params: GovernanceParams, tie_break: str | None = None
) -> PredictionResult:
    """Predict regime, majority destination chain, and chain-split risk.

    Args:
        params: scenario parameters.
        tie_break: "accept" or "reject" to force a side when beta is
            exactly 1/2; without it a tie is reported as a 50/50 split
            rather than silently picking a side.

    Returns:
        PredictionResult carrying the surplus report and notes.

    Three rules decide it:
      - risk by mode: unanimity (beta = gamma = 1) has risk NONE; any
        other vote has risk HIGH without governance, PRESENT off-chain
        and REDUCED on-chain, where the consultation round lowers it.
      - destination: unanimity and a majority accept go Upgraded, an
        off-chain rejection Original, and a tie splits 50/50 unless
        tie_break forces the accept or reject rules. Without governance
        the vote does not bind and the sign of gamma - 1/2 decides; in
        an on-chain rejection the consultation round can flip the
        community, so the sign of the total surplus decides. A positive
        sign means Upgraded, a negative one Original, zero a 50/50 split.
      - orientation: one sign orients both surpluses, -1 for a
        rejection outside on_chain mode and +1 otherwise (SurplusReport).
    """
    if tie_break not in (None, "accept", "reject"):
        raise ValidationError("tie_break must be 'accept' or 'reject'")
    regime = classify_regime(params)
    half = Fraction(1, 2)
    notes: list[str] = []
    if (params.beta - half) * (params.gamma - half) < 0:
        notes.append("community majority decided independently of the voter majority")

    if regime is Regime.UNANIMOUS_ACCEPT:
        return PredictionResult(
            regime, Chain.UPGRADED, ForkRisk.NONE, _report(params, regime), tuple(notes)
        )

    risk = _FORK_RISK[params.mode]
    if params.mode is Mode.NO_GOVERNANCE:
        if tie_break is not None:
            notes.append("tie_break has no effect without governance")
        chain = _chain_by_sign(params.gamma - half)
        return PredictionResult(regime, chain, risk, _report(params, regime), tuple(notes))

    effective = regime
    if regime is Regime.TIE and tie_break is None:
        notes.append("tie vote: no majority side; pass tie_break to force accept or reject")
    elif regime is Regime.TIE:
        effective = (
            Regime.MAJORITY_ACCEPT if tie_break == "accept" else Regime.MAJORITY_REJECT
        )
        notes.append(f"tie broken toward {tie_break} by caller flag")
    elif tie_break is not None:
        notes.append("tie_break ignored: the vote is not tied")

    if params.beta == 1 and params.gamma != 1:
        notes.append(
            "unanimous yes vote, but part of the community stays behind (gamma < 1)"
        )

    surplus = _report(params, effective)
    if effective is Regime.TIE:
        chain = Chain.SPLIT_50_50
    elif effective is Regime.MAJORITY_ACCEPT:
        chain = Chain.UPGRADED
    elif params.mode is Mode.OFF_CHAIN:
        chain = Chain.ORIGINAL
    else:
        chain = _chain_by_sign(surplus.total)
        if chain is Chain.SPLIT_50_50:
            notes.append("total surplus is exactly zero: the community splits evenly")
    return PredictionResult(regime, chain, risk, surplus, tuple(notes))


def prediction_to_dict(prediction: PredictionResult) -> dict:
    """JSON-ready mapping with exact "p/q" strings for all rationals."""
    surplus = prediction.surplus
    return {
        "regime": prediction.regime.value,
        "majority_chain": prediction.majority_chain.value,
        "fork_risk": prediction.fork_risk.value,
        "surplus": {
            name: format_rational(getattr(surplus, name)) for name in SURPLUS_FIELDS
        },
        "notes": list(prediction.notes),
    }
