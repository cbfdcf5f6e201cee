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


_HALF = Fraction(1, 2)

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


_VOTE_ROWS = ("Yes", "No")
_VOTE_COLS = ("Upgraded", "Original")


def _masses(
    params: GovernanceParams, share: Fraction
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """s_yes, s_no, s_u, s_o: beta splits k*s_v, share splits n*s_c."""
    voters = params.k * params.s_v
    community = params.n * params.s_c
    s_yes = params.beta * voters
    s_u = share * community
    return s_yes, voters - s_yes, s_u, community - s_u


def build_governance_game(params: GovernanceParams) -> BimatrixGame:
    """Build the 2x2 voting game between voters and community.

    Rows are the voter strategies (Yes, No), columns the community
    strategies (Upgraded, Original). The voter side earns s_yes on Yes
    and s_no on No regardless of the column; the community side earns
    s_u on Upgraded and s_o on Original regardless of the row. These are
    SurplusReport's masses with the community split by gamma.
    """
    s_yes, s_no, s_u, s_o = _masses(params, params.gamma)
    return BimatrixGame._checked(
        ((s_yes, s_yes), (s_no, s_no)), ((s_u, s_o), (s_u, s_o)), _VOTE_ROWS, _VOTE_COLS
    )


def classify_regime(params: GovernanceParams) -> Regime:
    """Classify the vote outcome by beta.

    Unanimity additionally requires gamma = 1: a vote is only fully
    consensual when the whole community follows it. A unanimous yes
    vote with gamma < 1 classifies as MAJORITY_ACCEPT and is flagged in
    prediction notes.
    """
    if params.beta == 1 and params.gamma == 1:
        return Regime.UNANIMOUS_ACCEPT
    if params.beta == _HALF:
        return Regime.TIE
    if params.beta < _HALF:
        return Regime.MAJORITY_REJECT
    return Regime.MAJORITY_ACCEPT


def _report(params: GovernanceParams, regime: Regime) -> SurplusReport:
    rejects = regime is Regime.MAJORITY_REJECT
    on_chain = params.mode is Mode.ON_CHAIN
    share = params.gamma
    if rejects and on_chain:
        if params.gamma_prime is None:
            raise ValidationError(
                "gamma_prime is required in on_chain mode when the vote rejects"
            )
        share = params.gamma_prime
    s_yes, s_no, s_u, s_o = _masses(params, share)
    if rejects and not on_chain:
        surplus_v, surplus_c = s_no - s_yes, s_o - s_u
    else:
        surplus_v, surplus_c = s_yes - s_no, s_u - s_o
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
    notes: list[str] = []
    if params.beta < _HALF < params.gamma or params.gamma < _HALF < params.beta:
        notes.append("community majority decided independently of the voter majority")

    if regime is Regime.UNANIMOUS_ACCEPT:
        return PredictionResult(
            regime, Chain.UPGRADED, ForkRisk.NONE, _report(params, regime), tuple(notes)
        )

    risk = _FORK_RISK[params.mode]
    if params.mode is Mode.NO_GOVERNANCE:
        if tie_break is not None:
            notes.append("tie_break has no effect without governance")
        chain = _chain_by_sign(params.gamma - _HALF)
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
