"""Protocol-upgrade governance: parameters, the voting game, and prediction.

A proposal is put to k voters, a share beta of whom vote yes; the
surrounding community of n members then splits, a share gamma moving to
the upgraded chain. The voting game over these shares is built here,
together with the surplus quantities whose signs predict where the
community majority ends up and how likely a lasting chain split is
under each governance mode. scenario_runner and cli write the records.
"""

from __future__ import annotations

import functools
from enum import Enum
from fractions import Fraction

from .errors import ValidationError
from .game_core import BimatrixGame, _Record, _check_positive_int
from .rationals import parse_rational


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


# The checks and sign rules below read a Fraction's numerator p and denominator
# q > 0, in lowest terms (_difference and _split each pair once, by as_integer_ratio):
# 0 <= p/q <= 1 is 0 <= p <= q, and each sign below is that of an integer numerator
# built from _difference's pairs. Integer arithmetic skips the numbers.Rational check
# that each Fraction operator makes first.


def _share(value: object, name: str) -> Fraction:
    share = parse_rational(value, name)
    if not 0 <= share.numerator <= share.denominator:
        raise ValidationError(f"{name} out of [0,1]")
    return share


def _positive(value: object, name: str) -> Fraction:
    unit = parse_rational(value, name)
    if unit.numerator <= 0:
        raise ValidationError(f"{name} must be positive")
    return unit


def _difference(a: Fraction, b: Fraction) -> tuple[int, int]:
    """a - b as an integer numerator over a positive denominator, not reduced."""
    (p, q), (r, t) = a.as_integer_ratio(), b.as_integer_ratio()
    return p * t - r * q, q * t


def _sign(a: Fraction, b: Fraction) -> int:
    """-1, 0 or 1: the sign of a - b, read off _difference's numerator."""
    excess = _difference(a, b)[0]
    return (excess > 0) - (excess < 0)


_HALF = Fraction(1, 2)


# GovernanceParams' arguments other than mode, in order; the scenario-file and CLI
# readers and the JSON writer of a scenario's parameters iterate these.
_PARAM_KEYS = ("beta", "gamma", "gamma_prime", "k", "n", "s_v", "s_c")


class GovernanceParams(_Record):
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

    The rationals may be given as ints, Fractions or "p/q" strings and
    are stored as Fractions.
    """

    _fields = (*_PARAM_KEYS, "mode", "warnings")

    def __init__(
        self,
        beta: object,
        gamma: object,
        gamma_prime: object = None,
        k: int = 1,
        n: int = 1,
        s_v: object = Fraction(1),
        s_c: object = Fraction(1),
        mode: Mode = Mode.OFF_CHAIN,
    ) -> None:
        beta = _share(beta, "beta")
        gamma = _share(gamma, "gamma")
        if gamma_prime is not None:
            gamma_prime = _share(gamma_prime, "gamma_prime")
        _check_positive_int(k, "k")
        _check_positive_int(n, "n")
        if k > n:
            raise ValidationError("k must not exceed n")
        s_v = _positive(s_v, "s_v")
        s_c = _positive(s_c, "s_c")
        if not isinstance(mode, Mode):
            raise ValidationError("mode must be a Mode value")
        warnings = []
        if gamma_prime is not None:
            if mode is not Mode.ON_CHAIN:
                warnings.append("gamma_prime is only used in on_chain mode")
            elif _sign(gamma_prime, gamma) <= 0:
                warnings.append(
                    "gamma_prime does not exceed gamma; the consultation round "
                    "is expected to increase the upgraded-chain share"
                )
        self._store(beta, gamma, gamma_prime, k, n, s_v, s_c, mode, tuple(warnings))


class SurplusReport(_Record):
    """Payoff masses and oriented surpluses for one scenario.

    s_yes and s_no split the voter mass k*s_v by beta; s_u and s_o split
    the community mass n*s_c by gamma, or by gamma_prime after an
    on-chain rejection's consultation round. Each surplus is the
    difference of one side's two masses, oriented by one sign sigma:
    surplus_v = sigma*(s_yes - s_no) and surplus_c = sigma*(s_u - s_o),
    where sigma is -1 for a rejection outside on_chain mode, toward the
    winning No side, and +1 otherwise. total is their sum.
    """

    _fields = ("s_yes", "s_no", "s_u", "s_o", "surplus_v", "surplus_c", "total")


# Field names in declaration order; every surplus writer iterates these.
SURPLUS_FIELDS = SurplusReport._fields


class PredictionResult(_Record):
    """Predicted outcome of one governance scenario."""

    _fields = ("regime", "majority_chain", "fork_risk", "surplus", "notes")
    _defaults = {"notes": ()}


_VOTE_ROWS = ("Yes", "No")
_VOTE_COLS = ("Upgraded", "Original")


def _split(part: Fraction, count: int, unit: Fraction) -> tuple[Fraction, Fraction]:
    """part and 1 - part of count * unit: the payoff masses of one side of the vote.

    With part = p/q and unit = a/b they are p*count*a / (q*b) and
    (q - p)*count*a / (q*b), each one Fraction of integer products, built
    without the numbers.Rational check each Fraction operator makes first.
    """
    (p, q), (a, b) = part.as_integer_ratio(), unit.as_integer_ratio()
    mass = count * a
    return Fraction(p * mass, q * b), Fraction((q - p) * mass, q * b)


def build_governance_game(params: GovernanceParams) -> BimatrixGame:
    """Build the 2x2 voting game between voters and community.

    Rows are the voter strategies (Yes, No), columns the community
    strategies (Upgraded, Original). The voter side earns s_yes on Yes
    and s_no on No regardless of the column, beta's split of k*s_v; the
    community side earns s_u on Upgraded and s_o on Original regardless
    of the row, gamma's split of n*s_c. The predictor reads the vote's
    signs and SurplusReport's masses off this game.
    """
    s_yes, s_no = _split(params.beta, params.k, params.s_v)
    s_u, s_o = _split(params.gamma, params.n, params.s_c)
    return BimatrixGame._checked(
        ((s_yes, s_yes), (s_no, s_no)), ((s_u, s_o), (s_u, s_o)), _VOTE_ROWS, _VOTE_COLS
    )


# The regime by the sign of beta - 1/2, and the chain by the sign that decides it.
_REGIME_BY_SIGN = {1: Regime.MAJORITY_ACCEPT, 0: Regime.TIE, -1: Regime.MAJORITY_REJECT}
_CHAIN_BY_SIGN = {1: Chain.UPGRADED, 0: Chain.SPLIT_50_50, -1: Chain.ORIGINAL}


def classify_regime(params: GovernanceParams) -> Regime:
    """Classify the vote outcome by beta.

    Unanimity additionally requires gamma = 1: a vote is only fully
    consensual when the whole community follows it. A unanimous yes
    vote with gamma < 1 classifies as MAJORITY_ACCEPT and is flagged in
    prediction notes.
    """
    return _regime(params, _sign(params.beta, _HALF))


def _regime(params: GovernanceParams, sign: int) -> Regime:
    """classify_regime, given the sign of beta - 1/2."""
    return Regime.UNANIMOUS_ACCEPT if params.beta == 1 == params.gamma else _REGIME_BY_SIGN[sign]


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
      - destination, first match wins: unanimity goes Upgraded; without
        governance the vote does not bind and the sign of gamma - 1/2
        decides; a tie splits 50/50 unless tie_break forces the accept
        or reject rules; a majority accept goes Upgraded; an off-chain
        rejection goes Original; in an on-chain rejection the
        consultation round can flip the community, so the sign of the
        total surplus decides. A positive sign means Upgraded, a
        negative one Original, zero a 50/50 split.
      - orientation: one sign orients both surpluses, -1 for a
        rejection outside on_chain mode and +1 otherwise (SurplusReport).
    """
    return _predict(params, tie_break, build_governance_game(params))


def _predict(
    params: GovernanceParams, tie_break: str | None, game: BimatrixGame
) -> PredictionResult:
    """predict_outcome, reading each vote sign and surplus once off params' vote game.

    Each side's masses differ by (2*share - 1) times k*s_v or n*s_c, so the numerators
    of s_yes - s_no and s_u - s_o carry the signs of beta - 1/2 and gamma - 1/2.
    """
    if tie_break not in (None, "accept", "reject"):
        raise ValidationError("tie_break must be 'accept' or 'reject'")
    (s_yes, _), (s_no, _) = game.payoff1
    s_u, s_o = game.payoff2[0]
    (num_v, den_v), (num_c, den_c) = _difference(s_yes, s_no), _difference(s_u, s_o)
    beta_sign, gamma_sign = (num_v > 0) - (num_v < 0), (num_c > 0) - (num_c < 0)
    regime = _regime(params, beta_sign)
    unanimous = regime is Regime.UNANIMOUS_ACCEPT
    governed = params.mode is not Mode.NO_GOVERNANCE
    notes: list[str] = []
    if beta_sign * gamma_sign < 0:
        notes.append("community majority decided independently of the voter majority")
    effective = regime
    if tie_break is None or unanimous:
        pass  # a unanimous vote draws no note on tie_break either
    elif not governed:
        notes.append("tie_break has no effect without governance")
    elif regime is Regime.TIE:
        effective = Regime.MAJORITY_ACCEPT if tie_break == "accept" else Regime.MAJORITY_REJECT
        notes.append(f"tie broken toward {tie_break} by caller flag")
    else:
        notes.append("tie_break ignored: the vote is not tied")

    rejects = effective is Regime.MAJORITY_REJECT
    if rejects and params.mode is Mode.ON_CHAIN:
        if params.gamma_prime is None:
            raise ValidationError("gamma_prime is required in on_chain mode when the vote rejects")
        s_u, s_o = _split(params.gamma_prime, params.n, params.s_c)
        num_c, den_c = _difference(s_u, s_o)
    elif rejects:
        num_v, num_c = -num_v, -num_c
    total = num_v * den_c + num_c * den_v
    surplus = SurplusReport(
        s_yes, s_no, s_u, s_o, Fraction(num_v, den_v), Fraction(num_c, den_c),
        Fraction(total, den_v * den_c),
    )
    if unanimous:
        chain = Chain.UPGRADED
    elif not governed:
        chain = _CHAIN_BY_SIGN[gamma_sign]
    elif effective is Regime.TIE:
        chain = Chain.SPLIT_50_50
        notes.append("tie vote: no majority side; pass tie_break to force accept or reject")
    elif effective is Regime.MAJORITY_ACCEPT:
        chain = Chain.UPGRADED
        if params.beta == 1:  # and gamma < 1, as the vote is not unanimous
            notes.append("unanimous yes vote, but part of the community stays behind (gamma < 1)")
    elif params.mode is Mode.OFF_CHAIN:
        chain = Chain.ORIGINAL
    else:
        chain = _CHAIN_BY_SIGN[(total > 0) - (total < 0)]
        if chain is Chain.SPLIT_50_50:
            notes.append("total surplus is exactly zero: the community splits evenly")
    risk = ForkRisk.NONE if unanimous else _FORK_RISK[params.mode]
    return PredictionResult(regime, chain, risk, surplus, tuple(notes))
