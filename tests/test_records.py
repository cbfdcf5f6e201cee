"""Record parity: repr, equality, hashing, immutability, copying and construction.

One representative instance of each of govgame's nine record classes,
built by position and by keyword, with its exact repr.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from govgame import ValidationError
from govgame.game_core import (
    BimatrixGame,
    EquilibriumKind,
    EquilibriumResult,
    MixedStrategy,
    StrategyProfile,
)
from govgame.governance import (
    Chain,
    ForkRisk,
    GovernanceParams,
    Mode,
    PredictionResult,
    Regime,
    SurplusReport,
)
from govgame.scenario_runner import Scenario, ScenarioResult

F = Fraction

GAME_REPR = (
    "BimatrixGame(payoff1=((Fraction(1, 1), Fraction(1, 2)),), "
    "payoff2=((Fraction(0, 1), Fraction(2, 1)),), row_labels=('a',), col_labels=('x', 'y'))"
)
MIX_REPR = "MixedStrategy(probs=(Fraction(1, 3), Fraction(2, 3)))"
PROFILE_REPR = (
    "StrategyProfile(sigma1=MixedStrategy(probs=(Fraction(1, 1),)), "
    "sigma2=MixedStrategy(probs=(Fraction(1, 3), Fraction(2, 3))))"
)
EQUILIBRIUM_REPR = (
    f"EquilibriumResult(profile={PROFILE_REPR}, payoffs=(Fraction(1, 1), Fraction(1, 2)), "
    "kind=<EquilibriumKind.MIXED: 'mixed'>, degenerate_game=True)"
)
PARAMS_REPR = (
    "GovernanceParams(beta=Fraction(1, 5), gamma=Fraction(2, 5), gamma_prime=Fraction(1, 2), "
    "k=3, n=10, s_v=Fraction(2, 1), s_c=Fraction(1, 2), mode=<Mode.OFF_CHAIN: 'off_chain'>, "
    "warnings=('gamma_prime is only used in on_chain mode',))"
)
SURPLUS_REPR = (
    "SurplusReport(s_yes=Fraction(3, 5), s_no=Fraction(2, 5), s_u=Fraction(7, 10), "
    "s_o=Fraction(3, 10), surplus_v=Fraction(1, 5), surplus_c=Fraction(2, 5), total=Fraction(3, 5))"
)
PREDICTION_REPR = (
    "PredictionResult(regime=<Regime.MAJORITY_ACCEPT: 'majority_accept'>, "
    "majority_chain=<Chain.UPGRADED: 'upgraded'>, fork_risk=<ForkRisk.PRESENT: 'present'>, "
    f"surplus={SURPLUS_REPR}, notes=('n',))"
)
SCENARIO_REPR = (
    f"Scenario(name='x', params={PARAMS_REPR}, "
    "expected_equilibria=(('yes', 'upgraded', Fraction(1, 1), Fraction(1, 2)),), "
    "expected_chain=<Chain.UPGRADED: 'upgraded'>)"
)
RESULT_REPR = (
    f"ScenarioResult(name='x', params={PARAMS_REPR}, equilibria=({EQUILIBRIUM_REPR},), "
    f"prediction={PREDICTION_REPR}, mismatches=('m',), notes=('r',))"
)


def _mix():
    return MixedStrategy((F(1, 3), F(2, 3)))


def _profile():
    return StrategyProfile(MixedStrategy((F(1),)), _mix())


def _equilibrium():
    return EquilibriumResult(_profile(), (F(1), F(1, 2)), EquilibriumKind.MIXED, True)


def _params():
    return GovernanceParams("1/5", "2/5", "1/2", 3, 10, 2, "1/2", Mode.OFF_CHAIN)


def _surplus():
    return SurplusReport(F(3, 5), F(2, 5), F(7, 10), F(3, 10), F(1, 5), F(2, 5), F(3, 5))


def _prediction():
    return PredictionResult(
        Regime.MAJORITY_ACCEPT, Chain.UPGRADED, ForkRisk.PRESENT, _surplus(), ("n",)
    )


# Each record: its fields in order, the values to build it from by
# position and by keyword, and its exact repr.
RECORDS = {
    "BimatrixGame": (
        BimatrixGame,
        ("payoff1", "payoff2", "row_labels", "col_labels"),
        lambda: ([[1, "1/2"]], [[0, 2]], ["a"], ["x", "y"]),
        GAME_REPR,
    ),
    "MixedStrategy": (MixedStrategy, ("probs",), lambda: ((F(1, 3), F(2, 3)),), MIX_REPR),
    "StrategyProfile": (
        StrategyProfile,
        ("sigma1", "sigma2"),
        lambda: (MixedStrategy((F(1),)), _mix()),
        PROFILE_REPR,
    ),
    "EquilibriumResult": (
        EquilibriumResult,
        ("profile", "payoffs", "kind", "degenerate_game"),
        lambda: (_profile(), (F(1), F(1, 2)), EquilibriumKind.MIXED, True),
        EQUILIBRIUM_REPR,
    ),
    "GovernanceParams": (
        GovernanceParams,
        ("beta", "gamma", "gamma_prime", "k", "n", "s_v", "s_c", "mode"),
        lambda: ("1/5", "2/5", "1/2", 3, 10, 2, "1/2", Mode.OFF_CHAIN),
        PARAMS_REPR,
    ),
    "SurplusReport": (
        SurplusReport,
        ("s_yes", "s_no", "s_u", "s_o", "surplus_v", "surplus_c", "total"),
        lambda: (F(3, 5), F(2, 5), F(7, 10), F(3, 10), F(1, 5), F(2, 5), F(3, 5)),
        SURPLUS_REPR,
    ),
    "PredictionResult": (
        PredictionResult,
        ("regime", "majority_chain", "fork_risk", "surplus", "notes"),
        lambda: (Regime.MAJORITY_ACCEPT, Chain.UPGRADED, ForkRisk.PRESENT, _surplus(), ("n",)),
        PREDICTION_REPR,
    ),
    "Scenario": (
        Scenario,
        ("name", "params", "expected_equilibria", "expected_chain"),
        lambda: ("x", _params(), [("yes", "upgraded", 1, "1/2")], Chain.UPGRADED),
        SCENARIO_REPR,
    ),
    "ScenarioResult": (
        ScenarioResult,
        ("name", "params", "equilibria", "prediction", "mismatches", "notes"),
        lambda: ("x", _params(), (_equilibrium(),), _prediction(), ("m",), ("r",)),
        RESULT_REPR,
    ),
}

# Every record's stored fields, in repr order: GovernanceParams adds warnings.
STORED = {
    name: fields + ("warnings",) if name == "GovernanceParams" else fields
    for name, (_, fields, _, _) in RECORDS.items()
}


def _build(name: str):
    cls, _, values, _ = RECORDS[name]
    return cls(*values())


@pytest.fixture(params=list(RECORDS))
def name(request):
    return request.param


def test_repr_is_exact(name):
    assert repr(_build(name)) == RECORDS[name][3]


def test_position_and_keyword_build_equal_records(name):
    cls, fields, values, _ = RECORDS[name]
    by_keyword = cls(**dict(zip(fields, values())))
    assert by_keyword == _build(name)
    assert repr(by_keyword) == RECORDS[name][3]


def test_equal_records_are_equal_and_hash_alike(name):
    first, second = _build(name), _build(name)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)


def test_record_differs_from_tuple_and_from_other_classes(name):
    record = _build(name)
    values = tuple(getattr(record, field) for field in STORED[name])
    assert record != values and not record == values
    other = next(key for key in RECORDS if key != name)
    assert record != _build(other)
    cls, _, make, _ = RECORDS[name]
    subclass = type("Sub" + name, (cls,), {})
    assert record != subclass(*make())


def test_fields_cannot_be_assigned_or_deleted(name):
    record = _build(name)
    for field in STORED[name]:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == RECORDS[name][3]


def test_records_are_slotted(name):
    record = _build(name)
    cls = type(record)
    assert not hasattr(record, "__dict__") and not hasattr(record, "__weakref__")
    assert vars(cls)["__slots__"] == cls._fields == STORED[name]
    assert all(vars(base).get("__slots__") == () for base in cls.__mro__[1:-1])
    subclass = type("Sub" + name, (cls,), {})
    twin = subclass._checked(*record._values())
    assert vars(subclass)["__slots__"] == () and not hasattr(twin, "__dict__")
    for each in (record, twin):
        for field in (*STORED[name], "extra"):
            with pytest.raises(AttributeError):
                setattr(each, field, None)
            with pytest.raises(AttributeError):
                delattr(each, field)
        assert each._values() == record._values()


@pytest.mark.parametrize(
    "clone",
    [
        copy.copy,
        copy.deepcopy,
        lambda record: pickle.loads(pickle.dumps(record)),
        lambda record: type(record)._checked(*record._values()),
    ],
    ids=["copy", "deepcopy", "pickle", "checked"],
)
def test_copies_are_equal(name, clone):
    record = _build(name)
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record
    assert hash(twin) == hash(record)
    assert repr(twin) == repr(record)


def test_defaults():
    assert EquilibriumResult(_profile(), (F(1), F(1, 2)), EquilibriumKind.MIXED).degenerate_game is False
    assert PredictionResult(
        Regime.MAJORITY_ACCEPT, Chain.UPGRADED, ForkRisk.PRESENT, _surplus()
    ).notes == ()
    result = ScenarioResult("x", _params(), (), _prediction(), None)
    assert result.notes == ()
    assert result.mismatches is None
    params = GovernanceParams(F(1), F(1))
    assert (params.gamma_prime, params.k, params.n, params.s_v, params.s_c, params.mode) == (
        None, 1, 1, F(1), F(1), Mode.OFF_CHAIN
    )
    assert params.warnings == ()
    scenario = Scenario("x", params)
    assert (scenario.expected_equilibria, scenario.expected_chain) == (None, None)
    game = BimatrixGame([[1]], [[2]])
    assert (game.row_labels, game.col_labels) == (("R1",), ("C1",))


def test_warnings_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        GovernanceParams(F(1), F(1), warnings=())


# The five records that store their arguments as given, with the TypeError
# text of each wrong call: a missing argument, an unknown keyword, a
# repeated argument and one positional argument too many.
PLAIN_CALL_ERRORS = {
    "StrategyProfile": (
        "missing 1 required positional argument: 'sigma1'",
        "takes 3 positional arguments but 4 were given",
    ),
    "EquilibriumResult": (
        "missing 1 required positional argument: 'profile'",
        "takes from 4 to 5 positional arguments but 6 were given",
    ),
    "SurplusReport": (
        "missing 1 required positional argument: 's_yes'",
        "takes 8 positional arguments but 9 were given",
    ),
    "PredictionResult": (
        "missing 1 required positional argument: 'regime'",
        "takes from 5 to 6 positional arguments but 7 were given",
    ),
    "ScenarioResult": (
        "missing 1 required positional argument: 'name'",
        "takes from 6 to 7 positional arguments but 8 were given",
    ),
}

# A call that each validating record rejects.
INVALID_CALLS = {
    "BimatrixGame": lambda cls: cls([[1]], [[1, 2]]),
    "MixedStrategy": lambda cls: cls((F(1, 2),)),
    "GovernanceParams": lambda cls: cls("2", "1/2"),
    "Scenario": lambda cls: cls("", _params()),
}


@pytest.mark.parametrize("name", list(PLAIN_CALL_ERRORS))
def test_plain_record_rejects_wrong_calls(name):
    cls, fields, make, _ = RECORDS[name]
    values = make()
    missing, too_many = PLAIN_CALL_ERRORS[name]
    calls = [
        (lambda: cls(**dict(zip(fields[1:], values[1:]))), missing),
        (lambda: cls(*values, extra=1), "got an unexpected keyword argument 'extra'"),
        (lambda: cls(*values, **{fields[0]: values[0]}), f"got multiple values for argument '{fields[0]}'"),
        (lambda: cls(*values, None), too_many),
    ]
    for call, message in calls:
        with pytest.raises(TypeError) as caught:
            call()
        assert str(caught.value) == f"{name}.__init__() {message}"


@pytest.mark.parametrize("name", list(INVALID_CALLS))
def test_subclass_of_validating_record_still_validates(name):
    cls = RECORDS[name][0]
    with pytest.raises(ValidationError):
        INVALID_CALLS[name](cls)
    with pytest.raises(ValidationError):
        INVALID_CALLS[name](type("Sub", (cls,), {}))
