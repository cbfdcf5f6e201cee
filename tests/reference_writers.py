"""Reference layouts the tests hold govgame's JSON and CSV writers to.

govgame writes each scenario result, each prediction and the output of
`govgame solve` straight from its records. These builders give the same
data as plain dicts and lists, which json.dumps(..., indent=2) then lays
out; a writer is right when its text equals that dump. Rationals are
written with str(), which is what govgame's format_rational does for
every value short enough to print.
"""

from __future__ import annotations

PARAM_KEYS = ("beta", "gamma", "gamma_prime", "k", "n", "s_v", "s_c")
SURPLUS_KEYS = ("s_yes", "s_no", "s_u", "s_o", "surplus_v", "surplus_c", "total")


def params_dict(params) -> dict:
    """The mode and each set parameter in PARAM_KEYS order: counts as ints, rationals as text."""
    entry: dict = {"mode": params.mode.value}
    for key in PARAM_KEYS:
        value = getattr(params, key)
        if value is not None:
            entry[key] = value if isinstance(value, int) else str(value)
    return entry


def equilibrium_dict(eq) -> dict:
    return {
        "kind": eq.kind.value,
        "degenerate_game": eq.degenerate_game,
        "row_strategy": [str(p) for p in eq.profile.sigma1.probs],
        "col_strategy": [str(p) for p in eq.profile.sigma2.probs],
        "payoff_v": str(eq.payoffs[0]),
        "payoff_c": str(eq.payoffs[1]),
    }


def solve_dict(game, equilibria, degenerate) -> dict:
    """`govgame solve --format json`: degenerate is None when the solve did not check it."""
    return {
        "row_labels": list(game.row_labels),
        "col_labels": list(game.col_labels),
        "degenerate_game": degenerate,
        "equilibria": [
            {
                "kind": eq.kind.value,
                "row_strategy": [str(p) for p in eq.profile.sigma1.probs],
                "col_strategy": [str(p) for p in eq.profile.sigma2.probs],
                "payoff1": str(eq.payoffs[0]),
                "payoff2": str(eq.payoffs[1]),
            }
            for eq in equilibria
        ],
    }


def prediction_dict(prediction) -> dict:
    surplus = prediction.surplus
    return {
        "regime": prediction.regime.value,
        "majority_chain": prediction.majority_chain.value,
        "fork_risk": prediction.fork_risk.value,
        "surplus": {name: str(getattr(surplus, name)) for name in SURPLUS_KEYS},
        "notes": list(prediction.notes),
    }


def result_dict(result) -> dict:
    return {
        "name": result.name,
        "params": params_dict(result.params),
        "equilibria": [equilibrium_dict(eq) for eq in result.equilibria],
        "prediction": prediction_dict(result.prediction),
        "expectation_check": {
            "status": result.status.value,
            "details": list(result.mismatches or ()),
        },
        "notes": list(result.notes),
    }


def prediction_csv_rows(prediction) -> list[list[str]]:
    """`govgame predict --format csv`: a header and one row, the surplus fields after the enums."""
    entry = prediction_dict(prediction)
    row = {key: entry[key] for key in ("regime", "majority_chain", "fork_risk")}
    row.update(entry["surplus"])
    return [list(row), list(row.values())]
