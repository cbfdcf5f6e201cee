"""Arbitrary input to the file loaders and the CLI is a ValidationError.

Each loader example starts from a valid file, puts an arbitrary JSON
value into one field, and loads the result; it must either load or raise
ValidationError, never any other exception. The CLI examples hand
arbitrary text to `govgame solve` and `govgame run` as their input file.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from govgame.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from govgame.errors import ValidationError
from govgame.game_core import load_game
from govgame.scenario_runner import load_scenarios

# Lone surrogates (category Cs) are valid in JSON text but cannot be
# encoded as UTF-8; the default alphabet never draws them.
CHARACTERS = st.characters() | st.characters(categories=["Cs"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(CHARACTERS, max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(CHARACTERS, max_size=6), children, max_size=3),
    max_leaves=8,
)

SCENARIO = {
    "name": "s",
    "mode": "on_chain",
    "beta": "2/5",
    "gamma": "2/5",
    "gamma_prime": "4/5",
    "k": 2,
    "n": 3,
    "s_v": "1",
    "s_c": "1/2",
    "expected": {
        "equilibria": [{"row": "no", "col": "original", "payoff_v": "6/5", "payoff_c": "9/10"}],
        "majority_chain": "upgraded",
    },
}

# Paths from the scenario object to each field an author can write.
SCENARIO_FIELDS = [(key,) for key in SCENARIO] + [
    ("expected", "equilibria"),
    ("expected", "majority_chain"),
    *(("expected", "equilibria", 0, key) for key in ("row", "col", "payoff_v", "payoff_c")),
]

GAME = {
    "rows": 2,
    "cols": 2,
    "row_labels": ["Yes", "No"],
    "col_labels": ["Upgraded", "Original"],
    "payoff1": [["3/5", "3/5"], ["2/5", "2/5"]],
    "payoff2": [["7/10", "3/10"], ["7/10", "3/10"]],
}

GAME_FIELDS = [(key,) for key in GAME] + [("payoff1", 0), ("payoff2", 1, 0)]


def _replace(document: dict, path: tuple, value: object) -> str:
    document = copy.deepcopy(document)
    target = document
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return json.dumps(document)


def _loads_or_rejects(load, text: str) -> None:
    try:
        load(text)
    except ValidationError:
        pass


def test_fixtures_are_valid():
    load_scenarios(json.dumps({"scenarios": [SCENARIO]}))
    load_game(json.dumps(GAME))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SCENARIO_FIELDS), JSON_VALUES)
def test_scenario_field_values(path, value):
    _loads_or_rejects(load_scenarios, _replace({"scenarios": [SCENARIO]}, ("scenarios", 0, *path), value))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GAME_FIELDS), JSON_VALUES)
def test_game_field_values(path, value):
    _loads_or_rejects(load_game, _replace(GAME, path, value))


@settings(max_examples=50, deadline=None)
@given(JSON_VALUES)
def test_whole_documents(value):
    text = json.dumps(value)
    _loads_or_rejects(load_scenarios, text)
    _loads_or_rejects(load_game, text)
    _loads_or_rejects(load_scenarios, json.dumps({"scenarios": [value]}))


# Arbitrary text, arbitrary JSON documents, and valid files with one field
# replaced, so that examples reach the solver and the writers as well as
# the JSON decoder. Labels of the game's size and arbitrary scenario names
# pass the loaders' shape checks, so their text reaches the writers.
CLI_TEXT = (
    st.text(max_size=40)
    | JSON_VALUES.map(json.dumps)
    | st.builds(_replace, st.just(GAME), st.sampled_from(GAME_FIELDS), JSON_VALUES)
    | st.builds(
        _replace,
        st.just(GAME),
        st.sampled_from([("row_labels",), ("col_labels",)]),
        st.lists(st.text(CHARACTERS, max_size=8), min_size=2, max_size=2),
    )
    | st.builds(
        lambda path, value: _replace({"scenarios": [SCENARIO]}, ("scenarios", 0, *path), value),
        st.sampled_from(SCENARIO_FIELDS),
        JSON_VALUES,
    )
    | st.builds(
        lambda name: _replace({"scenarios": [SCENARIO]}, ("scenarios", 0, "name"), name),
        st.text(CHARACTERS, max_size=8),
    )
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["solve", "run"]), st.sampled_from(["table", "json", "csv"]), CLI_TEXT)
def test_cli_on_arbitrary_file_text(command, fmt, text):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "input.json"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--format", fmt])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_MISMATCH)
    out.getvalue().encode("utf-8")  # raises where a UTF-8 stdout would
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error:")
        assert out.getvalue() == ""
