"""Layer spans for the traced run, recorded from the benchmark's side.

Each layer's public function is replaced, in every module that calls it,
by a wrapper that records one span per call: the span that called it,
the operation it served, its layer, start and end, and a size (equilibria
returned, scenarios parsed or emitted). A function a later change deletes
is listed as absent and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from typing import Callable

# layer -> the names it is called by. "rationals" has no entry of its own:
# parse_rational is called per entry and per probability from every
# layer, so its cost stays in the self time of the layer that calls it.
LAYERS = {
    "parse.scenario": ("govgame.scenario_runner.load_scenarios", "govgame.cli.load_scenarios"),
    "parse.game": ("govgame.game_core.load_game", "govgame.cli.load_game"),
    "build": ("govgame.scenario_runner.build_governance_game",),
    "solve": (
        "govgame.game_core.enumerate_mixed_equilibria",
        "govgame.scenario_runner.enumerate_mixed_equilibria",
        "govgame.cli.enumerate_mixed_equilibria",
    ),
    "solve.linsolve": ("govgame.game_core.solve_linear_system",),
    "solve.check": ("govgame.game_core.is_equilibrium",),
    "predict": ("govgame.scenario_runner.predict_outcome", "govgame.cli.predict_outcome"),
    "run": ("govgame.scenario_runner.run_scenario", "govgame.cli.run_scenario"),
    "emit.json": ("govgame.scenario_runner.results_to_json", "govgame.cli.results_to_json"),
    "emit.csv": ("govgame.scenario_runner.results_to_csv", "govgame.cli.results_to_csv"),
    "cli.parser": ("govgame.cli.build_parser",),
    "cli.main": ("govgame.cli.main",),
}

_SIZE = {
    "solve": lambda args, result: len(result),
    "parse.scenario": lambda args, result: len(result),
    "emit.json": lambda args, result: len(args[0]),
    "emit.csv": lambda args, result: len(args[0]),
}


class Tracer:
    """Installs the layer wrappers and keeps every span in memory."""

    def __init__(self) -> None:
        # (span id, parent id or -1, operation, layer, start, end, size)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.operation = ""
        self._open: list[int] = []  # ids of the calls in progress
        self._saved: list[tuple] = []

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    if target not in self.absent:
                        self.absent.append(target)
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, layer: str, fn):
        size_of = _SIZE.get(layer)
        spans, open_calls = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) + len(open_calls)
            parent = open_calls[-1] if open_calls else -1
            open_calls.append(span_id)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                open_calls.pop()
                size = size_of(args, result) if size_of and result is not None else 0
                spans.append((span_id, parent, self.operation, layer, start, end, size))

        return traced

    def totals(
        self, duration: Callable[[float, float], float], keep: Callable[[str], bool] = lambda op: True
    ) -> dict[str, dict[str, float]]:
        """Per layer: calls, summed duration, summed self time, summed size.

        duration(start, end) gives a span's time; a span's self time is its
        time minus that of the spans it called. Only the spans of the
        operations that keep(operation) accepts are counted.
        """
        times = {span[0]: duration(span[4], span[5]) for span in self.spans}
        children: dict[int, float] = {}
        for span_id, parent, *_ in self.spans:
            children[parent] = children.get(parent, 0.0) + times[span_id]
        out = {layer: {"calls": 0, "time": 0.0, "self": 0.0, "size": 0} for layer in LAYERS}
        for span_id, _, operation, layer, _, _, size in self.spans:
            if not keep(operation):
                continue
            entry = out[layer]
            entry["calls"] += 1
            entry["time"] += times[span_id]
            entry["self"] += times[span_id] - children.get(span_id, 0.0)
            entry["size"] += size
        return out
