"""Benchmark govgame end to end and layer by layer.

    python3 bench/run.py --workload {sweep,games,cli} --seed N --seconds S --trace {0,1}

Run from the repository root (the script finds src/ next to bench/). It
drives govgame only through its public functions and its command-line
entry point, checks every output against the oracles in oracles.py and
prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. README.md in this directory says
what each workload and metric is.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
import inputs
import oracles
from clock import SpeedClock
from layers import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("sweep", "games", "cli")
MIN_ROUNDS = 2
# Repeats of one input within a round, spread through it, so that cheap
# inputs give as many samples as the slow ones.
GAME_REPEATS = {2: 6, 3: 4, 4: 2, 5: 1, 6: 1}
PROBE_REPEATS = 4  # for the sweep files and CLI invocations of the probes
SETUP_REPEATS = 5
RUN_CAP_S = 130  # start no round after this, so that a run ends well within 180 s
CHILD_TIMEOUT_S = 60
CLI_CODE = "import sys; from govgame.cli import main; sys.exit(main())"
# Inputs that do not depend on --seed: the probes every workload carries so
# that it reports every metric, and the small-integer games, whose solver
# misses are then the same share of every run.
PROBE_SEED = 20200320
SMALL_INTEGER_SEED = 3
# games per size: (generic, drawn from --seed; small-integer, fixed)
GAMES_PER_SIZE = {2: (4, 4), 3: (4, 4), 4: (3, 3), 5: (2, 2), 6: (2, 1)}

F = Fraction


@dataclass
class Outcome:
    seconds: float  # the timed part, by SpeedClock.work
    failed: int = 0
    missed: int = 0  # failed by the solver's known fault
    problems: list[str] = field(default_factory=list)


@dataclass
class Task:
    key: str
    kind: str  # "sweep", "game", "cli" or "setup"
    ops: int
    run: Callable[[SpeedClock, bool], Outcome]  # bool: run the CLI in-process
    size: int = 0
    repeats: int = 1


@contextmanager
def one_cpu():
    """Keep this process, and the children it starts meanwhile, on one CPU.

    The speed samples then run on the CPU where the child runs. Outside
    child processes the benchmark may run on any CPU, so that no other
    process competes with it for a fixed one.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _import_govgame():
    if not (SRC / "govgame" / "__init__.py").is_file():
        sys.exit(f"error: no govgame package at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import govgame
    from govgame import cli, game_core, scenario_runner

    if Path(govgame.__file__).resolve().parent != SRC / "govgame":
        sys.exit(f"error: imported govgame from {govgame.__file__}, not from {SRC}")
    return cli, game_core, scenario_runner


cli, game_core, scenario_runner = _import_govgame()


def sweep_task(key: str, text: str, cases: list[inputs.ScenarioCase], repeats: int = 1) -> Task:
    """One scenario file from text to JSON and CSV; one operation per scenario."""

    def run(clock: SpeedClock, _in_process: bool) -> Outcome:
        start = perf_counter()
        scenarios = scenario_runner.load_scenarios(text)
        results = [scenario_runner.run_scenario(s) for s in scenarios]
        emitted_json = scenario_runner.results_to_json(results)
        emitted_csv = scenario_runner.results_to_csv(results)
        seconds = clock.work(start, perf_counter())
        bad = checks.results_json(emitted_json, cases)
        for name, problems in checks.results_csv(emitted_csv, cases).items():
            bad.setdefault(name, []).extend(problems)
        failed = len(cases) if "*" in bad else len(bad)
        return Outcome(seconds, failed, 0, [f"{key} {n}: {p[0]}" for n, p in bad.items()])

    return Task(key, "sweep", len(cases), run, repeats=repeats)


def game_task(case: inputs.GameCase) -> Task:
    """Read one game with load_game and solve it; the solve alone is timed."""

    def run(clock: SpeedClock, _in_process: bool) -> Outcome:
        game = game_core.load_game(case.text)
        start = perf_counter()
        equilibria = game_core.enumerate_mixed_equilibria(game)
        seconds = clock.work(start, perf_counter())
        reported = [
            (eq.profile.sigma1.probs, eq.profile.sigma2.probs, eq.payoffs, eq.kind.value == "pure")
            for eq in equilibria
        ]
        missed, problems = checks.game_equilibria(reported, case)
        problems = [f"game {case.name}: {p}" for p in problems]
        return Outcome(seconds, int(missed or bool(problems)), int(missed), problems)

    return Task(f"game-{case.name}", "game", 1, run, case.size, GAME_REPEATS[case.size])


def cli_task(key: str, argv: list[str], check: Callable[[str], list[str]], repeats: int = 1) -> Task:
    """One `govgame` invocation, timed from process start to exit.

    In the traced run the same argv goes to cli.main in this process with
    standard output and error captured, so that its layers are traced.
    """

    def run(clock: SpeedClock, in_process: bool) -> Outcome:
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            seconds = clock.work(start, perf_counter())
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            with one_cpu():
                start = perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-c", CLI_CODE, *argv],
                    capture_output=True, text=True, cwd=ROOT, env=_child_env(), timeout=CHILD_TIMEOUT_S,
                )
                seconds = clock.work(start, perf_counter())
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        problems = [f"exit code {code}: {stderr.strip()[-200:]}"] if code != 0 else check(stdout)
        return Outcome(seconds, int(bool(problems)), 0, [f"{key}: {p}" for p in problems])

    return Task(key, "cli", 1, run, repeats=repeats)


def _results_check(cases: list[inputs.ScenarioCase], fmt: str) -> Callable[[str], list[str]]:
    compare = checks.results_json if fmt == "json" else checks.results_csv

    def check(stdout: str) -> list[str]:
        return [f"{name}: {p[0]}" for name, p in compare(stdout, cases).items()]

    return check


def table1_cases() -> list[inputs.ScenarioCase]:
    return [
        inputs.scenario_case(str(i), "none", F(beta), F(gamma), with_expected=True)
        for i, (beta, gamma) in enumerate(inputs.TABLE1, 1)
    ]


def _table_check(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if "predictions:" not in lines:
        return ["no predictions section"]
    listed = lines[lines.index("predictions:") + 1:]
    names = [line.split(":")[0].strip() for line in listed]
    return [] if names == [str(i) for i in range(1, 10)] else [f"predictions listed for {names}"]


def _casestudy_check(stdout: str) -> list[str]:
    want = oracles.predict("off_chain", F(27, 50), F(7, 10))["surplus"]
    lines = [
        f"surplus_v = {want['surplus_v']} ",
        f"surplus_c = {want['surplus_c']} ",
        f"total     = {want['total']} ",
        "historical comparison: match",
    ]
    return [f"missing {line.strip()!r}" for line in lines if line not in stdout]


def predict_task(key: str, mode, beta, gamma, gamma_prime=None, k=1, n=1, s_v=F(1), s_c=F(1), repeats=1) -> Task:
    want = oracles.predict(mode, beta, gamma, gamma_prime, k, n, s_v, s_c)
    argv = ["predict", "--mode", mode, "--beta", str(beta), "--gamma", str(gamma)]
    if gamma_prime is not None:
        argv += ["--gamma-prime", str(gamma_prime)]
    argv += ["--k", str(k), "--n", str(n), "--sv", str(s_v), "--sc", str(s_c), "--format", "json"]
    return cli_task(key, argv, lambda out: checks.prediction_json(out, want), repeats)


def solve_tasks(case: inputs.GameCase, path: Path) -> list[Task]:
    path.write_text(case.text, encoding="utf-8")
    return [
        cli_task(f"solve-{fmt}-{case.name}", ["solve", str(path), "--format", fmt],
                 lambda out, compare=compare: compare(out, case)[1])
        for fmt, compare in (("json", checks.solve_json), ("csv", checks.solve_csv))
    ]


# --- the three workloads and the probes every workload carries -------------


def sweep_probe() -> list[Task]:
    rng = random.Random(PROBE_SEED)
    return [
        sweep_task(f"probe-sweep-{mode}-g{g}", inputs.scenario_text(cases), cases, PROBE_REPEATS)
        for mode, g in (("off_chain", 30), ("on_chain", 39))
        for cases in [inputs.sweep_column(rng, mode, g)]
    ]


def games_probe() -> list[Task]:
    rng = random.Random(PROBE_SEED)
    return [game_task(inputs.generic_game(rng, size, f"probe-n{size}")) for size in inputs.GAME_SIZES]


def cli_probe() -> list[Task]:
    return [
        cli_task(f"probe-table1-{fmt}", ["table1", "--verify", "--format", fmt],
                 _results_check(table1_cases(), fmt), PROBE_REPEATS)
        for fmt in ("json", "csv")
    ] + [
        cli_task("probe-casestudy", ["casestudy"], _casestudy_check, PROBE_REPEATS),
        predict_task("probe-predict-on_chain", "on_chain", F(2, 5), F(2, 5), F(4, 5), repeats=PROBE_REPEATS),
    ]


def sweep_workload(rng: random.Random) -> list[Task]:
    tasks = [
        sweep_task(f"sweep-{mode}-g{g}", inputs.scenario_text(cases), cases)
        for mode in inputs.MODES
        for g in inputs.GRID_GS
        for cases in [inputs.sweep_column(rng, mode, g)]
    ]
    return tasks + games_probe() + cli_probe() + [setup_task()]


def games_workload(rng: random.Random) -> list[Task]:
    fixed = random.Random(SMALL_INTEGER_SEED)
    cases = [inputs.identity_vs_ones()]
    for size, (generic, small) in GAMES_PER_SIZE.items():
        cases += [inputs.generic_game(rng, size, f"n{size}-generic{i}") for i in range(generic)]
        cases += [inputs.small_integer_game(fixed, size, f"n{size}-small{i}") for i in range(small)]
    return [game_task(case) for case in cases] + sweep_probe() + cli_probe() + [setup_task()]


def cli_workload(rng: random.Random, seed: int) -> list[Task]:
    folder = OUT / "inputs"
    folder.mkdir(parents=True, exist_ok=True)
    tasks = [
        cli_task(f"table1-{fmt}", ["table1", "--verify", "--format", fmt], check)
        for fmt, check in (
            ("table", _table_check),
            ("json", _results_check(table1_cases(), "json")),
            ("csv", _results_check(table1_cases(), "csv")),
        )
    ]
    tasks.append(cli_task("casestudy", ["casestudy"], _casestudy_check))
    for mode in inputs.MODES:
        k = rng.randint(1, 12)
        gamma_prime = F(rng.randint(0, 60), 60) if mode == "on_chain" else None
        tasks.append(predict_task(
            f"predict-{mode}", mode, F(rng.randint(0, 60), 60), F(rng.randint(0, 60), 60), gamma_prime,
            k, rng.randint(k, 40), F(rng.randint(1, 30), rng.randint(1, 12)), F(rng.randint(1, 30), rng.randint(1, 12)),
        ))
    for size in (2, 3):
        case = inputs.generic_game(rng, size, f"cli-n{size}")
        tasks += solve_tasks(case, folder / f"seed{seed}-game-n{size}.json")
    cases = inputs.sample_scenarios(rng, 12)
    path = folder / f"seed{seed}-scenarios.json"
    path.write_text(inputs.scenario_text(cases), encoding="utf-8")
    tasks += [
        cli_task(f"run-{fmt}", ["run", str(path), "--format", fmt], _results_check(cases, fmt))
        for fmt in ("json", "csv")
    ]
    return tasks + sweep_probe() + games_probe() + [setup_task()]


# --- measuring --------------------------------------------------------------


def import_govgame_child() -> tuple[float, float]:
    """Start a fresh interpreter that imports govgame and exits; its start and end."""
    with one_cpu():
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import govgame"],
            capture_output=True, text=True, cwd=ROOT, env=_child_env(), timeout=CHILD_TIMEOUT_S,
        )
        end = perf_counter()
    if proc.returncode != 0:
        sys.exit(f"error: `import govgame` failed in a child process: {proc.stderr.strip()[-300:]}")
    return start, end


def setup_task() -> Task:
    return Task(
        "setup", "setup", 0,
        lambda clock, _in_process: Outcome(clock.work(*import_govgame_child())),
        repeats=SETUP_REPEATS,
    )


def schedule(tasks: list[Task]) -> list[Task]:
    """One round: each task `repeats` times, its repeats spread evenly through the round."""
    placed = [
        ((j + (index + 0.5) / len(tasks)) / task.repeats, index, task)
        for index, task in enumerate(tasks)
        for j in range(task.repeats)
    ]
    return [task for _, _, task in sorted(placed, key=lambda p: p[:2])]


@dataclass
class Tally:
    seconds: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    missed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, task: Task, outcome: Outcome) -> None:
        samples = self.seconds.setdefault(task.key, [])
        if outcome.seconds == outcome.seconds:  # not NaN: the operation finished
            samples.append(outcome.seconds)
        self.attempted += task.ops
        self.failed += outcome.failed
        self.missed += outcome.missed
        if not outcome.missed:
            self.problems += outcome.problems

    def median(self, key: str) -> float:
        return statistics.median(self.seconds[key])


def run_round(tasks: list[Task], tally: Tally, clock: SpeedClock, in_process: bool, tracer: Tracer | None) -> None:
    for task in tasks:
        if tracer:
            tracer.operation = task.key
        try:
            outcome = task.run(clock, in_process)
        except Exception as exc:  # a failing operation is counted, not fatal
            outcome = Outcome(float("nan"), task.ops, 0, [f"{task.key}: {type(exc).__name__}: {exc}"])
        tally.add(task, outcome)


def end_to_end(workload: str, tasks: list[Task], tally: Tally) -> dict:
    """Medians of the corrected times: over the repeats of an input, then over inputs."""

    def medians(kind: str, size: int = 0) -> list[float]:
        keys = [t.key for t in tasks if t.kind == kind and (not size or t.size == size)]
        return [tally.median(key) for key in keys if tally.seconds[key]] or [float("nan")]

    sweep = [t.ops / tally.median(t.key) for t in tasks if t.kind == "sweep" and tally.seconds[t.key]]
    metrics = {"sweep_scenarios_per_s": (statistics.median(sweep or [float("nan")]), "scenarios/s")}
    for size in inputs.GAME_SIZES:
        metrics[f"solve_ms.n{size}"] = (1e3 * statistics.median(medians("game", size)), "ms")
    metrics["cli_ms"] = (1e3 * statistics.median(medians("cli")), "ms")
    metrics["setup_s"] = (statistics.median(medians("setup")), "s")
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = (resource.getrusage(usage).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(tracer: Tracer, tasks: list[Task], plain: Tally, traced: Tally, clock: SpeedClock) -> dict:
    """Layer totals from the traced rounds, per call, game or scenario.

    A layer the workload's own operations call is measured on them alone;
    one that only the probes call, on the probes.
    """
    own = tracer.totals(clock.work, lambda operation: "probe-" not in operation)
    every = tracer.totals(clock.work)
    totals = {layer: own[layer] if own[layer]["calls"] else every[layer] for layer in own}

    def per(layer: str, key: str, by: str = "calls", of: str | None = None, scale: float = 1e6) -> float:
        base = totals[of or layer][by]
        return scale * totals[layer][key] / base if base else 0.0

    ratios = [
        traced.median(t.key) / plain.median(t.key)
        for t in tasks
        if t.kind != "setup" and plain.seconds[t.key] and traced.seconds[t.key]
    ]
    linsolves = totals["solve.linsolve"]["calls"]
    return {
        "parse.scenario_us": (per("parse.scenario", "time", "size"), "us/scenario"),
        "parse.game_us": (per("parse.game", "time"), "us/game"),
        "build.us": (per("build", "time"), "us/call"),
        "solve.us": (per("solve", "self"), "us/game"),
        "solve.linsolve_us": (per("solve.linsolve", "time", of="solve"), "us/game"),
        "solve.linsolve_calls": (per("solve.linsolve", "calls", of="solve", scale=1), "count/game"),
        "solve.check_us": (per("solve.check", "time", of="solve"), "us/game"),
        "solve.check_calls": (per("solve.check", "calls", of="solve", scale=1), "count/game"),
        "solve.yield": (totals["solve"]["size"] / linsolves if linsolves else 0.0, "eq/system"),
        "predict.us": (per("predict", "time"), "us/call"),
        "run.self_us": (per("run", "self"), "us/scenario"),
        "emit.json_us": (per("emit.json", "time", "size"), "us/scenario"),
        "emit.csv_us": (per("emit.csv", "time", "size"), "us/scenario"),
        "cli.parser_ms": (per("cli.parser", "time", scale=1e3), "ms/call"),
        "cli.main_ms": (per("cli.main", "time", scale=1e3), "ms/call"),
        "trace.overhead_pct": (100 * (statistics.median(ratios) - 1), "%"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = perf_counter()

    oracles.self_check()
    OUT.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    if args.workload == "sweep":
        tasks = sweep_workload(rng)
    elif args.workload == "games":
        tasks = games_workload(rng)
    else:
        tasks = cli_workload(rng, args.seed)
    round_tasks = schedule(tasks)

    import_govgame_child()  # writes the bytecode cache; not counted
    plain, traced = Tally(), Tally()
    tracer = Tracer() if args.trace else None
    clock = SpeedClock()
    rounds = 0
    start = perf_counter()
    clock.start()
    try:
        while rounds < MIN_ROUNDS * (2 if tracer else 1) or (
            perf_counter() - start < args.seconds and perf_counter() - began < RUN_CAP_S
        ):
            if tracer and rounds % 2:
                tracer.install()
                try:
                    run_round(round_tasks, traced, clock, True, tracer)
                finally:
                    tracer.remove()
            else:
                run_round(round_tasks, plain, clock, bool(tracer), None)
            rounds += 1
    finally:
        clock.stop()
    measured_s = perf_counter() - start

    tally = plain
    if tracer:
        metrics = per_layer(tracer, tasks, plain, traced, clock)
        tally = Tally(
            attempted=plain.attempted + traced.attempted,
            failed=plain.failed + traced.failed,
            missed=plain.missed + traced.missed,
            problems=plain.problems + traced.problems,
        )
    else:
        metrics = end_to_end(args.workload, tasks, plain)
    correct = not tally.problems
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": rounds,
        "measured_s": measured_s, "attempted": tally.attempted, "failed": tally.failed,
        "known_fault_misses": tally.missed, "problems": tally.problems[:50],
        "absent": tracer.absent if tracer else [],
        "speed_samples": len(clock.durations),
        "sample_s": statistics.quantiles(clock.durations, n=10),
        "median_s": {key: plain.median(key) for key, seconds in plain.seconds.items() if seconds},
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if tracer:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.spans), encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, {rounds} rounds in {measured_s:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24} {value:12.4f} {unit}")
    for target in report["absent"]:
        print(f"  absent: {target}")
    print(f"  failed {tally.failed} of {tally.attempted}, {tally.missed} by the solver's skipped underdetermined supports")
    for problem in tally.problems[:10]:
        print(f"  WRONG: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
