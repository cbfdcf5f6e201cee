"""Run every single-node mutant of govgame's modules against the output checks and tier-1.

    python tests/mutants.py [MODULE ...]

MODULE names a module of src/govgame, such as game_core; with none, the
five modules that hold logic are run: cli, game_core, governance,
rationals and scenario_runner. A mutant changes one node of the module's
syntax tree:

- a comparison swaps < and <=, > and >=, == and !=, is and is not, or
  in and not in;
- an operator, plain or augmented, swaps + and -, * and //, | and ^, or
  << and >>;
- and and or swap, a not is dropped, or an int literal gains 1.

Annotations are skipped: from __future__ import annotations leaves them
unevaluated. Each mutant is written, through ast.unparse, into a new
copy of the repository, and three checks run there in order, each in
its own process with PYTHONPATH at the copy's src: the output hashes
(tests/same_outputs.py --check), the golden CLI cases (tests/test_golden.py
--check) and the tier-1 suite, run as CI runs it (-X dev -W error) with
a fixed Hypothesis seed and stopping at its first failure. The first
check that fails kills the mutant. So does one that runs past its time
limit, ten times what the unmutated module took: a walk whose edge
test takes a basis it has reached for a new one never ends. A mutant
that passes all three survives, and is either a missing test, code that
can be deleted, or equivalent to the module in every context it runs
in. Mutants run one per CPU core at once, so that the time limits,
taken with nothing else running, are not eaten by contention.

Before its mutants, each module is run unmutated but rewritten by
ast.unparse; every check must pass on it. One line is printed per
mutant, then a count per check and the wall time. The run takes minutes
per module, so it is no CI step; tests/test_mutants.py checks how the
mutants are made.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MODULES = ("cli", "game_core", "governance", "rationals", "scenario_runner")

_PAIRS = (
    (ast.Lt, ast.LtE), (ast.Gt, ast.GtE), (ast.Eq, ast.NotEq), (ast.Is, ast.IsNot), (ast.In, ast.NotIn),
    (ast.Add, ast.Sub), (ast.Mult, ast.FloorDiv), (ast.BitOr, ast.BitXor), (ast.LShift, ast.RShift),
    (ast.And, ast.Or),
)
_SWAPS = {**dict(_PAIRS), **{b: a for a, b in _PAIRS}}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.BitOr: "|", ast.BitXor: "^", ast.LShift: "<<", ast.RShift: ">>",
    ast.And: "and", ast.Or: "or",
}
# The fields that hold annotations: of a parameter, a return and an annotated assignment.
_ANNOTATIONS = {"annotation", "returns"}


def _children(node: ast.AST):
    """(parent, field, index, child) for each node under node but annotations, parents first."""
    for field, value in ast.iter_fields(node):
        if field in _ANNOTATIONS:
            continue
        for index, child in enumerate(value if isinstance(value, list) else [value]):
            if isinstance(child, ast.AST):
                yield node, field, index if isinstance(value, list) else None, child
                yield from _children(child)


def _swap(node: ast.AST, k: int | None = None) -> str:
    """Swap node's operator, or a comparison's k-th; return the change as text."""
    old = node.op if k is None else node.ops[k]
    new = _SWAPS[type(old)]()
    if k is None:
        node.op = new
    else:
        node.ops[k] = new
    return f"{_SYMBOLS[type(old)]} -> {_SYMBOLS[type(new)]}"


def _sites(tree: ast.AST) -> list[tuple[int, object]]:
    """Each mutation site of tree as (line, apply); apply() makes the change and returns it as text."""
    sites = []
    for parent, field, index, node in _children(tree):
        line = getattr(node, "lineno", None)
        if isinstance(node, ast.Compare):
            ks = [k for k, op in enumerate(node.ops) if type(op) in _SWAPS]
            sites += [(line, lambda node=node, k=k: _swap(node, k)) for k in ks]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _SWAPS:
            sites.append((line, lambda node=node: _swap(node)))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):

            def drop(parent=parent, field=field, index=index, node=node):
                if index is None:
                    setattr(parent, field, node.operand)
                else:
                    getattr(parent, field)[index] = node.operand
                return "drop not"

            sites.append((line, drop))
        elif isinstance(node, ast.Constant) and type(node.value) is int:

            def bump(node=node):
                node.value += 1
                return f"{node.value - 1} -> {node.value}"

            sites.append((line, bump))
    return sites


def mutants(source: str) -> list[tuple[int, str, str]]:
    """Every single-node mutant of source as (line, change, mutated source), in _sites' order."""
    found = []
    for k in range(len(_sites(ast.parse(source)))):
        tree = ast.parse(source)
        line, apply = _sites(tree)[k]
        change = apply()
        found.append((line, change, ast.unparse(tree)))
    return found


CHECKS = (
    ("hashes", ["tests/same_outputs.py", "--check", "tests/golden/same_outputs.json"]),
    ("golden", ["tests/test_golden.py", "--check", sys.executable, "-m", "govgame.cli"]),
    ("tier-1", ["-X", "dev", "-W", "error", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                "--hypothesis-seed=0"]),
)


def _run(module: str, text: str, limits: list[float] | None) -> tuple[str | None, list[float]]:
    """Run the checks on a copy of the repository whose module holds text.

    Returns the name of the first check that fails or passes its limit,
    None if all pass, and the seconds each check that ran took.
    """
    with tempfile.TemporaryDirectory(prefix="govgame-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")
        shutil.copytree(REPO, copy, ignore=ignore)
        (copy / "src" / "govgame" / f"{module}.py").write_text(text + "\n", encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        seconds = []
        for k, (name, args) in enumerate(CHECKS):
            start = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, *args], cwd=copy, env=env, start_new_session=True,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            try:
                code = child.wait(timeout=limits[k] if limits else None)
            except subprocess.TimeoutExpired:
                # The whole session goes, with any CLI process of the golden check.
                os.killpg(child.pid, signal.SIGKILL)
                code = child.wait()
            seconds.append(time.perf_counter() - start)
            if code != 0:
                return name, seconds
        return None, seconds


def _module(module: str) -> dict[str, list[str]]:
    """Run one module's mutants; return those each check killed, and the survivors under None."""
    source = (REPO / "src" / "govgame" / f"{module}.py").read_text(encoding="utf-8")
    failed, seconds = _run(module, ast.unparse(ast.parse(source)), None)
    if failed:
        sys.exit(f"{module}: the unmutated module fails the {failed} check")
    limits = [10 * s for s in seconds]
    found = mutants(source)
    shown = ", ".join(f"{s:.0f} s" for s in limits)
    print(f"{module}: {len(found)} mutants; limits {shown}", flush=True)
    tally: dict[str | None, list[str]] = {name: [] for name, _ in CHECKS}
    tally[None] = []

    def one(mutant):
        line, change, text = mutant
        killer, _ = _run(module, text, limits)
        return f"{module}.py:{line}: {change}", killer

    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        for where, killer in pool.map(one, found):
            tally[killer].append(where)
            print(f"  {where}  {'killed by ' + killer if killer else 'SURVIVED'}", flush=True)
    return tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", metavar="MODULE", help="default: " + " ".join(MODULES))
    args = parser.parse_args(argv)
    for module in args.modules:
        if not (REPO / "src" / "govgame" / f"{module}.py").is_file():
            parser.error(f"no module src/govgame/{module}.py")
    start = time.perf_counter()
    survivors = []
    for module in args.modules or MODULES:
        tally = _module(module)
        counts = ", ".join(f"{name} {len(tally[name])}" for name, _ in CHECKS)
        print(f"{module}: killed by {counts}; survived {len(tally[None])}", flush=True)
        survivors += tally[None]
    print(f"{len(survivors)} survived in all; wall time {time.perf_counter() - start:.0f} s")
    for where in survivors:
        print(f"  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
