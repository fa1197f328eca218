"""Mutation check of emhorn's decision core.

Each mutant changes one operator or constant in one target function:

- a comparison becomes its neighbour (``<`` and ``<=``, ``>`` and ``>=``,
  ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``);
- ``+`` becomes ``-`` and ``-`` becomes ``+`` (augmented assignments too);
- ``and`` becomes ``or`` and ``or`` becomes ``and``;
- an integer constant is raised by 1;
- ``not x`` becomes ``x``.

A mutant is killed when the tests fail on it, or when they run past the
timeout or the memory cap.  Each mutant runs only the test files that
import its module, directly or through another module of the package or
``tests/support.py``, with ``-x``: the module's own test file first, then
the other direct importers, then the rest, smallest first.  The mutants in
``EQUIVALENT`` behave as the program does and are not run; every other
mutant must be killed.  Before any mutant, the unparsed (comment-free)
modules must pass the same tests.

Run it from the root of a checkout; it needs pytest and the test
dependencies, and copies the checkout to a temporary directory for each of
its two workers:

    python tools/mutation_check.py

It prints each surviving mutant and the counts, and exits 1 if a mutant
survives or an entry of ``EQUIVALENT`` matches no mutant.
"""

from __future__ import annotations

import ast
import concurrent.futures
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "emhorn"
MEMORY_CAP = 2 << 30  # bytes of address space per test run
WORKERS = 2

# The solver, certificate steps and their JSON, validation, horn shapes,
# enumeration, sweep, operator tables, face plans, table parsing, the
# validation of monotone maps and the CLI's spec parsers, per module.
TARGETS = {
    "horn": [
        "validate_horn", "_HornShape.__init__", "_HornShape.violation", "_HornShape.faces",
        "_horn_shape", "_render_steps", "_propagate", "_branch", "_filler_map", "_solve",
        "solve_em", "count_fillers", "moore_filler", "certificate_json", "_level_faces",
        "_compatible_faces", "_sweep",
    ],
    "em": [
        "_Levels.__missing__", "EMSpace.face_fibers", "EMSpace.degeneracy_targets",
        "EMSpace.face", "EMSpace.degeneracy", "EMSpace.contains", "EMSpace.first_outside",
        "_gather", "_face_plan", "_degeneracy_plan",
    ],
    "monoid": ["CommutativeMonoid.__init__", "CommutativeMonoid.values", "from_table"],
    "delta": ["MonotoneMap.__init__"],
    "cli": ["parse_monoid", "parse_simplex", "parse_face"],
}

# Mutants that compute what the program computes, each with the reason.
EQUIVALENT = {
    "_sweep: 2 if check_unique else 1 -> 3 if check_unique else 1":
        "a sweep needs two fillers to tell a unique horn from one that is not; a"
        " third only adds search work",
    "_sweep: 2 if check_unique else 1 -> 2 if check_unique else 2":
        "without check_unique a second filler is counted but never read; it only"
        " adds search work",
}

SWAP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And,
}


def _function(tree: ast.Module, qualname: str) -> ast.AST:
    node = tree
    for part in qualname.split("."):
        node = next(
            n for n in node.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part
        )
    return node


def _sites(function: ast.AST):
    """(text, swap) per mutation in ``function``: ``swap(True)`` applies it,
    ``swap(False)`` undoes it, and ``text()`` is the current source of the
    expression it changes, which names the mutant."""
    for parent in ast.walk(function):
        for field, value in ast.iter_fields(parent):
            slots = enumerate(value) if isinstance(value, list) else [(None, value)]
            for index, node in slots:
                if isinstance(parent, ast.expr):
                    text = lambda p=parent: ast.unparse(p)  # noqa: E731
                else:
                    text = lambda f=field, i=index, p=parent: ast.unparse(  # noqa: E731
                        getattr(p, f) if i is None else getattr(p, f)[i]
                    )
                if isinstance(node, ast.Compare):
                    for i, op in enumerate(node.ops):
                        yield (lambda n=node: ast.unparse(n)), _item(node.ops, i, SWAP[type(op)]())
                elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
                    if type(node.op) in SWAP:
                        yield (lambda n=node: ast.unparse(n)), _attr(node, "op", SWAP[type(node.op)]())
                elif isinstance(node, ast.Constant) and type(node.value) is int:
                    yield text, _attr(node, "value", node.value + 1)
                elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                    if index is None:
                        yield text, _attr(parent, field, node.operand)
                    else:
                        yield text, _item(value, index, node.operand)


def _item(seq: list, i: int, new):
    old = seq[i]
    return lambda on: seq.__setitem__(i, new if on else old)


def _attr(obj, name: str, new):
    old = getattr(obj, name)
    return lambda on: setattr(obj, name, new if on else old)


def mutants():
    """(module, label, source) for every mutant, in target order."""
    for module, qualnames in TARGETS.items():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for qualname in qualnames:
            seen: dict[str, int] = {}
            for text, swap in _sites(_function(tree, qualname)):
                before = text()
                swap(True)
                label = f"{qualname}: {before} -> {text()}"
                source = ast.unparse(tree)
                swap(False)
                seen[label] = seen.get(label, 0) + 1
                if seen[label] > 1:
                    label += f" #{seen[label]}"
                yield module, label, source


def _imports(path: Path, package: bool) -> set[str]:
    """The package modules and test helpers that ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("emhorn." if package and node.level else "") + (node.module or "")
            names.add(base.rstrip("."))
            names.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)
    return {n.removeprefix("emhorn.") if n.startswith("emhorn.") else n for n in names}


def test_files(module: str) -> list[str]:
    """The test files that import ``module``, likely killers first."""
    graph = {p.stem: _imports(p, True) for p in PACKAGE.glob("*.py")}
    graph["emhorn"] = graph.pop("__init__")
    graph["support"] = _imports(ROOT / "tests" / "support.py", False)

    def reaches(name: str, seen=()) -> bool:
        if name == module:
            return True
        return name not in seen and any(
            reaches(n, seen + (name,)) for n in graph.get(name, ()) if n in graph
        )

    chosen = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        imported = _imports(path, False) & set(graph)
        if any(reaches(n) for n in imported):
            rank = 0 if path.stem == f"test_{module}" else 1 if module in imported else 2
            chosen.append((rank, path.stat().st_size, f"tests/{path.name}"))
    return [name for _, _, name in sorted(chosen)]


def _copy() -> Path:
    where = Path(tempfile.mkdtemp(prefix="emhorn-mutants-"))
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".bench_out", ".hypothesis",
                                    ".pytest_cache", ".benchmarks", "*.egg-info")
    shutil.copytree(ROOT, where / "repo", ignore=ignore)
    return where / "repo"


def run_tests(tree: Path, files: list[str], timeout: float) -> str:
    """'pass', 'fail' or 'timeout' for the test files on the copy ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def main() -> int:
    # every test run inherits the cap, set here before any worker thread
    # starts: a mutant that enumerates a huge level fails at the cap instead
    # of taking the host's memory, and the tests themselves stay far below it
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    todo = list(mutants())
    labels = {label for _, label, _ in todo}
    stale = [label for label in EQUIVALENT if label not in labels]
    for label in stale:
        print(f"EQUIVALENT entry matches no mutant: {label}")
    files = {module: test_files(module) for module in TARGETS}
    trees = [_copy() for _ in range(WORKERS)]
    try:
        # the unmutated modules, unparsed as every mutant is, must pass first
        timeouts = {}
        for module in TARGETS:
            path = trees[0] / "src" / "emhorn" / f"{module}.py"
            original = path.read_text()
            path.write_text(ast.unparse(ast.parse(original)))
            start = time.perf_counter()
            outcome = run_tests(trees[0], files[module], timeout=1800)
            path.write_text(original)
            if outcome != "pass":
                print(f"the unparsed {module}.py does not pass {files[module]}")
                return 1
            timeouts[module] = 3 * (time.perf_counter() - start) + 30
        run = [m for m in todo if m[1] not in EQUIVALENT]
        free = list(trees)

        def judge(mutant):
            module, label, source = mutant
            tree = free.pop()
            path = tree / "src" / "emhorn" / f"{module}.py"
            original = path.read_text()
            try:
                path.write_text(source)
                return label, run_tests(tree, files[module], timeouts[module])
            finally:
                path.write_text(original)
                free.append(tree)

        outcomes = {}
        with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
            for label, outcome in pool.map(judge, run):
                outcomes[label] = outcome
                if outcome == "pass":
                    print(f"SURVIVED {label}", flush=True)
    finally:
        for tree in trees:
            shutil.rmtree(tree.parent, ignore_errors=True)
    count = {k: sum(1 for o in outcomes.values() if o == k) for k in ("fail", "timeout", "pass")}
    print(
        f"{len(todo)} mutants of {sum(map(len, TARGETS.values()))} functions:"
        f" {count['fail']} killed, {count['timeout']} timed out,"
        f" {len(todo) - len(run)} equivalent, {count['pass']} survived"
    )
    for label, reason in EQUIVALENT.items():
        print(f"equivalent: {label}: {reason}")
    return 1 if count["pass"] or stale else 0


if __name__ == "__main__":
    sys.exit(main())
