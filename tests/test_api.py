import ast
from pathlib import Path

import emhorn

ROOT = Path(__file__).resolve().parent.parent

# What the command line, the acceptance gate and the paper's claim use.  A
# name that only tests call does not belong here; adding one means editing
# this list.  The benchmark harness's top-level reads (``validate_horn``,
# ``count_fillers``, ``from_table``) count as users until a benchmark-only
# change moves them to the submodules that define them.
PUBLIC_NAMES = [
    "CERTIFICATE_SCHEMA",
    "CommutativeMonoid",
    "EMSimplex",
    "EMSpace",
    "HornProblem",
    "NerveView",
    "UndecidableError",
    "boolean",
    "brute_force_filler",
    "build_constraints",
    "certificate_json",
    "count_fillers",
    "cyclic",
    "from_table",
    "horn_from_simplex",
    "int_group",
    "iter_compatible_horn_data",
    "load_table",
    "moore_filler",
    "nat",
    "quasicategory_counterexample",
    "solve_em",
    "sphere",
    "sweep_kan",
    "sweep_quasicategory",
    "trivial",
    "validate_horn",
]


def test_public_surface_is_pinned():
    public = sorted(
        name
        for name, value in vars(emhorn).items()
        if not name.startswith("_") and not isinstance(value, type(emhorn))
    )
    assert public == PUBLIC_NAMES


def test_every_public_name_has_a_user():
    """Each public name is imported or read as an attribute by the command
    line, the acceptance gate or the benchmark harness.

    This is a necessary condition only: names are matched as bare words, so
    ``M.identity`` would count as a use of a top-level ``identity``.
    """
    sources = [ROOT / "src/emhorn/cli.py", ROOT / "tests/test_acceptance.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [name for name in PUBLIC_NAMES if name not in used] == []


def test_only_the_monoid_module_reads_the_number_flags():
    """``is_free_natural`` and ``integer_addition`` say how a monoid was
    built; every other module of the package asks the monoid instead, through
    ``solve``, ``is_cancellative``, ``is_element`` and ``values``.  An
    attribute read or a string naming a flag (as ``getattr`` would take it)
    counts."""
    flags = {"is_free_natural", "integer_addition"}
    readers = []
    for path in sorted((ROOT / "src/emhorn").glob("*.py")):
        if path.name == "monoid.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if name in flags:
                readers.append(f"{path.name}:{node.lineno} {name}")
    assert readers == []
