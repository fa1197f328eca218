import emhorn

# What the command line, the acceptance gate and the paper's claim use.  A
# name that only tests call does not belong here; adding one means editing
# this list.
PUBLIC_NAMES = [
    "CERTIFICATE_SCHEMA",
    "CommutativeMonoid",
    "ConstraintSystem",
    "EMSimplex",
    "EMSpace",
    "FillerResult",
    "HornProblem",
    "MonotoneMap",
    "NerveView",
    "UndecidableError",
    "boolean",
    "brute_force_filler",
    "build_constraints",
    "certificate_json",
    "codegeneracy",
    "coface",
    "compose",
    "count_fillers",
    "cyclic",
    "enumerate_surjections",
    "from_table",
    "horn_from_simplex",
    "identity",
    "int_group",
    "iter_compatible_horn_data",
    "iter_fillers",
    "load_table",
    "moore_filler",
    "nat",
    "quasicategory_counterexample",
    "solve_em",
    "solve_value_all",
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
