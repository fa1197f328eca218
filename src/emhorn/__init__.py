"""Eilenberg-MacLane simplicial monoids and horn filling at desk scale.

The package builds the simplicial monoid of a commutative monoid in a
fixed degree, decides horn-filling problems in it, and certifies the inner
3-horn over the naturals in degree 2 that admits no filler, so the
underlying simplicial set there is not a quasi-category even though every
simplicial group is a Kan complex.
"""

from .em import EMSimplex, EMSpace, NerveView
from .horn import (
    CERTIFICATE_SCHEMA,
    HornProblem,
    brute_force_filler,
    build_constraints,
    certificate_json,
    count_fillers,
    horn_from_simplex,
    iter_compatible_horn_data,
    moore_filler,
    quasicategory_counterexample,
    solve_em,
    sweep_kan,
    sweep_quasicategory,
    validate_horn,
)
from .monoid import (
    CommutativeMonoid,
    UndecidableError,
    boolean,
    cyclic,
    from_table,
    int_group,
    load_table,
    nat,
    trivial,
)
from .sset import sphere

__version__ = "0.1.0"
