"""Horn filling: validation, solvers, certificates and sweeps.

A horn assignment into a simplicial monoid pins down all faces of a would-be
n-simplex except the k-th.  Whether a filler exists reduces to a system of
subset-sum equations over the coefficient monoid: one equation per given
face index i and per target generator g, saying that the coordinates whose
i-th face lands on g add up to the corresponding coordinate of the given
face.

Only the right-hand sides depend on the horn data.  The rows (face, target
generator, summed coordinates) depend only on the shape (space, n, k), so
they are compiled once per shape, kept with the space's operator tables
and shared by every horn of that shape; ``Equation`` objects are built only
when a system's ``equations`` are read.

The solver first propagates: any equation with a single unknown is solved
outright and substituted.  Either this chain ends in an unsolvable
single-unknown equation, which is a human-readable certificate that no
filler exists, or some coordinates are left unset.  Over a group they are
finished by the classical constructive filler, built by correcting a
degenerate start with degeneracies and inverses below the missing index
and then above it.  Over the naturals and finite monoids the residual
system is finished by search (over the naturals, subset sums bound every
variable by the smallest right-hand side it appears under).  Every filler
is re-verified against the given faces before being reported.

A horn target is either an ``EMSpace`` or a finite
``TruncatedSimplicialSet``.  Both provide ``name``, ``dim_bound``,
``face(k, i, x)``, ``enumerate_level(k, bound=None)``, ``contains(k, x)``
and ``encode(x)`` (the JSON form of a simplex), and validation, the
exhaustive scan, horn enumeration and certificates use only those.  The
sweeps decide ``K(M,n)`` with the equation solver above and a finite
simplicial set with the exhaustive scan.

Certificate text is rendered when a result's steps are first read.  A
sweep over ``K(M,n)`` validates only the horn it reports as a witness: a
verified filler y proves the data compatible, d_i x_j = d_i d_j y =
d_{j-1} d_i y = d_{j-1} x_i, so validation could only pass on the others.
A ``check_unique`` sweep solves or scans each horn once, for up to two fillers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Iterator, NamedTuple, Optional, Union

from .em import EMSimplex, EMSpace
from .monoid import CommutativeMonoid, Element, UndecidableError, solve_value_all
from .sset import TruncatedSimplicialSet

Target = Union[EMSpace, TruncatedSimplicialSet]


@dataclass
class HornProblem:
    """Faces i -> x_i for every i except k, aimed at an n-simplex."""

    target: Target
    n: int
    k: int
    faces: dict

    def given_indices(self) -> list[int]:
        return sorted(self.faces)

    def describe(self) -> str:
        return f"Lambda^{self.k}[{self.n}] -> {self.target.name}"


def horn_from_simplex(K: EMSpace, n: int, k: int, y: EMSimplex) -> HornProblem:
    """The horn data obtained by forgetting the k-th face of a simplex."""
    faces = {i: K.face(n, i, y) for i in range(n + 1) if i != k}
    return HornProblem(K, n, k, faces)


def validate_horn(problem: HornProblem) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check the data defines a map from the horn.

    Malformed input (wrong face indices, wrong levels) raises ValueError.
    Returns (True, None) when all pairwise face compatibilities hold, else
    (False, (i, j)) with the first violating pair.
    """
    target, n, k = problem.target, problem.n, problem.k
    if n < 1:
        raise ValueError(f"horns exist in dimension >= 1, got n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"horn index {k} out of range for [{n}]")
    expected = {i for i in range(n + 1) if i != k}
    if set(problem.faces) != expected:
        raise ValueError(
            f"horn needs faces {sorted(expected)}, got {sorted(problem.faces)}"
        )
    if n > target.dim_bound:
        raise ValueError(f"dimension {n} exceeds truncation {target.dim_bound}")
    for i, x in problem.faces.items():
        if not target.contains(n - 1, x):
            raise ValueError(f"face {i} is not a level-{n - 1} simplex of {target.name}")
    if n >= 2:
        given = problem.given_indices()
        for pos, i in enumerate(given):
            for j in given[pos + 1 :]:
                lhs = target.face(n - 1, i, problem.faces[j])
                rhs = target.face(n - 1, j - 1, problem.faces[i])
                if lhs != rhs:
                    return False, (i, j)
    return True, None


def _require_compatible(problem: HornProblem) -> None:
    ok, violation = validate_horn(problem)
    if not ok:
        raise ValueError(f"incompatible horn data at face pair {violation}")


# ---------------------------------------------------------------------------
# Constraint systems over EM spaces


@dataclass(frozen=True)
class Equation:
    """Subset sum over the level-n generators: sum of vars = rhs."""

    face: int
    gen_pos: int
    vars: tuple[int, ...]
    rhs: Element


class _HornShape(NamedTuple):
    """What the equations of a horn owe to its shape (space, n, k) alone."""

    given: tuple[int, ...]  # the given face indices, in order
    rows: tuple[tuple[int, int, tuple[int, ...]], ...]  # (face, gen_pos, vars)
    variables: tuple  # the level-n generators
    in_equation: frozenset  # the variables that occur in some row


def _shape_of(given: tuple, rows: tuple, variables) -> _HornShape:
    return _HornShape(given, rows, tuple(variables), frozenset(v for _, _, vs in rows for v in vs))


def _horn_shape(K: EMSpace, n: int, k: int) -> _HornShape:
    """The shape of the horns Lambda^k[n] -> K, built once and kept with
    the space's operator tables."""
    shape = K._horn_shapes.get((n, k))
    if shape is None:
        given = tuple(i for i in range(n + 1) if i != k)
        rows = tuple(
            (i, gen_pos, vs) for i in given for gen_pos, vs in enumerate(K.face_fibers(n, i))
        )
        shape = K._horn_shapes[n, k] = _shape_of(given, rows, K.gens[n])
    return shape


@dataclass
class ConstraintSystem:
    """The filler conditions of one horn: the rows of its shape, shared by
    every horn of that shape, and this horn's right-hand sides in row order."""

    space: EMSpace
    problem: HornProblem
    shape: _HornShape = field(repr=False)
    rhs: list = field(repr=False)

    @property
    def variables(self) -> list:
        return list(self.shape.variables)

    @property
    def equations(self) -> list[Equation]:
        """The rows and right-hand sides as ``Equation`` objects, built on each read."""
        return [Equation(i, g, vs, r) for (i, g, vs), r in zip(self.shape.rows, self.rhs)]

    @equations.setter
    def equations(self, equations) -> None:
        """Replace this system's rows and right-hand sides; the shape it
        shared with other horns is left as it was."""
        equations = list(equations)
        rows = tuple((eq.face, eq.gen_pos, eq.vars) for eq in equations)
        self.shape = _shape_of(self.shape.given, rows, self.shape.variables)
        self.rhs = [eq.rhs for eq in equations]


def build_constraints(K: EMSpace, problem: HornProblem) -> ConstraintSystem:
    """The filler conditions as a deterministic equation list.

    Equations are ordered by given face index, then by target generator.
    A generator of the missing level that hits the basepoint under some
    face simply does not occur in that face's equations.
    """
    _require_compatible(problem)
    return _compile(K, problem)


def _compile(K: EMSpace, problem: HornProblem) -> ConstraintSystem:
    """``build_constraints`` without validating the horn data: the shared
    shape, and the faces' coordinates as right-hand sides.  Each given face
    has one row per level-(n-1) generator, so its coordinates line up."""
    shape = _horn_shape(K, problem.n, problem.k)
    faces = problem.faces
    rhs = [c for i in shape.given for c in faces[i].coords]
    return ConstraintSystem(K, problem, shape, rhs)


# ---------------------------------------------------------------------------
# Results and certificates


@dataclass(frozen=True)
class CertStep:
    kind: str  # "assign" | "contradiction" | "exhausted"
    variable: Optional[str]
    equation: str
    value: Optional[Element]
    known: Optional[Element] = None
    rhs: Optional[Element] = None
    face: Optional[int] = None


class FillerResult:
    """A verdict; ``steps`` may be a function rendering them on first read."""

    def __init__(self, filler: Optional[object], steps=(), note: Optional[str] = None):
        self.filler = filler
        self._steps = steps
        self.note = note

    @property
    def steps(self) -> tuple[CertStep, ...]:
        if callable(self._steps):
            self._steps = self._steps()
        return self._steps

    @property
    def found(self) -> bool:
        return self.filler is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FillerResult):
            return NotImplemented
        return (self.filler, self.steps, self.note) == (other.filler, other.steps, other.note)

    def __repr__(self) -> str:
        return f"FillerResult(filler={self.filler!r}, steps={self.steps!r}, note={self.note!r})"


def _render_steps(
    K: EMSpace, n: int, rows: tuple, rhs: list, raw: list, note: Optional[str]
) -> tuple[CertStep, ...]:
    """Raw (kind, var, e, known, value) steps on equation ``e`` of ``rows``
    and ``rhs`` as ``CertStep``s, with the equation as ``x(g) + known = rhs``,
    then the exhaustion note if any."""
    M = K.monoid
    names = K.gen_names(n)
    steps = []
    for kind, var, e, known, value in raw:
        name = None if var is None else names[var]
        terms = [] if name is None else [f"x({name})"]
        if known != M.identity or not terms:
            terms.append(M.render(known))
        text = " + ".join(terms) + f" = {M.render(rhs[e])}"
        steps.append(CertStep(kind, name, text, value, known=known, rhs=rhs[e], face=rows[e][0]))
    if note is not None:
        steps.append(CertStep("exhausted", None, note, None))
    return tuple(steps)


def _fills(target: Target, problem: HornProblem, y) -> bool:
    n, face = problem.n, target.face
    for i, x in problem.faces.items():
        if face(n, i, y) != x:
            return False
    return True


# ---------------------------------------------------------------------------
# Propagation and residual search


def _propagate(system: ConstraintSystem, M: CommutativeMonoid):
    """Substitute forced values from single-unknown equations to a fixpoint.

    A single-unknown equation with one solution determines its variable,
    and one with none ends the chain in a contradiction certificate.  In
    a non-cancellative finite monoid such an equation may have several
    solutions; committing to one would lose fillers, so those equations
    are left for the search phase and only the forced ones are substituted.

    Returns (assignment, steps, failed_step), the steps as raw
    (kind, var, e, known, value) records on equation index ``e`` for
    ``_render_steps``.  When failed_step is not None the chain ended in a
    contradiction and the assignment is meaningless.
    """
    op, identity = M.op, M.identity
    rows, rhs = system.shape.rows, system.rhs
    assignment: list = [None] * len(system.shape.variables)
    steps: list = []
    pending = range(len(rows))
    progress = True
    while progress:
        progress = False
        remaining = []
        for e in pending:
            # one pass: fold the known values, stop at a second unknown
            known, var = identity, None
            for v in rows[e][2]:
                a = assignment[v]
                if a is not None:
                    known = op(known, a)
                elif var is None:
                    var = v
                else:
                    remaining.append(e)
                    break
            else:
                if var is None:
                    if known != rhs[e]:
                        return assignment, steps, ("contradiction", None, e, known, None)
                    continue
                solutions = solve_value_all(M, known, rhs[e])
                if not solutions:
                    return assignment, steps, ("contradiction", var, e, known, None)
                if len(solutions) > 1:
                    remaining.append(e)
                    continue
                assignment[var] = solutions[0]
                steps.append(("assign", var, e, known, solutions[0]))
                progress = True
        pending = remaining
    return assignment, steps, None


def _search_residual(
    system: ConstraintSystem,
    M: CommutativeMonoid,
    assignment: list,
    slack: int = 0,
    limit: int = 1,
):
    """Finish a propagated system over the naturals or a finite monoid by
    bounded search.

    Returns the completed assignments (as lists) in canonical order, at
    most ``limit`` of them, and the per-variable domains searched, for the
    exhaustion note.
    """
    unassigned = [v for v, a in enumerate(assignment) if a is None]
    # per unknown, the (vars, rhs) of each equation it occurs in
    by_var: dict[int, list[tuple]] = {v: [] for v in unassigned}
    for (_, _, vs), r in zip(system.shape.rows, system.rhs):
        for v in vs:
            if assignment[v] is None:
                by_var[v].append((vs, r))

    constrained = [v for v in unassigned if by_var[v]]
    free = [v for v in unassigned if not by_var[v]]

    if M.is_free_natural:
        domains = {}
        for v in constrained:
            best = None
            for vs, r in by_var[v]:
                known = M.sum(assignment[w] for w in vs if assignment[w] is not None)
                if known > r:
                    return [], {v: [] for v in constrained}
                if best is None or r - known < best:
                    best = r - known
            domains[v] = list(range(best + slack + 1))
    else:
        domains = {v: list(M.elements) for v in constrained}

    solutions = []

    def extend(pos: int, current: list) -> bool:
        if pos == len(constrained):
            # each residual equation was checked when its last unknown was set
            out = list(current)
            for v in free:
                out[v] = M.identity
            solutions.append(out)
            return len(solutions) >= limit
        v = constrained[pos]
        for value in domains[v]:
            current[v] = value
            done = False
            ok = True
            for vs, r in by_var[v]:
                if all(current[w] is not None for w in vs):
                    if M.sum(current[w] for w in vs) != r:
                        ok = False
                        break
            if ok:
                done = extend(pos + 1, current)
            current[v] = None
            if done:
                return True
        return False

    extend(0, list(assignment))
    return solutions, domains


def _solve(system: ConstraintSystem, limit: int, slack: int = 0):
    """Propagate, then finish the residual: a group by the constructive
    filler, the naturals and finite monoids by search.

    Returns (solutions, steps, loose, note): at most ``limit`` complete
    assignments; the raw propagation steps, ending in the contradiction
    when there is one; whether some coordinate is left free, so that there
    are more solutions than the ones returned; and the note of a residual
    system found to have no solution, else None.

    Over a group the fillers of a compatible horn differ by normalized
    chains (Dold-Kan), which in ``K(A,m)`` are the top coordinate at level
    m and zero elsewhere.  No face sees that coordinate, and the
    constructive filler leaves it at the identity, as search would.
    """
    M = system.space.monoid
    if not (M.is_group or M.is_free_natural or M.is_finite):
        raise UndecidableError(f"no solver capability for {M.name}; undecidable here")
    assignment, steps, failed = _propagate(system, M)
    if failed is not None:
        return [], steps + [failed], False, None
    if len(steps) == len(assignment):  # each step assigned one more variable
        return [assignment], steps, False, None
    in_equation = system.shape.in_equation
    free = [v for v, a in enumerate(assignment) if a is None and v not in in_equation]
    loose = bool(free) and not (M.is_finite and len(M.elements) == 1)
    if M.is_group:
        return [_moore(system.space, system.problem).coords], steps, loose, None
    solutions, domains = _search_residual(system, M, assignment, slack, limit)
    if solutions:
        return solutions, steps, loose, None
    sizes = ", ".join(
        f"x({system.shape.variables[v]}): {len(dom)} candidates"
        for v, dom in sorted(domains.items())
    )
    return [], steps, False, f"search exhausted; {sizes or 'no residual candidates'}"


def _filler(system: ConstraintSystem, solution) -> EMSimplex:
    """A solution as a simplex, re-verified against the given faces."""
    y = tuple.__new__(EMSimplex, (system.problem.n, tuple(solution)))
    assert _fills(system.space, system.problem, y), "solver produced a non-filler; this is a bug"
    return y


def _result(system: ConstraintSystem, solutions: list, steps: list, note: Optional[str]) -> FillerResult:
    """The first solution as a re-verified filler, else no filler."""
    filler = _filler(system, solutions[0]) if solutions else None
    render = partial(
        _render_steps, system.space, system.problem.n, system.shape.rows, system.rhs, steps, note
    )
    return FillerResult(filler, render, note)


def solve_em(system: ConstraintSystem, slack: int = 0) -> FillerResult:
    """Decide the constraint system and certify the outcome.

    ``slack`` widens the per-variable search bounds over the naturals; it
    exists so the bound-soundness claim can be exercised (enlarging the
    bounds must never change a verdict).
    """
    solutions, steps, _, note = _solve(system, 1, slack)
    return _result(system, solutions, steps, note)


def count_fillers(system: ConstraintSystem, limit: int = 2) -> int:
    """How many fillers exist, counted up to ``limit``."""
    solutions, _, loose, _ = _solve(system, limit)
    return limit if solutions and loose else len(solutions)


# ---------------------------------------------------------------------------
# Constructive filler for group coefficients


def moore_filler(K: EMSpace, problem: HornProblem) -> FillerResult:
    """The classical horn filler available in any simplicial group.

    Starting from the identity simplex, each given face below k and then
    each above k is corrected in turn by adding a degeneracy of the current
    error; the simplicial identities guarantee corrections never disturb
    faces already fixed.  The result is re-verified before returning.
    """
    M = K.monoid
    if not M.is_group:
        raise ValueError(f"{M.name} is not a group; the constructive filler needs inverses")
    _require_compatible(problem)
    y = _moore(K, problem)
    assert _fills(K, problem, y), "constructive filler missed a face; this is a bug"
    return FillerResult(y, (), "constructive group filler")


def _moore(K: EMSpace, problem: HornProblem) -> EMSimplex:
    """The correction loop of ``moore_filler``, for compatible group data."""
    n, k = problem.n, problem.k
    y = K.zero(n)
    for r in range(k):
        error = K.sub(problem.faces[r], K.face(n, r, y))
        y = K.add(y, K.degeneracy(n - 1, r, error))
    for r in range(n, k, -1):
        error = K.sub(problem.faces[r], K.face(n, r, y))
        y = K.add(y, K.degeneracy(n - 1, r - 1, error))
    return y


# ---------------------------------------------------------------------------
# Brute force oracle


def _scan(target: Target, problem: HornProblem, value_bound: Optional[int]):
    """Check the horn data, then list level n: (candidates, lazy fillers)."""
    _require_compatible(problem)
    candidates = target.enumerate_level(problem.n, bound=value_bound)
    return candidates, (y for y in candidates if _fills(target, problem, y))


def iter_fillers(
    target: Target, problem: HornProblem, value_bound: Optional[int] = None
) -> Iterator[object]:
    """All fillers in canonical candidate order, by exhaustive scan."""
    yield from _scan(target, problem, value_bound)[1]


def _scan_verdict(target: Target, problem: HornProblem, value_bound: Optional[int], limit: int):
    """One scan: the oracle's verdict and the fillers counted up to ``limit``."""
    candidates, fillers = _scan(target, problem, value_bound)
    found = list(islice(fillers, limit))
    if found:
        return FillerResult(found[0], (), f"scan of {len(candidates)} candidates"), len(found)
    note = f"exhausted scan of all {len(candidates)} level-{problem.n} candidates"
    if value_bound is not None:
        note += f" (coordinate bound {value_bound})"
    return FillerResult(None, (CertStep("exhausted", None, note, None),), note), 0


def brute_force_filler(
    target: Target, problem: HornProblem, value_bound: Optional[int] = None
) -> FillerResult:
    """Exhaustive scan oracle: first verified candidate, else the scan size."""
    return _scan_verdict(target, problem, value_bound, 1)[0]


# ---------------------------------------------------------------------------
# The inner-horn counterexample over the naturals


@dataclass
class CounterexampleReport:
    space: EMSpace
    problem: HornProblem
    result: FillerResult

    def lines(self) -> list[str]:
        M = self.space.monoid
        face_desc = ", ".join(
            f"{i} -> ({','.join(M.render(c) for c in x.coords)})"
            for i, x in sorted(self.problem.faces.items())
        )
        out = [
            f"horn {self.problem.describe()} with faces {face_desc}",
        ]
        for step in self.result.steps:
            if step.kind == "assign":
                out.append(f"forced: x({step.variable}) = {M.render(step.value)}   [face {step.face}]")
            elif step.kind == "contradiction":
                out.append(f"required: {step.equation}: no solution in {M.name}   [face {step.face}]")
            else:
                out.append(step.equation)
        out.append("no filler exists")
        return out

    def to_json(self) -> dict:
        return certificate_json(self.problem, self.result)


def quasicategory_counterexample(f0: int = 0) -> CounterexampleReport:
    """The inner 3-horn over the naturals in degree 2 that admits no filler.

    The face over index 0 is a free parameter; faces 2 and 3 carry the
    values 1 and 3.  Propagation pins the last coordinate to 3 and then the
    middle coordinate would have to solve x + 3 = 1 in the naturals, which
    certifies that no filler exists.
    """
    from .monoid import nat

    if f0 < 0:
        raise ValueError("the free face value must be a natural number")
    K = EMSpace(nat(), 2, 3)
    problem = HornProblem(
        K,
        3,
        1,
        {
            0: K.simplex(2, (f0,)),
            2: K.simplex(2, (1,)),
            3: K.simplex(2, (3,)),
        },
    )
    result = solve_em(build_constraints(K, problem))
    if result.found:
        raise RuntimeError("a filler appeared where none can exist; the construction is broken")
    return CounterexampleReport(K, problem, result)


# ---------------------------------------------------------------------------
# Certificate serialization


CERTIFICATE_SCHEMA = {
    "type": "object",
    "required": ["horn", "result", "witness", "certificate"],
    "additionalProperties": False,
    "properties": {
        "horn": {
            "type": "object",
            "required": ["n", "k", "faces"],
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer"},
                "k": {"type": "integer"},
                "faces": {
                    "type": "object",
                    "patternProperties": {
                        "^[0-9]+$": {
                            "type": "array",
                            "items": {
                                "anyOf": [{"type": "integer"}, {"type": "string"}]
                            },
                        }
                    },
                    "additionalProperties": False,
                },
            },
        },
        "result": {"enum": ["filler", "no_filler"]},
        "witness": {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "array",
                    "items": {"anyOf": [{"type": "integer"}, {"type": "string"}]},
                },
            ]
        },
        "certificate": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["step", "equation"],
                "additionalProperties": False,
                "properties": {
                    "step": {"enum": ["assign", "contradiction", "exhausted"]},
                    "variable": {"anyOf": [{"type": "string"}, {"type": "null"}]},
                    "equation": {"type": "string"},
                    "value": {"anyOf": [{"type": "integer"}, {"type": "null"}]},
                },
            },
        },
    },
}


def certificate_json(problem: HornProblem, result: FillerResult) -> dict:
    """Render a decision in the documented JSON certificate layout.

    Coefficient coordinates serialize as integers; simplex identifiers of
    finite simplicial-set targets serialize as their display strings.
    """
    encode = problem.target.encode
    witness = encode(result.filler) if result.found else None
    faces = {str(i): encode(x) for i, x in sorted(problem.faces.items())}
    return {
        "horn": {"n": problem.n, "k": problem.k, "faces": faces},
        "result": "filler" if result.found else "no_filler",
        "witness": witness,
        "certificate": [
            {
                "step": s.kind,
                "variable": s.variable,
                "equation": s.equation,
                "value": s.value,
            }
            for s in result.steps
        ],
    }


# ---------------------------------------------------------------------------
# Sweeps


def iter_compatible_horn_data(
    target: Target, n: int, k: int, bound: Optional[int] = None
) -> Iterator[HornProblem]:
    """Every compatible horn assignment, in canonical order.

    Candidate faces are enumerated per given index and extended one at a
    time; a projection onto the faces shared with earlier choices prunes the
    search, so only compatible tuples are ever completed.  For infinite
    coefficient monoids the candidate coordinates are capped at ``bound``.
    """
    given = [i for i in range(n + 1) if i != k]
    candidates = target.enumerate_level(n - 1, bound=bound)

    if n == 1:
        for x in candidates:
            yield HornProblem(target, n, k, {given[0]: x})
        return

    projections = []
    cand_faces = [
        {i: target.face(n - 1, i, x) for i in range(n)} for x in candidates
    ]
    for pos in range(len(given)):
        earlier = given[:pos]
        table: dict = {}
        for idx, x in enumerate(candidates):
            key = tuple(cand_faces[idx][a] for a in earlier)
            table.setdefault(key, []).append(idx)
        projections.append(table)

    chosen: list[int] = []

    def extend(pos: int) -> Iterator[HornProblem]:
        if pos == len(given):
            faces = {given[q]: candidates[chosen[q]] for q in range(len(given))}
            yield HornProblem(target, n, k, faces)
            return
        b = given[pos]
        required = tuple(cand_faces[chosen[q]][b - 1] for q in range(pos))
        for idx in projections[pos].get(required, []):
            chosen.append(idx)
            yield from extend(pos + 1)
            chosen.pop()

    yield from extend(0)


@dataclass
class SweepReport:
    target: str
    mode: str
    max_dim: int
    bound: Optional[int]
    instances: int
    passed: bool
    witness: Optional[HornProblem] = None
    witness_result: Optional[FillerResult] = None
    unique: Optional[bool] = None
    nonunique_witness: Optional[HornProblem] = None

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        head = (
            f"{self.mode} sweep of {self.target} up to dimension {self.max_dim}: "
            f"{status} ({self.instances} horn instances"
        )
        head += ")" if self.bound is None else f", coordinate bound {self.bound})"
        lines = [head]
        if self.witness is not None:
            lines.append(f"counterexample: {self.witness.describe()}")
            for i, x in sorted(self.witness.faces.items()):
                entries = ", ".join(map(str, self.witness.target.encode(x)))
                lines.append(f"  face {i}: [{entries}]")
            for step in self.witness_result.steps:
                lines.append(f"  {step.kind}: {step.equation}")
        if self.unique is not None:
            lines.append(
                "fillers unique" if self.unique else "fillers NOT unique"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        data = {
            "target": self.target,
            "mode": self.mode,
            "max_dim": self.max_dim,
            "bound": self.bound,
            "instances": self.instances,
            "pass": self.passed,
            "witness": None,
            "unique": self.unique,
        }
        if self.witness is not None:
            data["witness"] = certificate_json(self.witness, self.witness_result)
        return data


def _decide(target: Target, problem: HornProblem, check_unique: bool):
    """One horn's fillers counted up to 2 if ``check_unique``, else 1, and
    the verdict when there is none: one scan of a finite simplicial set, or
    one solver run over ``K(M,n)`` that validates the horn only when no
    filler vouches for it.  Over ``K(M,n)`` a filler is re-verified but no
    result is built for it."""
    limit = 2 if check_unique else 1
    if not isinstance(target, EMSpace):
        result, count = _scan_verdict(target, problem, None, limit)
        return (None if count else result), count
    system = _compile(target, problem)
    solutions, steps, loose, note = _solve(system, limit)
    if not solutions:
        _require_compatible(problem)
        return _result(system, solutions, steps, note), 0
    _filler(system, solutions[0])
    return None, limit if loose else len(solutions)


def _sweep(
    target: Target,
    max_dim: int,
    bound: Optional[int],
    inner_only: bool,
    check_unique: bool = False,
) -> SweepReport:
    if bound is not None and bound < 0:
        raise ValueError(f"coordinate bound {bound} is negative")
    mode = "quasicategory" if inner_only else "kan"
    name = target.name
    instances = 0
    unique: Optional[bool] = True if check_unique else None
    nonunique: Optional[HornProblem] = None
    top = min(max_dim, target.dim_bound)
    for n in range(1, top + 1):
        ks = range(1, n) if inner_only else range(n + 1)
        for k in ks:
            for problem in iter_compatible_horn_data(target, n, k, bound=bound):
                instances += 1
                failure, count = _decide(target, problem, check_unique)
                if failure is not None:
                    return SweepReport(
                        name, mode, max_dim, bound, instances, False,
                        witness=problem, witness_result=failure,
                        unique=unique, nonunique_witness=nonunique,
                    )
                if count > 1 and nonunique is None:
                    unique = False
                    nonunique = problem
    return SweepReport(
        name, mode, max_dim, bound, instances, True,
        unique=unique, nonunique_witness=nonunique,
    )


def sweep_quasicategory(
    target: Target,
    max_dim: int,
    bound: Optional[int] = 3,
    check_unique: bool = False,
) -> SweepReport:
    """Decide every compatible inner horn up to ``max_dim``.

    Over infinite coefficients the bound caps face coordinates, so a pass
    is bounded evidence, never a proof; a failure is a genuine witness.
    """
    return _sweep(target, max_dim, bound, inner_only=True, check_unique=check_unique)


def sweep_kan(
    target: Target, max_dim: int, bound: Optional[int] = 3
) -> SweepReport:
    """Like the inner sweep but covering outer horns as well."""
    return _sweep(target, max_dim, bound, inner_only=False)
