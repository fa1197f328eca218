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
filler exists, or some coordinates are left unset.  Over a cancellative
monoid (a group or the naturals) an equation with one unknown has at most
one solution, and ``_solve`` proves that propagation then refutes the horn
or sets every coordinate, save at n = d, where the one coordinate lies in
no equation and is set to the identity, as the constructive group filler
leaves it.  So propagation alone decides, and search runs only over
finite monoids that are not groups: it branches on the lowest open
coordinate, trying the elements in order, and propagates again, so
``_propagate`` is the one code that evaluates a row.  Every filler is
re-verified against the given faces before being reported.

Every horn maps into an ``EMSpace``; the exhaustive scan over its level
sets (``iter_fillers``, ``brute_force_filler``) is kept as an oracle for
the solver.  Results are frozen values, their certificate steps rendered
when they are built.  A sweep builds a result only for the horn it
reports as a witness, and validates only that horn: a verified filler y
proves the data compatible, d_i x_j = d_i d_j y = d_{j-1} d_i y =
d_{j-1} x_i, so validation could only pass on the others.  A
``check_unique`` sweep solves each horn once, for up to two fillers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .em import EMSimplex, EMSpace
from .monoid import CommutativeMonoid, Element, UndecidableError, nat, solve_value_all


@dataclass
class HornProblem:
    """Faces i -> x_i for every i except k, aimed at an n-simplex."""

    target: EMSpace
    n: int
    k: int
    faces: dict

    def describe(self) -> str:
        return f"Lambda^{self.k}[{self.n}] -> {self.target.name}"


def horn_from_simplex(K: EMSpace, n: int, k: int, y: EMSimplex) -> HornProblem:
    """The horn data obtained by forgetting the k-th face of a simplex."""
    faces = {i: K.face(n, i, y) for i in range(n + 1) if i != k}
    return HornProblem(K, n, k, faces)


def validate_horn(problem: HornProblem) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check the data defines a map from the horn.

    Malformed input (a shape outside the truncation, wrong face indices,
    wrong levels, coordinates that are not elements) raises ValueError.
    Returns (True, None) when all pairwise face compatibilities hold, else
    (False, (i, j)) with the first violating pair.
    """
    target, n, k = problem.target, problem.n, problem.k
    _check_shape(target, n, k)
    expected = {i for i in range(n + 1) if i != k}
    if set(problem.faces) != expected:
        raise ValueError(
            f"horn needs faces {sorted(expected)}, got {sorted(problem.faces)}"
        )
    for i, x in problem.faces.items():
        if not target.contains(n - 1, x):
            raise ValueError(f"face {i} is not a level-{n - 1} simplex of {target.name}")
    given = sorted(problem.faces)
    for pos, i in enumerate(given):
        for j in given[pos + 1 :]:
            lhs = target.face(n - 1, i, problem.faces[j])
            rhs = target.face(n - 1, j - 1, problem.faces[i])
            if lhs != rhs:
                return False, (i, j)
    return True, None


def _check_shape(target: EMSpace, n: int, k: int) -> None:
    """Refuse a horn shape Lambda^k[n] that has no horns in ``target``."""
    if n < 1:
        raise ValueError(f"horns exist in dimension >= 1, got n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"horn index {k} out of range for [{n}]")
    if n > target.dim_bound:
        raise ValueError(f"dimension {n} exceeds truncation {target.dim_bound}")


def _require_target(target: EMSpace, problem: HornProblem) -> None:
    if target is not problem.target:
        raise ValueError(f"the horn maps into {problem.target.name}, not the given {target.name}")


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


def _horn_shape(K: EMSpace, n: int, k: int) -> _HornShape:
    """The shape of the horns Lambda^k[n] -> K, built once and kept with
    the space's operator tables."""
    shape = K._horn_shapes.get((n, k))
    if shape is None:
        given = tuple(i for i in range(n + 1) if i != k)
        rows = tuple(
            (i, gen_pos, vs) for i in given for gen_pos, vs in enumerate(K.face_fibers(n, i))
        )
        shape = K._horn_shapes[n, k] = _HornShape(given, rows)
    return shape


@dataclass
class ConstraintSystem:
    """The filler conditions of one horn: the rows of its shape, shared by
    every horn of that shape, and this horn's right-hand sides in row order."""

    problem: HornProblem
    shape: _HornShape = field(repr=False)
    rhs: list = field(repr=False)

    @property
    def variables(self) -> list:
        return list(self.problem.target.gens[self.problem.n])

    @property
    def equations(self) -> list[Equation]:
        """The rows and right-hand sides as ``Equation`` objects, built on each read."""
        return [Equation(i, g, vs, r) for (i, g, vs), r in zip(self.shape.rows, self.rhs)]


def build_constraints(K: EMSpace, problem: HornProblem) -> ConstraintSystem:
    """The filler conditions as a deterministic equation list.

    Equations are ordered by given face index, then by target generator.
    A generator of the missing level that hits the basepoint under some
    face simply does not occur in that face's equations.  ``K`` must be the
    horn's own target.
    """
    _require_target(K, problem)
    _require_compatible(problem)
    return _compile(problem)


def _compile(problem: HornProblem) -> ConstraintSystem:
    """``build_constraints`` without validating the horn data: the shared
    shape, and the faces' coordinates as right-hand sides.  Each given face
    has one row per level-(n-1) generator, so its coordinates line up."""
    shape = _horn_shape(problem.target, problem.n, problem.k)
    faces = problem.faces
    rhs = [c for i in shape.given for c in faces[i].coords]
    return ConstraintSystem(problem, shape, rhs)


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


@dataclass(frozen=True)
class FillerResult:
    """A verdict: the filler or None, the certificate steps and a note."""

    filler: Optional[EMSimplex]
    steps: tuple[CertStep, ...] = ()
    note: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.filler is not None


def _render_steps(
    system: ConstraintSystem, raw: list, note: Optional[str]
) -> tuple[CertStep, ...]:
    """Raw (kind, var, e, known, value) steps on equation ``e`` of the
    system as ``CertStep``s, with the equation as ``x(g) + known = rhs``,
    then the exhaustion note if any."""
    K, rows, rhs = system.problem.target, system.shape.rows, system.rhs
    M = K.monoid
    names = K.gen_names(system.problem.n)
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


def _fills(problem: HornProblem, y) -> bool:
    n, face = problem.n, problem.target.face
    for i, x in problem.faces.items():
        if face(n, i, y) != x:
            return False
    return True


# ---------------------------------------------------------------------------
# Propagation and search


def _propagate(rows: tuple, rhs: list, assignment: list, M: CommutativeMonoid):
    """Substitute forced values from single-unknown equations to a fixpoint.

    The equations are ``rows`` (face, gen_pos, vars) with right-hand sides
    ``rhs``; ``assignment``, a value or None per variable, is extended in
    place.  This is the one code that evaluates a row.  A single-unknown
    equation with one solution determines its variable, and one with none,
    like a fully assigned equation that fails, ends the chain in a
    contradiction certificate.  In a non-cancellative finite monoid such an
    equation may have several solutions; committing to one would lose
    fillers, so it waits for search, which branches on the lowest open
    coordinate and propagates again.

    Returns (assignment, steps, failed_step), the steps as raw
    (kind, var, e, known, value) records on equation index ``e`` for
    ``_render_steps``.  When failed_step is not None the chain ended in a
    contradiction and the assignment is meaningless.
    """
    op, identity = M.op, M.identity
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


def _branch(rows: tuple, rhs: list, M: CommutativeMonoid, partial: list, unset: int):
    """Every completion of a propagated assignment with ``unset`` open
    coordinates: the lowest open one takes each element in order."""
    if not unset:
        yield partial
        return
    v = partial.index(None)
    for value in M.elements:
        trial = list(partial)
        trial[v] = value
        _, forced, failed = _propagate(rows, rhs, trial, M)
        if failed is None:
            yield from _branch(rows, rhs, M, trial, unset - 1 - len(forced))


def _solve(system: ConstraintSystem, limit: int):
    """Propagate, then finish a finite monoid that is not a group by search:
    branch on the lowest open coordinate over the elements in order and
    propagate again.

    Returns (solutions, steps, count, note): at most ``limit`` complete
    assignments; the raw propagation steps, ending in the contradiction
    when there is one; the number of fillers counted up to ``limit``,
    which exceeds the solutions returned at n = d; and the note of a
    residual system found to have no solution, else None.  Propagation
    sets only coordinates that earlier choices determine, so solutions
    come out in the scan's order over the open coordinates.

    Over a cancellative monoid (a group or the naturals) propagation
    decides.  Write a level-n generator, a surjection s: [n] -> [d], as
    its repeat set R = {p in 1..n : s(p) = s(p-1)}, which holds n - d
    tokens.  Face i drops position i, so s occurs in face i's rows when
    s(i) is repeated, and then:

    - s is the sole source of its row exactly when i = 0 and 1 is in R,
      or i = n and n is in R, or i and i+1 are both in R;
    - otherwise its row holds s and the one s' whose token has moved
      between positions i and i+1.

    A row with one unknown has at most one solution, so unless it refutes
    the horn, propagation assigns each sole source of a given face and
    spreads along the token moves at the given faces 0 < i < n.  The
    missing face k blocks only the move between k and k+1.  For n > d,
    if the leftmost token of s sits at or left of k, it slides to
    position 1, whose face 0 is given as k > 0; otherwise every token is
    right of k, and the rightmost slides to position n, whose face n is
    given as k < n.  So propagation refutes the horn or assigns every
    coordinate, and the filler is unique.  For n = d the one generator,
    the identity (R empty), lies in no row: every element fills, and the
    identity is returned, as the constructive group filler leaves it.
    A token at p puts s in the rows of faces p-1 and p, at most one of
    them missing, so at n > d search, too, sets only coordinates that
    some row constrains.
    """
    K, n = system.problem.target, system.problem.n
    M = K.monoid
    cancellative = M.is_group or M.is_free_natural
    if not (cancellative or M.is_finite):
        raise UndecidableError(f"no solver capability for {M.name}; undecidable here")
    rows, rhs = system.shape.rows, system.rhs
    assignment, steps, failed = _propagate(rows, rhs, [None] * len(K.gens[n]), M)
    if failed is not None:
        return [], steps + [failed], 0, None
    if assignment == [None]:  # n = d
        count = len(M.elements[:limit]) if M.is_finite else limit
        return [[M.identity]], steps, count, None
    unset = len(assignment) - len(steps)  # each step assigns one coordinate
    assert not (cancellative and unset), (
        "propagation left a cancellative horn open; this is a bug"
    )
    # a propagated system skips the search generator, which would cost
    # about a sixth of the solve of a typical fillable horn
    solutions = [assignment]
    if unset:
        solutions = list(islice(_branch(rows, rhs, M, assignment, unset), limit))
    if solutions:
        return solutions, steps, len(solutions), None
    names, size = K.gen_names(n), len(M.elements)
    sizes = ", ".join(f"x({names[v]}): {size} candidates" for v, a in enumerate(assignment) if a is None)
    return [], steps, 0, f"search exhausted; {sizes}"


def _filler(system: ConstraintSystem, solution) -> EMSimplex:
    """A solution as a simplex, re-verified against the given faces."""
    y = tuple.__new__(EMSimplex, (system.problem.n, tuple(solution)))
    assert _fills(system.problem, y), "solver produced a non-filler; this is a bug"
    return y


def _result(system: ConstraintSystem, solutions: list, steps: list, note: Optional[str]) -> FillerResult:
    """The first solution as a re-verified filler, else no filler."""
    filler = _filler(system, solutions[0]) if solutions else None
    return FillerResult(filler, _render_steps(system, steps, note), note)


def solve_em(system: ConstraintSystem) -> FillerResult:
    """Decide the constraint system and certify the outcome.

    Over a cancellative monoid the certificate is the chain of forced
    values, ending in a contradiction when no filler exists; over a finite
    monoid that is not a group a failed search ends it in an ``exhausted``
    step.  Raises ``UndecidableError`` for a monoid with no solver
    capability; over a cancellative monoid propagation always decides
    (see ``_solve``).
    """
    solutions, steps, _, note = _solve(system, 1)
    return _result(system, solutions, steps, note)


def count_fillers(system: ConstraintSystem, limit: int = 2) -> int:
    """How many fillers exist, counted up to ``limit``, which must be at least 1."""
    if limit < 1:
        raise ValueError(f"filler count limit {limit} is below 1")
    return _solve(system, limit)[2]


# ---------------------------------------------------------------------------
# Constructive filler for group coefficients


def moore_filler(K: EMSpace, problem: HornProblem) -> FillerResult:
    """The classical horn filler available in any simplicial group.

    Starting from the identity simplex, each given face below k and then
    each above k is corrected in turn by adding a degeneracy of the current
    error; the simplicial identities guarantee corrections never disturb
    faces already fixed.  The result is re-verified before returning.
    """
    _require_target(K, problem)
    M = K.monoid
    if not M.is_group:
        raise ValueError(f"{M.name} is not a group; the constructive filler needs inverses")
    _require_compatible(problem)
    n, k = problem.n, problem.k
    y = K.zero(n)
    for r in range(k):
        error = K.sub(problem.faces[r], K.face(n, r, y))
        y = K.add(y, K.degeneracy(n - 1, r, error))
    for r in range(n, k, -1):
        error = K.sub(problem.faces[r], K.face(n, r, y))
        y = K.add(y, K.degeneracy(n - 1, r - 1, error))
    assert _fills(problem, y), "constructive filler missed a face; this is a bug"
    return FillerResult(y, (), "constructive group filler")


# ---------------------------------------------------------------------------
# Brute force oracle


def _scan(problem: HornProblem, value_bound: Optional[int]):
    """Check the horn data, then list level n: (candidates, lazy fillers)."""
    _require_compatible(problem)
    candidates = problem.target.enumerate_level(problem.n, bound=value_bound)
    return candidates, (y for y in candidates if _fills(problem, y))


def iter_fillers(
    target: EMSpace, problem: HornProblem, value_bound: Optional[int] = None
) -> Iterator[EMSimplex]:
    """All fillers in canonical candidate order, by exhaustive scan."""
    _require_target(target, problem)
    yield from _scan(problem, value_bound)[1]


def brute_force_filler(
    target: EMSpace, problem: HornProblem, value_bound: Optional[int] = None
) -> FillerResult:
    """Exhaustive scan oracle: first verified candidate, else the scan size."""
    _require_target(target, problem)
    candidates, fillers = _scan(problem, value_bound)
    y = next(fillers, None)
    if y is not None:
        return FillerResult(y, (), f"scan of {len(candidates)} candidates")
    note = f"exhausted scan of all {len(candidates)} level-{problem.n} candidates"
    if value_bound is not None:
        note += f" (coordinate bound {value_bound})"
    return FillerResult(None, (CertStep("exhausted", None, note, None),), note)


# ---------------------------------------------------------------------------
# The inner-horn counterexample over the naturals


@dataclass
class CounterexampleReport:
    problem: HornProblem
    result: FillerResult

    def lines(self) -> list[str]:
        M = self.problem.target.monoid
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
            else:  # the chain ends in its contradiction
                out.append(f"required: {step.equation}: no solution in {M.name}   [face {step.face}]")
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
    return CounterexampleReport(problem, result)


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
    """Render a decision in the documented JSON certificate layout: each
    simplex as the list of its coefficient coordinates."""
    witness = list(result.filler.coords) if result.found else None
    faces = {str(i): list(x.coords) for i, x in sorted(problem.faces.items())}
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
    target: EMSpace, n: int, k: int, bound: Optional[int] = None
) -> Iterator[HornProblem]:
    """Every compatible horn assignment, in canonical order.

    Candidate faces are enumerated per given index and extended one at a
    time; a projection onto the faces shared with earlier choices prunes the
    search, so only compatible tuples are ever completed.  For infinite
    coefficient monoids the candidate coordinates are capped at ``bound``.
    A shape with no horns in ``target`` raises as ``validate_horn`` does.
    """
    _check_shape(target, n, k)
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
            render = self.witness.target.monoid.render
            for i, x in sorted(self.witness.faces.items()):
                entries = ", ".join(map(render, x.coords))
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


def _decide(problem: HornProblem, check_unique: bool):
    """One horn's fillers counted up to 2 if ``check_unique``, else 1, and
    the verdict when there is none, from one solver run that validates the
    horn only when no filler vouches for it.  A filler is re-verified but no
    result is built for it."""
    system = _compile(problem)
    solutions, steps, count, note = _solve(system, 2 if check_unique else 1)
    if not solutions:
        _require_compatible(problem)
        return _result(system, solutions, steps, note), 0
    _filler(system, solutions[0])
    return None, count


def _sweep(
    target: EMSpace,
    max_dim: int,
    bound: Optional[int],
    inner_only: bool,
    check_unique: bool = False,
) -> SweepReport:
    if bound is not None and bound < 0:
        raise ValueError(f"coordinate bound {bound} is negative")
    if not 0 <= max_dim <= target.dim_bound:
        raise ValueError(f"sweep dimension {max_dim} outside truncation 0..{target.dim_bound}")
    if target.monoid.is_finite:
        bound = None  # every element is enumerated, so no bound applies
    mode = "quasicategory" if inner_only else "kan"
    name = target.name
    instances = 0
    unique: Optional[bool] = True if check_unique else None
    nonunique: Optional[HornProblem] = None
    for n in range(1, max_dim + 1):
        ks = range(1, n) if inner_only else range(n + 1)
        for k in ks:
            for problem in iter_compatible_horn_data(target, n, k, bound=bound):
                instances += 1
                failure, count = _decide(problem, check_unique)
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
    target: EMSpace,
    max_dim: int,
    bound: Optional[int] = 3,
    check_unique: bool = False,
) -> SweepReport:
    """Decide every compatible inner horn up to ``max_dim``.

    Over infinite coefficients the bound caps face coordinates, so a pass
    is bounded evidence, never a proof; a failure is a genuine witness.
    Over a finite monoid every element is enumerated and no bound applies.
    A ``max_dim`` outside ``0..target.dim_bound``, like a negative bound,
    raises ``ValueError`` before any horn is enumerated.
    """
    return _sweep(target, max_dim, bound, inner_only=True, check_unique=check_unique)


def sweep_kan(
    target: EMSpace, max_dim: int, bound: Optional[int] = 3
) -> SweepReport:
    """Like the inner sweep but covering outer horns as well; ``max_dim``
    and ``bound`` are refused in the same way."""
    return _sweep(target, max_dim, bound, inner_only=False)
