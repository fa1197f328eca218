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
filler exists, or some coordinates are left unset.  Over a monoid with
``is_cancellative`` set, ``M.solve`` gives an equation with one unknown at
most one solution, and ``_solve`` proves that propagation then refutes the
horn or sets every coordinate, save at n = d, where the one coordinate lies
in no equation and is set to the identity, as the constructive group
filler leaves it.  So propagation alone decides, and search runs only over
finite monoids that are not groups: it branches on the lowest open
coordinate, trying the elements in order, and propagates again, so
``_propagate`` is the one code that evaluates a row.  Propagation records
which row set which coordinate; a certificate step's values are read off
the filler, or off the partial assignment where the horn is refuted.

``_solve`` is the one decision, made once per horn by a sweep, ``solve_em``
and ``count_fillers``.  Over a cancellative monoid at n > d it first reads
the shape's filler map, the unique filler as one function of the
right-hand sides, which replays the steps of the shape's first filled
horn, and propagates only where the map gives no filler.  It checks every
solution it returns against the given faces once.

Validation and that check are compiled per shape as well.  One
``_HornShape`` per shape, cached on the space, refuses a shape with no
horns and holds the given face indices, the rows and the layout of the
faces' concatenated coordinates, which are the right-hand sides.  Its
``faces_of`` gives all given faces of a level-n simplex, concatenated in
the same layout, in one call, so a filler is checked by one comparison
with the right-hand sides.  The face compatibilities
d_i x_j = d_{j-1} x_i, one row per given pair i < j and level-(n-2)
generator, become two face plans over the same coordinates, built on the
shape's first validation; a horn is compatible when both give one tuple.
Validation checks every face's membership in one call to the target,
which names the first bad face, then lays out the right-hand sides once
for that check; ``build_constraints`` lays them out again for its system.

Every horn maps into an ``EMSpace``; the exhaustive scan over its level
set (``brute_force_filler``) is kept as an oracle for the solver.  Results
are frozen values, their certificate steps named tuples rendered when they
are built, each in one pass.  ``Equation`` and ``CertStep`` are
``collections.namedtuple``s; the other records are plain classes on
``_Record``, which gives field equality, a field repr and no hash, and
``FillerResult`` alone is frozen and hashable, so importing the module
loads no ``dataclasses`` or ``typing``.  A sweep lists each level once,
with its simplices' faces, and joins it into each shape's horns, each as its
concatenated coordinates: faces are chosen in given-index order, each
looked up by its faces at the earlier indices, which must equal d_{j-1}
of the earlier choices, so the horns come in the lexicographic order of
the product.  It decides each, for up to two fillers if asked, builds a
``HornProblem`` and a result only for its witnesses, and validates only a
failing one: a checked filler y proves its data compatible,
d_i x_j = d_i d_j y = d_{j-1} d_i y = d_{j-1} x_i.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import islice

from .em import EMSimplex, EMSpace, _face_plan, _gather
from .monoid import CommutativeMonoid, UndecidableError, nat


class _Record:
    """Equality, repr and no hash for the records below: a record's fields
    are its instance attributes, set in order by its ``__init__``, and its
    repr leaves out those named in ``_hidden``."""

    __hash__ = None
    _hidden = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items() if k not in self._hidden)
        return f"{type(self).__qualname__}({fields})"


class HornProblem(_Record):
    """Faces i -> x_i for every i except k, aimed at an n-simplex."""

    def __init__(self, target: EMSpace, n: int, k: int, faces: dict):
        self.target, self.n, self.k, self.faces = target, n, k, faces

    def describe(self) -> str:
        return f"Lambda^{self.k}[{self.n}] -> {self.target.name}"


def horn_from_simplex(K: EMSpace, n: int, k: int, y: EMSimplex) -> HornProblem:
    """The horn data obtained by forgetting the k-th face of a simplex."""
    faces = {i: K.face(n, i, y) for i in _horn_shape(K, n, k).given}
    return HornProblem(K, n, k, faces)


def validate_horn(problem: HornProblem) -> tuple[bool, tuple[int, int] | None]:
    """Check the data defines a map from the horn.

    Malformed input (a shape outside the truncation, wrong face indices,
    wrong levels, coordinates that are not elements) raises ValueError.
    Returns (True, None) when all pairwise face compatibilities
    d_i x_j = d_{j-1} x_i hold, else (False, (i, j)) with the first
    violating pair i < j.  Membership is checked in one call over every
    face (``EMSpace.first_outside``), which names the first bad face in the
    dict's order; the compatibilities are checked at once, on the faces'
    concatenated coordinates (``_HornShape.coords``), by the check compiled
    for the shape (``_HornShape.violation``).
    """
    target, n, faces = problem.target, problem.n, problem.faces
    shape = _horn_shape(target, n, problem.k)
    for i in faces:
        if type(i) is not int:
            raise ValueError(f"face index {i!r} is not an int")
    if set(faces) != set(shape.given):
        raise ValueError(f"horn needs faces {list(shape.given)}, got {sorted(faces)}")
    bad = target.first_outside(n - 1, faces)
    if bad is not None:
        raise ValueError(f"face {bad} is not a level-{n - 1} simplex of {target.name}")
    pair = shape.violation(target, shape.coords(faces))
    return pair is None, pair


def _require_target(target: EMSpace, problem: HornProblem) -> None:
    if target is not problem.target:
        raise ValueError(f"the horn maps into {problem.target.name}, not the given {target.name}")


def _require_compatible(problem: HornProblem) -> None:
    ok, violation = validate_horn(problem)
    if not ok:
        raise ValueError(f"incompatible horn data at face pair {violation}")


# ---------------------------------------------------------------------------
# Constraint systems over EM spaces


Equation = namedtuple("Equation", "face gen_pos vars rhs")
Equation.__doc__ = """Subset sum over the level-n generators: sum of vars = rhs."""


class _HornShape:
    """What the horns Lambda^k[n] -> K owe to their shape (K, n, k) alone,
    built once by ``_horn_shape`` and kept with the space's operator tables.
    Construction refuses a shape that has no horns in K."""

    def __init__(self, K: EMSpace, n: int, k: int):
        if n < 1:
            raise ValueError(f"horns exist in dimension >= 1, got n={n}")
        if not 0 <= k <= n:
            raise ValueError(f"horn index {k} out of range for [{n}]")
        if n > K.dim_bound:
            raise ValueError(f"dimension {n} exceeds truncation {K.dim_bound}")
        self.given = tuple(i for i in range(n + 1) if i != k)  # the given face indices, in order
        # (face, gen_pos, vars): one equation per given face and level-(n-1) generator
        self.rows = tuple(
            (i, gen_pos, vs) for i in self.given for gen_pos, vs in enumerate(K.face_fibers(n, i))
        )
        # a level-n simplex's given faces, their coordinates concatenated in
        # face order, as one plan; built from the fibers ``face`` reads, so
        # the check that a filler has the given faces never reads ``rows``
        fibers = [fiber for i in self.given for fiber in K._fibers(n, i)]
        self.faces_of = _face_plan(fibers, K.monoid)
        self.check = None  # (left, right, owners), built on the shape's first validation
        self.fill = None  # (filler map, steps), built by ``_solve`` on its first filled horn

    def coords(self, faces: dict) -> tuple:
        """The given faces' coordinates, concatenated in face order: the
        right-hand sides of ``rows``, what ``faces_of`` gives a filler and
        what ``check`` reads."""
        return sum([faces[i].coords for i in self.given], ())

    def faces(self, rhs: tuple) -> dict:
        """The given faces whose coordinates ``coords`` concatenates to ``rhs``."""
        n, width = len(self.given), len(rhs) // len(self.given)  # every index of [n] but k
        return {i: EMSimplex(n - 1, rhs[p * width:(p + 1) * width]) for p, i in enumerate(self.given)}

    def violation(self, K: EMSpace, coords: tuple) -> tuple[int, int] | None:
        """The first given pair i < j with d_i x_j != d_{j-1} x_i, else None,
        for the faces whose concatenated coordinates are ``coords``.

        The first call builds ``check``: per given pair i < j, in order, and
        level-(n-2) generator, the left plan sums a fiber of face i over x_j
        and the right one a fiber of face j-1 over x_i; ``owners`` holds
        each row's pair."""
        if self.check is None:
            given = self.given
            n = len(given)  # every index of [n] but k
            width = K.rank(n - 1)
            slot = {i: pos * width for pos, i in enumerate(given)}
            left, right, owners = [], [], []
            for pos, i in enumerate(given):
                for j in given[pos + 1 :]:
                    for lf, rf in zip(K.face_fibers(n - 1, i), K.face_fibers(n - 1, j - 1)):
                        left.append(tuple(slot[j] + s for s in lf))
                        right.append(tuple(slot[i] + s for s in rf))
                        owners.append((i, j))
            self.check = _face_plan(left, K.monoid), _face_plan(right, K.monoid), owners
        left, right, owners = self.check
        lhs, rhs = left(coords), right(coords)
        if lhs == rhs:
            return None
        return next(owners[row] for row, (a, b) in enumerate(zip(lhs, rhs)) if a != b)


def _horn_shape(K: EMSpace, n: int, k: int) -> _HornShape:
    """The shape of the horns Lambda^k[n] -> K, from the space's cache; a
    refused shape is never cached, so it is refused on every call.  Indices
    must be ints: ``(2, False)`` would find the shape cached for ``(2, 0)``."""
    if type(n) is not int or type(k) is not int:
        raise ValueError(f"horn indices must be ints, got n={n!r}, k={k!r}")
    shape = K._horn_shapes.get((n, k))
    if shape is None:
        shape = K._horn_shapes[n, k] = _HornShape(K, n, k)
    return shape


class ConstraintSystem(_Record):
    """The filler conditions of one horn: the rows of its shape, shared by
    every horn of that shape, and this horn's right-hand sides in row order."""

    _hidden = ("shape", "rhs")

    def __init__(self, problem: HornProblem, shape: _HornShape, rhs: tuple):
        self.problem, self.shape, self.rhs = problem, shape, rhs

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
    # each given face has one row per level-(n-1) generator, so its coordinates line up
    shape = _horn_shape(K, problem.n, problem.k)
    return ConstraintSystem(problem, shape, shape.coords(problem.faces))


# ---------------------------------------------------------------------------
# Results and certificates


CertStep = namedtuple(
    "CertStep", "kind variable equation value known rhs face", defaults=(None, None, None)
)
CertStep.__doc__ = """One step of a certificate: a forced assignment, the
contradiction that ends a chain, or an exhaustion note.  ``kind`` is
"assign", "contradiction" or "exhausted"; ``known``, ``rhs`` and ``face``
default to None.  A named tuple, so immutable and equal to a plain tuple
of the same value."""


class FillerResult(_Record):
    """A verdict: the filler or None, the certificate steps and a note.
    Frozen, and hashed by its fields."""

    def __init__(self, filler: EMSimplex | None, steps: tuple = (), note: str | None = None):
        self.__dict__.update(filler=filler, steps=steps, note=note)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a FillerResult")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a FillerResult")

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    @property
    def found(self) -> bool:
        return self.filler is not None


def _render_steps(
    system: ConstraintSystem, raw: list, values, note: str | None
) -> tuple[CertStep, ...]:
    """The (var, e) steps on equation ``e`` of the system as ``CertStep``s,
    read off ``values``, a value or None per coordinate: the filler, else
    the partial assignment at the contradiction or at exhaustion.  A step's
    ``known`` folds row e's other coordinates in row order and its ``value``
    is x_var; a step whose variable ``values`` leaves open, or that has
    none, is the contradiction that ends the chain.  The equation reads
    ``x(g) + known = rhs``, without ``known`` where it is the identity;
    the exhaustion note, if any, comes last.  Each step is built in one
    pass, its text by one f-string."""
    K, rows, rhs = system.problem.target, system.shape.rows, system.rhs
    M = K.monoid
    op, identity, render, names = M.op, M.identity, M.render, K.gen_names(system.problem.n)
    new = tuple.__new__
    steps = []
    for var, e in raw:
        face, _, row = rows[e]
        known = identity
        for v in row:
            if v != var:
                known = op(known, values[v])
        b = rhs[e]
        if var is None:
            text, name, value = f"{render(known)} = {render(b)}", None, None
        else:
            name, value = names[var], values[var]
            if known == identity:
                text = f"x({name}) = {render(b)}"
            else:
                text = f"x({name}) + {render(known)} = {render(b)}"
        kind = "contradiction" if value is None else "assign"
        steps.append(new(CertStep, (kind, name, text, value, known, b, face)))
    if note is not None:
        steps.append(new(CertStep, ("exhausted", None, note, None, None, None, None)))
    return tuple(steps)


def step_line(step: CertStep, M: CommutativeMonoid) -> str:
    """A certificate step as ``check-horn`` prints it."""
    if step.kind == "assign":
        return f"forced: x({step.variable}) = {M.render(step.value)}   [face {step.face}]"
    if step.kind == "contradiction":
        return f"required: {step.equation}: no solution in {M.name}"
    return step.equation


def _fills(shape: _HornShape, rhs: tuple, coords) -> bool:
    """Whether the level-n coordinates ``coords`` have the given faces,
    whose concatenated coordinates are ``rhs``: one call of the shape's
    ``faces_of``, which reads every given face."""
    return shape.faces_of(coords) == rhs


# ---------------------------------------------------------------------------
# Propagation and search


def _propagate(rows: tuple, rhs: tuple, assignment: list, M: CommutativeMonoid):
    """Substitute forced values from single-unknown equations to a fixpoint.

    The equations are ``rows`` (face, gen_pos, vars) with right-hand sides
    ``rhs``; ``assignment``, a value or None per variable, is extended in
    place.  This is the one code that evaluates a row.  A single-unknown
    equation with one solution in ``M.solve`` determines its variable, and
    one with none, like a fully assigned equation that fails, ends the chain
    in a contradiction certificate.  In a non-cancellative finite monoid
    such an equation may have several solutions; committing to one would
    lose fillers, so it waits for search, which branches on the lowest open
    coordinate and propagates again.

    Returns (steps, failed): the (var, e) of each assignment, in order, on
    equation index ``e``, and the (var, e) of the row that refutes the
    horn, var None when the row has no unknown, else None.  ``_render_steps``
    reads the rest of each step off an assignment.
    """
    op, identity, solve = M.op, M.identity, M.solve
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
                        return steps, (None, e)
                    continue
                solutions = solve(known, rhs[e])
                if not solutions:
                    return steps, (var, e)
                if len(solutions) > 1:
                    remaining.append(e)
                    continue
                assignment[var] = solutions[0]
                steps.append((var, e))
                progress = True
        pending = remaining
    return steps, None


def _branch(rows: tuple, rhs: tuple, M: CommutativeMonoid, partial: list, unset: int):
    """Every completion of a propagated assignment with ``unset`` open
    coordinates: the lowest open one takes each element in order."""
    if not unset:
        yield tuple(partial)
        return
    v = partial.index(None)
    for value in M.elements:
        trial = list(partial)
        trial[v] = value
        forced, failed = _propagate(rows, rhs, trial, M)
        if failed is None:
            yield from _branch(rows, rhs, M, trial, unset - 1 - len(forced))


def _filler_map(shape: _HornShape, steps: list, M: CommutativeMonoid):
    """A shape's filler over a cancellative ``M`` at n > d as one function of
    the right-hand sides: it replays the ``steps`` (var, e) that fill one
    horn, gathering rhs[e] for each x_var, then in step order solving
    x_u + x_var = rhs[e] by ``M.solve`` on each row e that holds a second,
    earlier set x_u (a row holds one or two), and gives None where one fails."""
    pick = _gather([e for _, e in sorted(steps)])
    rest = [(var, u) for var, e in steps for u in shape.rows[e][2] if u != var]
    solve = M.solve

    def fill(rhs):
        out = list(pick(rhs))
        for var, u in rest:
            solved = solve(out[u], out[var])
            if not solved:
                return None
            out[var] = solved[0]
        return tuple(out)

    return fill


def _solve(K: EMSpace, n: int, shape: _HornShape, rhs: tuple, limit: int):
    """Decide the horn of ``shape`` in ``K`` whose given faces have the
    concatenated coordinates ``rhs``, which is all it reads of the horn.
    Try the shape's filler map, if built; where it gives no filler,
    propagate, then finish a finite monoid that is not a group by search:
    branch on the lowest open coordinate over the elements in order and
    propagate again.  Each solution returned is checked once, by ``_fills``.
    Over a cancellative monoid at n > d the first filled horn builds the map
    from its steps: each row propagation solves has one solution or ends
    the chain, so it takes the same steps on every horn that fills, and a
    map hit returns them, one list per shape.

    Returns (solutions, count, steps, values, note): at most ``limit``
    complete assignments, as coordinate tuples; the number of fillers
    counted up to ``limit``, which exceeds the solutions returned at n = d;
    the (var, e) propagation steps, ending in the refuting row when there
    is one; what ``_render_steps`` reads them off, the first solution, else
    the partial assignment; and the note of a residual system found to have
    no solution, else None.  Propagation sets only coordinates that earlier
    choices determine, so solutions come out in the scan's order over the
    open coordinates.

    Over a monoid with ``M.is_cancellative``, where ``M.solve`` gives a row
    with one unknown at most one solution, propagation decides.  Write a
    level-n generator, a surjection s: [n] -> [d], as its repeat set
    R = {p in 1..n : s(p) = s(p-1)}, which holds n - d tokens.  Face i
    drops position i, so s occurs in face i's rows when s(i) is repeated,
    and then:

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
    if shape.fill is not None:
        fill, steps = shape.fill
        coords = fill(rhs)  # None where the map finds no filler
        if coords is not None and _fills(shape, rhs, coords):
            return [coords], 1, steps, coords, None
    M = K.monoid
    if not (M.is_cancellative or M.is_finite):
        raise UndecidableError(f"no solver capability for {M.name}; undecidable here")
    rows = shape.rows
    assignment = [None] * len(K.gens[n])
    steps, failed = _propagate(rows, rhs, assignment, M)
    if failed is not None:
        return [], 0, steps + [failed], assignment, None
    if assignment == [None]:  # n = d
        solutions = [(M.identity,)]
        count = len(M.elements[:limit]) if M.is_finite else limit
    else:
        unset = len(assignment) - len(steps)  # each step assigns one coordinate
        if M.is_cancellative and unset:
            raise AssertionError("propagation left a cancellative horn open; this is a bug")
        # a propagated system skips the search generator, which would cost
        # about a sixth of the solve of a typical fillable horn
        solutions = [tuple(assignment)]
        if unset:
            solutions = list(islice(_branch(rows, rhs, M, assignment, unset), limit))
        count = len(solutions)
    for solution in solutions:
        if not _fills(shape, rhs, solution):
            raise AssertionError("solver produced a non-filler; this is a bug")
    if not solutions:
        names, size = K.gen_names(n), len(M.elements)
        sizes = ", ".join(f"x({names[v]}): {size} candidates" for v, a in enumerate(assignment) if a is None)
        return [], 0, steps, assignment, f"search exhausted; {sizes}"
    if shape.fill is None and M.is_cancellative and n > K.degree:
        shape.fill = _filler_map(shape, steps, M), steps
    return solutions, count, steps, solutions[0], None


def solve_em(system: ConstraintSystem) -> FillerResult:
    """Decide the constraint system and certify the outcome.

    Over a cancellative monoid the certificate is the chain of forced
    values, ending in a contradiction when no filler exists; over a finite
    monoid that is not a group a failed search ends it in an ``exhausted``
    step.  Raises ``UndecidableError`` for a monoid with no solver
    capability; over a cancellative monoid propagation always decides
    (see ``_solve``).
    """
    problem = system.problem
    solutions, _, steps, values, note = _solve(problem.target, problem.n, system.shape, system.rhs, 1)
    filler = tuple.__new__(EMSimplex, (problem.n, solutions[0])) if solutions else None
    return FillerResult(filler, _render_steps(system, steps, values, note), note)


def count_fillers(system: ConstraintSystem, limit: int = 2) -> int:
    """How many fillers exist, counted up to ``limit``, which must be at least 1."""
    if limit < 1:
        raise ValueError(f"filler count limit {limit} is below 1")
    problem = system.problem
    # ``_solve`` checks every solution the count rests on
    return _solve(problem.target, problem.n, system.shape, system.rhs, limit)[1]


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
    shape = _horn_shape(K, n, k)
    if not _fills(shape, shape.coords(problem.faces), y.coords):
        raise AssertionError("constructive filler missed a face; this is a bug")
    return FillerResult(y, (), "constructive group filler")


# ---------------------------------------------------------------------------
# Brute force oracle


def brute_force_filler(
    target: EMSpace, problem: HornProblem, value_bound: int | None = None
) -> FillerResult:
    """Exhaustive scan oracle: the first candidate of level n, in canonical
    order, that has the given faces, else the scan size."""
    _require_target(target, problem)
    _require_compatible(problem)
    shape = _horn_shape(target, problem.n, problem.k)
    rhs = shape.coords(problem.faces)
    candidates = target.enumerate_level(problem.n, bound=value_bound)
    y = next((y for y in candidates if _fills(shape, rhs, y.coords)), None)
    if y is not None:
        return FillerResult(y, (), f"scan of {len(candidates)} candidates")
    note = f"exhausted scan of all {len(candidates)} level-{problem.n} candidates"
    if value_bound is not None:
        note += f" (coordinate bound {value_bound})"
    return FillerResult(None, (CertStep("exhausted", None, note, None),), note)


# ---------------------------------------------------------------------------
# The inner-horn counterexample over the naturals


class CounterexampleReport(_Record):
    def __init__(self, problem: HornProblem, result: FillerResult):
        self.problem, self.result = problem, result

    def lines(self) -> list[str]:
        M = self.problem.target.monoid
        face_desc = ", ".join(
            f"{i} -> ({','.join(M.render(c) for c in x.coords)})"
            for i, x in sorted(self.problem.faces.items())
        )
        out = [
            f"horn {self.problem.describe()} with faces {face_desc}",
        ]
        for step in self.result.steps:  # forced values, then the contradiction
            line = step_line(step, M)
            out.append(line if step.kind == "assign" else f"{line}   [face {step.face}]")
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
    if type(f0) is not int or f0 < 0:
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
                        "^[0-9]+$": {"type": "array", "items": {"type": "integer"}}
                    },
                    "additionalProperties": False,
                },
            },
        },
        "result": {"enum": ["filler", "no_filler"]},
        "witness": {
            "anyOf": [
                {"type": "null"},
                {"type": "array", "items": {"type": "integer"}},
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
    target: EMSpace, n: int, k: int, bound: int | None = None
) -> Iterator[HornProblem]:
    """Every compatible horn assignment, in the lexicographic order of the
    product of the level-(n-1) candidates over the given indices.

    Infinite coefficients are capped at ``bound``.  A shape with no horns
    in ``target`` raises on the first ``next``, as ``validate_horn`` does.
    """
    given = _horn_shape(target, n, k).given
    for faces in _compatible_faces(given, _level_faces(target, n, bound), lambda x: (x,)):
        yield HornProblem(target, n, k, dict(zip(given, faces)))


def _level_faces(target: EMSpace, n: int, bound: int | None) -> list:
    """The level-(n-1) candidates, each with its faces at 0..n-1 (none at
    n = 1), a level-(n-2) face keyed by a number, the order it was first
    seen in: what the horns of every shape (n, k) are chosen from."""
    ids: dict = {}
    return [
        (x, tuple([ids.setdefault(target.face(n - 1, i, x), len(ids))
                   for i in (range(n) if n > 1 else ())]))
        for x in target.enumerate_level(n - 1, bound=bound)
    ]


def _compatible_faces(given: tuple, level: list, piece) -> Iterator[tuple]:
    """Every compatible horn with the ``given`` face indices whose faces
    come from ``level`` (``_level_faces``), in the order of
    ``iter_compatible_horn_data``, as the concatenation of ``piece(x)`` over
    its faces x: ``x.coords`` gives its right-hand sides, ``(x,)`` its faces.

    Faces are chosen in given-index order: the choice for face j is looked
    up by its faces d_i at the earlier given indices i, which must equal
    d_{j-1} of the earlier choices, so only compatible horns are built.
    """
    last = len(given) - 1
    # per position: the candidates' pieces, in order, by their faces at the
    # earlier given indices; at the last position the pieces alone
    tables: list[dict] = [{} for _ in given]
    for x, faces in level:
        part = piece(x)
        for pos, table in enumerate(tables):
            entry = part if pos == last else (part, faces)
            table.setdefault(tuple([faces[i] for i in given[:pos]]), []).append(entry)

    def extend(chosen: tuple, faces: tuple) -> Iterator[tuple]:
        pos = len(faces)
        lower = given[pos] - 1
        matches = tables[pos].get(tuple([f[lower] for f in faces]), ())
        if pos == last:
            yield from map(chosen.__add__, matches)
            return
        for part, f in matches:
            yield from extend(chosen + part, faces + (f,))

    yield from extend((), ())


class SweepReport(_Record):
    def __init__(
        self,
        target: str,
        mode: str,
        max_dim: int,
        bound: int | None,
        instances: int,
        passed: bool,
        witness: HornProblem | None = None,
        witness_result: FillerResult | None = None,
        unique: bool | None = None,
        nonunique_witness: HornProblem | None = None,
    ):
        self.target, self.mode, self.max_dim, self.bound = target, mode, max_dim, bound
        self.instances, self.passed, self.witness = instances, passed, witness
        self.witness_result, self.unique = witness_result, unique
        self.nonunique_witness = nonunique_witness

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


def _sweep(
    target: EMSpace,
    max_dim: int,
    bound: int | None,
    inner_only: bool,
    check_unique: bool = False,
) -> SweepReport:
    """Decide the shapes ``(n, k)`` with ``2k <= n``; a shape with ``2k > n``
    adds the instance count of its mirror ``(n, n-k)`` and is not solved.

    Level n-1 is listed once, for every shape (n, k).  Each horn is decided
    by one ``_solve`` call, from its given faces' concatenated coordinates,
    for up to two fillers if ``check_unique``, and validated only when no
    filler vouches for it; no ``HornProblem`` or result is built for a
    filled horn.  Reversing ``[n]`` is an isomorphism
    ``K(M,d) ~ K(M,d)^op``: the coordinate at a generator ``s`` moves to
    ``p -> d - s(n-p)`` and face ``i`` to face ``n-i``, so the mirrored shape
    has as many compatible horns, within any coordinate bound, with as many
    fillers each.  Both sweep kinds visit ``k`` in increasing order, so the
    mirror was decided earlier, and the first failure and the first horn with
    two fillers always lie in a decided shape.
    """
    if bound is not None and bound < 0:
        raise ValueError(f"coordinate bound {bound} is negative")
    if not 0 <= max_dim <= target.dim_bound:
        raise ValueError(f"sweep dimension {max_dim} outside truncation 0..{target.dim_bound}")
    if target.monoid.is_finite:
        bound = None  # every element is enumerated, so no bound applies
    mode = "quasicategory" if inner_only else "kan"
    unique = True if check_unique else None
    report = SweepReport(target.name, mode, max_dim, bound, 0, True, unique=unique)
    limit = 2 if check_unique else 1
    for n in range(1, max_dim + 1):
        ks = range(1, n) if inner_only else range(n + 1)
        counts: dict[int, int] = {}
        level = _level_faces(target, n, bound)
        for k in ks:
            if 2 * k > n:
                report.instances += counts[n - k]
                continue
            before = report.instances
            shape = _horn_shape(target, n, k)
            for rhs in _compatible_faces(shape.given, level, lambda x: x.coords):
                report.instances += 1
                solutions, count, steps, values, note = _solve(target, n, shape, rhs, limit)
                if not solutions:
                    problem = HornProblem(target, n, k, shape.faces(rhs))
                    _require_compatible(problem)
                    report.passed, report.witness = False, problem
                    steps = _render_steps(ConstraintSystem(problem, shape, rhs), steps, values, note)
                    report.witness_result = FillerResult(None, steps, note)
                    return report
                if count > 1 and report.unique:
                    report.unique = False
                    report.nonunique_witness = HornProblem(target, n, k, shape.faces(rhs))
            counts[k] = report.instances - before
    return report


def sweep_quasicategory(
    target: EMSpace,
    max_dim: int,
    bound: int | None = 3,
    check_unique: bool = False,
) -> SweepReport:
    """Decide every compatible inner horn up to ``max_dim``.

    Over infinite coefficients the bound caps face coordinates, so a pass
    is bounded evidence, never a proof; a failure is a genuine witness.
    Over a finite monoid every element is enumerated and no bound applies.
    A ``max_dim`` outside ``0..target.dim_bound``, like a negative bound,
    raises ``ValueError`` before any horn is enumerated.  Only the shapes
    with ``2k <= n`` are solved: the reversal ``K(M,d) ~ K(M,d)^op`` takes
    ``(n, k)`` to ``(n, n-k)``, horn for horn and filler for filler.
    """
    return _sweep(target, max_dim, bound, inner_only=True, check_unique=check_unique)


def sweep_kan(
    target: EMSpace, max_dim: int, bound: int | None = 3
) -> SweepReport:
    """Like the inner sweep but covering outer horns as well; ``max_dim``
    and ``bound`` are refused in the same way, and by the same reversal
    ``K(M,d) ~ K(M,d)^op`` the shapes with ``2k > n`` count their mirror's
    horns unsolved."""
    return _sweep(target, max_dim, bound, inner_only=False)
