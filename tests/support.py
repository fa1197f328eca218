"""Independent oracles shared across the test modules.

Everything here recomputes expectations from first principles (raw tuple
manipulation, exhaustive products) so the package code under test never
certifies itself.
"""

from __future__ import annotations

import itertools
import random

from emhorn.delta import MonotoneMap, codegeneracy, coface, compose
from emhorn.em import EMSimplex, EMSpace


def surjective(f: MonotoneMap) -> bool:
    return len(set(f.values)) == f.cod + 1


def injective(f: MonotoneMap) -> bool:
    return len(set(f.values)) == len(f.values)


def brute_monotone_tuples(m: int, n: int) -> list[tuple[int, ...]]:
    """All weakly increasing (m+1)-tuples over 0..n, by filtering products.

    The product is built one coordinate at a time and filtered as it grows.
    Being weakly increasing is inherited by prefixes, so this keeps exactly
    the tuples of the full filtered product, in the same lexicographic
    order, without listing all (n+1)^(m+1) of them.
    """
    tuples = [()]
    for _ in range(m + 1):
        tuples = [t + (v,) for t in tuples for v in range(n + 1) if not t or t[-1] <= v]
    return tuples


def brute_surjection_tuples(m: int, n: int) -> list[tuple[int, ...]]:
    return [
        vals for vals in brute_monotone_tuples(m, n) if set(vals) == set(range(n + 1))
    ]


def composite_slots(K: EMSpace, k: int, i: int) -> list:
    """Per level-k generator h, the position among the level-(k-1)
    generators of h composed with the i-th coface, or None where that
    composite is not surjective."""
    position = {g: p for p, g in enumerate(K.gens[k - 1])}
    delta = coface(k, i)
    slots = []
    for h in K.gens[k]:
        composite = compose(delta, h)
        slots.append(position[composite] if surjective(composite) else None)
    return slots


def face_by_composition(K: EMSpace, k: int, i: int, x: EMSimplex) -> EMSimplex:
    """The i-th face computed directly from generator composites.

    For each generator at level k, compose with the i-th coface and add the
    coordinate onto the composite's slot when it is surjective.  This is the
    defining formula, bypassing the space's cached index tables.
    """
    M = K.monoid
    out = [M.identity] * len(K.gens[k - 1])
    for slot, value in zip(composite_slots(K, k, i), x.coords):
        if slot is not None:
            out[slot] = M.op(out[slot], value)
    return EMSimplex(k - 1, tuple(out))


def scan_fillers(problem, value_bound=None):
    """The fillers of ``problem``, lazily, in the order of the level-n
    candidates.  A candidate fills when each coordinate of each given face
    is the sum of the candidate's coordinates at the generators whose
    composite with that face's coface lands on it (``composite_slots``, the
    defining formula of ``face_by_composition``); the scan stops at the
    first coordinate that differs.  Coordinates of an infinite monoid are
    capped at ``value_bound``."""
    K, n = problem.target, problem.n
    M = K.monoid
    sums = []  # (level-n positions, face coordinate) per coordinate of a given face
    for i, x in sorted(problem.faces.items()):
        slots = composite_slots(K, n, i)
        for slot, value in enumerate(x.coords):
            sums.append(([p for p, s in enumerate(slots) if s == slot], value))

    def fills(y):
        for positions, value in sums:
            total = M.identity
            for p in positions:
                total = M.op(total, y.coords[p])
            if total != value:
                return False
        return True

    return filter(fills, K.enumerate_level(n, bound=value_bound))


def pairwise_validation(problem, face=face_by_composition):
    """``validate_horn``'s verdict on well-formed data, one pair at a time.

    For each given pair i < j in order, compare d_i x_j with d_{j-1} x_i,
    both by the defining formula (or the given ``face`` with the same
    arguments); the first pair that differs is the violation.
    """
    K, n, faces = problem.target, problem.n, problem.faces
    given = sorted(faces)
    for pos, i in enumerate(given):
        for j in given[pos + 1 :]:
            if face(K, n - 1, i, faces[j]) != face(K, n - 1, j - 1, faces[i]):
                return False, (i, j)
    return True, None


def degeneracy_by_composition(K: EMSpace, k: int, j: int, x: EMSimplex) -> EMSimplex:
    """The j-th degeneracy computed directly from generator composites.

    Each level-k generator composed with the j-th codegeneracy is a level
    k+1 generator, which receives the coordinate; generators reached by
    none keep the identity.
    """
    M = K.monoid
    out = {g: M.identity for g in K.gens[k + 1]}
    sigma = codegeneracy(k, j)
    for h, value in zip(K.gens[k], x.coords):
        composite = compose(sigma, h)
        out[composite] = M.op(out[composite], value)
    return EMSimplex(k + 1, tuple(out[g] for g in K.gens[k + 1]))


def unit_vectors(K: EMSpace) -> list[EMSimplex]:
    """Every simplex with one coordinate 1 and the others 0, level by level.

    Over the naturals these are the sphere's cells other than the basepoint
    (which is the zero vector), and an operator sends each one to a unit
    vector or to zero exactly as precomposition acts on the sphere.
    """
    return [
        EMSimplex(k, tuple(int(g == h) for h in K.gens[k]))
        for k in range(K.dim_bound + 1)
        for g in K.gens[k]
    ]


def em_identity_violations(K: EMSpace, rng, per_level: int = 200, hint: int = 1000,
                           simplices=None):
    """Re-evaluate every simplicial relation on random simplices, or on the
    given ``simplices`` instead.

    Returns a list of human-readable violation strings; empty means all of
    the dd, ss and ds relations held on every simplex checked.
    """
    bad = []
    D = K.dim_bound
    if simplices is None:
        simplices = [
            K.random_simplex(k, rng, hint) for k in range(D + 1) for _ in range(per_level)
        ]
    for x in simplices:
        k = x.level
        if k >= 2:
            for j in range(1, k + 1):
                for i in range(j):
                    if K.face(k - 1, i, K.face(k, j, x)) != K.face(
                        k - 1, j - 1, K.face(k, i, x)
                    ):
                        bad.append(f"d{i} d{j} at level {k} of {K.name}")
        if k + 2 <= D:
            for j in range(k + 1):
                for i in range(j + 1):
                    if K.degeneracy(k + 1, i, K.degeneracy(k, j, x)) != K.degeneracy(
                        k + 1, j + 1, K.degeneracy(k, i, x)
                    ):
                        bad.append(f"s{i} s{j} at level {k} of {K.name}")
        if k + 1 <= D:
            for j in range(k + 1):
                sx = K.degeneracy(k, j, x)
                for i in range(k + 2):
                    got = K.face(k + 1, i, sx)
                    if i < j:
                        want = K.degeneracy(k - 1, j - 1, K.face(k, i, x))
                    elif i in (j, j + 1):
                        want = x
                    else:
                        want = K.degeneracy(k - 1, j, K.face(k, i - 1, x))
                    if got != want:
                        bad.append(f"d{i} s{j} at level {k} of {K.name}")
    return bad


def em_homomorphism_violations(K: EMSpace, rng, samples: int = 50, hint: int = 1000):
    """Check operators are monoid maps: additive and identity-preserving."""
    bad = []
    D = K.dim_bound
    for k in range(D + 1):
        for _ in range(samples):
            x = K.random_simplex(k, rng, hint)
            y = K.random_simplex(k, rng, hint)
            s = K.add(x, y)
            if k >= 1:
                for i in range(k + 1):
                    if K.face(k, i, s) != K.add(K.face(k, i, x), K.face(k, i, y)):
                        bad.append(f"d{i} not additive at level {k} of {K.name}")
            if k < D:
                for j in range(k + 1):
                    if K.degeneracy(k, j, s) != K.add(
                        K.degeneracy(k, j, x), K.degeneracy(k, j, y)
                    ):
                        bad.append(f"s{j} not additive at level {k} of {K.name}")
        zero = K.zero(k)
        if k >= 1 and any(K.face(k, i, zero) != K.zero(k - 1) for i in range(k + 1)):
            bad.append(f"a face moves the identity at level {k} of {K.name}")
        if k < D and any(
            K.degeneracy(k, j, zero) != K.zero(k + 1) for j in range(k + 1)
        ):
            bad.append(f"a degeneracy moves the identity at level {k} of {K.name}")
    return bad


def random_compatible_horns(K: EMSpace, n: int, k: int, rng, count: int, hint: int = 10):
    """Compatible horn data obtained by forgetting a face of random simplices."""
    from emhorn.horn import horn_from_simplex

    out = []
    for _ in range(count):
        y = K.random_simplex(n, rng, hint)
        out.append(horn_from_simplex(K, n, k, y))
    return out


def check_laws(M, rng=None, samples: int = 1000, hint: int = 50) -> None:
    """Assert associativity, commutativity and the identity law.

    Exhaustive for finite monoids; sampled on random triples otherwise.
    Raises AssertionError with the violating triple.
    """
    if M.is_finite:
        triples = itertools.product(M.elements, repeat=3)
    else:
        rng = rng or random.Random(0)
        triples = (
            (M.sample(rng, hint), M.sample(rng, hint), M.sample(rng, hint))
            for _ in range(samples)
        )
    for a, b, c in triples:
        assert M.op(M.op(a, b), c) == M.op(a, M.op(b, c)), f"associativity fails at {(a, b, c)}"
        assert M.op(a, b) == M.op(b, a), f"commutativity fails at {(a, b)}"
        assert M.op(a, M.identity) == a, f"identity law fails at {a}"
        if M.is_group:
            assert M.op(a, M.inverse(a)) == M.identity, f"inverse law fails at {a}"
        if M.is_free_natural:
            if M.op(a, b) == M.identity:
                assert a == M.identity and b == M.identity
            if b <= a:
                assert M.op(a - b, b) == a


def equations_by_composition(K: EMSpace, problem) -> list:
    """The filler equations of a horn into ``K``, built one at a time from
    the defining formula.

    For each given face i, in order, and each level-(n-1) generator g there
    is one equation: the level-n generators h with h after the i-th coface
    equal to g add up to g's coordinate of face i.  The composite is taken
    on value tuples, by dropping position i of h's values.
    """
    from emhorn.horn import Equation

    n = problem.n
    equations = []
    for i in sorted(problem.faces):
        composites = [h.values[:i] + h.values[i + 1 :] for h in K.gens[n]]
        coords = problem.faces[i].coords
        for gen_pos, g in enumerate(K.gens[n - 1]):
            fiber = tuple(v for v, c in enumerate(composites) if c == g.values)
            equations.append(Equation(i, gen_pos, fiber, coords[gen_pos]))
    return equations


def reversal(K: EMSpace, k: int) -> list[int]:
    """The reversal of ``[k]`` on the level-k generators of ``K``.

    A generator ``s: [k] -> [d]``, listed by its value tuple, goes to
    ``p -> d - s(k - p)``: read the tuple backwards and flip every value.
    Entry ``j`` is the position of the image of generator ``j`` in the
    lexicographic list of the surjection tuples.
    """
    d = K.degree
    gens = brute_surjection_tuples(k, d)
    position = {g: j for j, g in enumerate(gens)}
    return [position[tuple(d - v for v in reversed(g))] for g in gens]


def reverse_simplex(K: EMSpace, x: EMSimplex) -> EMSimplex:
    """``x`` with the coordinate at each generator moved to its reversal."""
    coords = [None] * len(x.coords)
    for j, target in enumerate(reversal(K, x.level)):
        coords[target] = x.coords[j]
    return EMSimplex(x.level, tuple(coords))


def commutative_tables(order: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every commutative, associative table on ``0..order-1`` with identity 0.

    The products of the non-identity elements are chosen freely, one per
    unordered pair, and the tables that fail associativity on some triple
    are dropped: 1, 2 and 9 tables for orders 1, 2 and 3.
    """
    elements = range(order)
    pairs = [(a, b) for a in elements for b in elements if 0 < a <= b]
    tables = []
    for products in itertools.product(elements, repeat=len(pairs)):
        table = [[a + b if 0 in (a, b) else None for b in elements] for a in elements]
        for (a, b), c in zip(pairs, products):
            table[a][b] = table[b][a] = c
        if all(
            table[table[a][b]][c] == table[a][table[b][c]]
            for a in elements for b in elements for c in elements
        ):
            tables.append(tuple(map(tuple, table)))
    return tables


def render_steps_reference(system, raw, values, note):
    """Certificate steps as ``emhorn.horn._render_steps`` builds them, by
    its earlier term list and ``join``: the reference its one-pass text is
    compared against.  ``raw`` holds the (var, e) steps of ``_solve``,
    ``values`` the coordinates they are read off and ``note`` its note."""
    from emhorn.horn import CertStep

    K, rows, rhs = system.problem.target, system.shape.rows, system.rhs
    M = K.monoid
    op, names = M.op, K.gen_names(system.problem.n)
    steps = []
    for var, e in raw:
        known = M.identity
        for v in rows[e][2]:
            if v != var:
                known = op(known, values[v])
        value, name = (None, None) if var is None else (values[var], names[var])
        terms = [] if name is None else [f"x({name})"]
        if known != M.identity or not terms:
            terms.append(M.render(known))
        text = " + ".join(terms) + f" = {M.render(rhs[e])}"
        kind = "contradiction" if value is None else "assign"
        steps.append(CertStep(kind, name, text, value, known=known, rhs=rhs[e], face=rows[e][0]))
    if note is not None:
        steps.append(CertStep("exhausted", None, note, None))
    return tuple(steps)


def level_faces_reference(K: EMSpace, n: int, bound=None) -> list:
    """``emhorn.horn._level_faces`` one face at a time: each level-(n-1)
    candidate with its faces at 0..n-1 (none at n = 1), each face taken by
    ``K.face`` as a simplex and numbered in the order first seen."""
    ids: dict = {}
    return [
        (x, tuple(ids.setdefault(K.face(n - 1, i, x), len(ids)) for i in range(n if n > 1 else 0)))
        for x in K.enumerate_level(n - 1, bound=bound)
    ]


def compatible_faces_reference(given, level, piece):
    """``emhorn.horn._compatible_faces`` by recursion over the positions:
    the choice for face j ranges over the whole ``level``, kept when its
    face at each earlier given index i equals the face at j-1 of the choice
    for i; a horn is the concatenation of ``piece(x)`` over its choices."""

    def extend(chosen: tuple, picked: list):
        if len(picked) == len(given):
            yield chosen
            return
        j = given[len(picked)]
        for x, faces in level:
            if all(faces[i] == earlier[j - 1] for i, earlier in zip(given, picked)):
                yield from extend(chosen + piece(x), picked + [faces])

    return extend((), [])


def face_plan_reference(fibers: list, op):
    """The i-th face as a loop over its fibers: each fiber's first source,
    with its second folded in by ``op``, in target order."""

    def fold(coords):
        out = [coords[fiber[0]] for fiber in fibers]
        for tgt, fiber in enumerate(fibers):
            if len(fiber) > 1:
                out[tgt] = op(out[tgt], coords[fiber[1]])
        return tuple(out)

    return fold


def logging_op(op, calls: list):
    """``op``, appending each call's arguments to ``calls``."""

    def logged(a, b):
        calls.append((a, b))
        return op(a, b)

    return logged
