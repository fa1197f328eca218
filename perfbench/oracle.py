"""The benchmark's own checks of the program's outputs.

Faces are recomputed here from raw generator tuples with the benchmark's
own monoid operations, never through ``EMSpace`` tables, so a fast path in
the program cannot certify itself.  No-filler verdicts are confirmed by
exhaustive search, and certificates are validated against the published
schema.

The package is imported lazily, so the ``cli`` workload's parent process
stays small (see ``cli_workload``).
"""

from __future__ import annotations

import itertools

# The coefficient monoids the workloads use, with the benchmark's own
# operation on the program's element encoding (table monoids are encoded
# by element index, which for these tables equals the element's value).
OWN_OPS = {
    "N": (0, lambda a, b: a + b),
    "Z": (0, lambda a, b: a + b),
    "Z/2": (0, lambda a, b: (a + b) % 2),
    "Z/3": (0, lambda a, b: (a + b) % 3),
    "Z/5": (0, lambda a, b: (a + b) % 5),
    "bool": (0, lambda a, b: min(a + b, 1)),
    "sat3": (0, lambda a, b: min(a + b, 3)),
    "max3": (0, max),
}

SAT3_TABLE = [[str(min(a + b, 3)) for b in range(4)] for a in range(4)]
MAX3_TABLE = [[str(max(a, b)) for b in range(4)] for a in range(4)]


def sat3():
    from emhorn import from_table

    return from_table([str(v) for v in range(4)], SAT3_TABLE, name="sat3")


def max3():
    from emhorn import from_table

    return from_table([str(v) for v in range(4)], MAX3_TABLE, name="max3")


class FaceOracle:
    """Faces of coefficient vectors, straight from the definition.

    Level k of K(M, d) has one coordinate per monotone surjection
    [k] -> [d], in lexicographic order.  The i-th face sends the coordinate
    of a surjection h to the slot of h with its i-th value deleted, when
    that is still surjective, and adds coordinates landing on one slot.
    """

    def __init__(self):
        self._gens = {}

    def gens(self, k, d):
        key = (k, d)
        if key not in self._gens:
            full = set(range(d + 1))
            gens = [
                g
                for g in itertools.combinations_with_replacement(range(d + 1), k + 1)
                if set(g) == full
            ]
            self._gens[key] = (gens, {g: pos for pos, g in enumerate(gens)})
        return self._gens[key]

    def face(self, monoid_name, d, k, i, coords):
        identity, op = OWN_OPS[monoid_name]
        upper, _ = self.gens(k, d)
        lower, index = self.gens(k - 1, d)
        if len(coords) != len(upper):
            raise ValueError(f"level {k} of degree {d} has {len(upper)} coordinates")
        out = [identity] * len(lower)
        for h, value in zip(upper, coords):
            slot = index.get(h[:i] + h[i + 1 :])
            if slot is not None:
                out[slot] = op(out[slot], value)
        return tuple(out)


def verdict(result):
    """``filler``, ``contradiction`` or ``exhausted``."""
    if result.found:
        return "filler"
    return result.steps[-1].kind


class OutputChecker:
    """Checks decisions, with the schema validator built once."""

    def __init__(self):
        import jsonschema
        from emhorn import CERTIFICATE_SCHEMA

        cls = jsonschema.validators.validator_for(CERTIFICATE_SCHEMA)
        self._validator = cls(CERTIFICATE_SCHEMA)
        self.faces = FaceOracle()

    def filler_ok(self, space, problem, coords):
        name, d, n = space.monoid.name, space.degree, problem.n
        return all(
            self.faces.face(name, d, n, i, coords) == tuple(x.coords)
            for i, x in problem.faces.items()
        )

    def no_filler_ok(self, space, problem):
        """Confirm by exhaustive search that no filler exists.

        Over N a coordinate that occurs in an equation never exceeds that
        equation's right-hand side, and one that occurs in none may be 0,
        so capping coordinates at the largest face coordinate keeps the
        search complete.
        """
        from emhorn import brute_force_filler

        M = space.monoid
        if M.is_finite:
            return not brute_force_filler(space, problem).found
        if M.is_free_natural:
            bound = max((c for x in problem.faces.values() for c in x.coords), default=0)
            return not brute_force_filler(space, problem, value_bound=bound).found
        # A group is Kan: a compatible horn always fills.
        return False

    def decision_ok(self, space, problem, result, cert):
        """The verdict, the filler and the certificate all check out."""
        if list(self._validator.iter_errors(cert)):
            return False
        if cert["result"] != ("filler" if result.found else "no_filler"):
            return False
        if len(cert["certificate"]) != len(result.steps):
            return False
        if result.found:
            coords = tuple(result.filler.coords)
            if cert["witness"] != list(coords):
                return False
            if any(s.kind != "assign" for s in result.steps):
                return False
            return self.filler_ok(space, problem, coords)
        if cert["witness"] is not None:
            return False
        if result.steps[-1].kind not in ("contradiction", "exhausted"):
            return False
        return self.no_filler_ok(space, problem)
