import random
import re

import pytest
from hypothesis import given, strategies as st

from emhorn.em import EMSpace
from emhorn.monoid import (
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
from support import check_laws, commutative_tables

nats = st.integers(min_value=0, max_value=10**9)
ints = st.integers(min_value=-(10**9), max_value=10**9)


class TestInstances:
    def test_nat_addition(self):
        N = nat()
        assert N.op(1, 3) == 4
        assert N.is_free_natural and not N.is_group and not N.is_finite
        assert N.is_cancellative

    def test_cyclic_arithmetic(self):
        Z4 = cyclic(4)
        assert Z4.op(3, 3) == 2
        assert Z4.is_finite and Z4.is_group
        assert Z4.inverse(1) == 3

    def test_int_group_capabilities(self):
        Z = int_group()
        assert Z.is_group and not Z.is_finite and not Z.is_free_natural
        assert Z.is_cancellative
        assert Z.op(3, Z.inverse(3)) == 0

    def test_trivial_is_a_point(self):
        T = trivial()
        assert T.elements == (0,)
        assert T.op(0, 0) == 0 == T.identity

    def test_trivial_parses_only_its_element(self):
        T = trivial()
        assert T.parse_element("0") == 0
        for text in ("banana", "-99", "1", ""):
            with pytest.raises(ValueError, match="not 0"):
                T.parse_element(text)

    def test_cyclic_elements_are_a_range(self):
        C = cyclic(10**18)
        assert C.elements == range(10**18) and C.values() is C.elements
        assert C.is_element(10**18 - 1) and not C.is_element(10**18)
        assert not C.is_element(-1)

    def test_finite_laws_exhaustive(self):
        for M in (cyclic(1), cyclic(2), cyclic(5), trivial(), boolean()):
            check_laws(M)

    @given(nats, nats, nats)
    def test_nat_laws_sampled(self, a, b, c):
        N = nat()
        assert N.op(N.op(a, b), c) == N.op(a, N.op(b, c))
        assert N.op(a, b) == N.op(b, a)
        assert N.op(a, 0) == a

    @given(ints, ints, ints)
    def test_int_laws_sampled(self, a, b, c):
        Z = int_group()
        assert Z.op(Z.op(a, b), c) == Z.op(a, Z.op(b, c))
        assert Z.op(a, Z.inverse(a)) == 0

    def test_infinite_laws_thousand_random_triples(self):
        rng = random.Random(42)
        check_laws(nat(), rng=rng, samples=1000)
        check_laws(int_group(), rng=rng, samples=1000)


class TestFreeNaturalStructure:
    def test_literals_must_be_natural(self):
        N = nat()
        assert N.parse_element("7") == 7
        with pytest.raises(ValueError, match="-3 is not a natural number"):
            N.parse_element("-3")
        assert int_group().parse_element("-3") == -3

    def test_partial_subtraction(self):
        N = nat()
        assert N.solve(2, 5) == (3,)
        assert N.solve(5, 2) == ()
        assert N.op(N.solve(2, 5)[0], 2) == 5

    def test_free_natural_means_non_negative_integers(self):
        rng = random.Random(11)
        assert nat().is_free_natural
        for M in (int_group(), cyclic(3), boolean(), trivial()):
            assert not M.is_free_natural
        N = nat()
        for _ in range(100):
            a, b = N.sample(rng, 40), N.sample(rng, 40)
            assert type(a) is int and a >= 0
            assert N.op(a, b) == a + b


class TestTableMonoids:
    def test_boolean_accepted_not_a_group(self):
        B = boolean()
        assert B.is_finite and not B.is_group and not B.is_cancellative
        assert B.op(1, 1) == 1
        assert B.render(1) == "1"

    def test_render_and_parse_are_fixed_when_built(self):
        # a table renders and parses its names, a monoid given neither
        # falls back to str and int, and a copy built from the attributes,
        # as the benchmark's counting monoid is, keeps both
        Z3 = from_table(["e", "a", "b"], [["e", "a", "b"], ["a", "b", "e"], ["b", "e", "a"]])
        Z = int_group()
        assert (Z3.render(2), Z3.parse_element("a"), Z3.parse_element("2")) == ("b", 1, 2)
        assert (Z.render, Z.parse_element) == (str, int)
        assert (Z.render(-4), Z.parse_element("-4")) == ("-4", -4)
        for M in (Z3, Z, nat()):
            copy = _counting_copy(M, [])
            assert (copy.render, copy.parse_element) == (M.render, M.parse_element)

    def test_cyclic_three_as_table_accepted(self):
        Z3 = from_table(
            ["e", "a", "b"],
            [["e", "a", "b"], ["a", "b", "e"], ["b", "e", "a"]],
        )
        assert Z3.is_group

    @pytest.mark.parametrize(
        "text, parsed",
        [("0", 0), ("2", "element index 2 out of range for Z2"),
         ("-1", "element index -1 out of range for Z2")],
        ids=["first index", "index = size", "negative index"],
    )
    def test_numeric_parse_takes_exactly_the_indices(self, text, parsed):
        # the names are not digits, so each text is read as an index
        Z2 = from_table(["e", "a"], [["e", "a"], ["a", "e"]], name="Z2")
        if isinstance(parsed, int):
            assert Z2.parse_element(text) == parsed
        else:
            with pytest.raises(ValueError, match=parsed):
                Z2.parse_element(text)

    def test_rejects_non_associative_with_triple(self):
        with pytest.raises(ValueError, match="associative at triple"):
            from_table(
                ["e", "a", "b"],
                [
                    ["e", "a", "b"],
                    ["a", "e", "e"],
                    ["b", "e", "e"],
                ],
            )

    def test_rejects_non_commutative(self):
        with pytest.raises(ValueError, match="commutative"):
            from_table(["e", "a"], [["e", "a"], ["e", "a"]])

    def test_rejects_missing_identity(self):
        with pytest.raises(ValueError, match="identity"):
            from_table(["a", "b"], [["a", "a"], ["a", "a"]])

    def test_rejects_unknown_entry_and_bad_shape(self):
        with pytest.raises(ValueError, match="not an element"):
            from_table(["e"], [["x"]])
        with pytest.raises(ValueError, match="match the element list"):
            from_table(["e", "a"], [["e", "a"]])

    def test_rejects_element_names_that_are_not_strings(self):
        with pytest.raises(ValueError, match="element name 0 is not a string"):
            from_table([0, 1, 2], [[0, 1, 2], [1, 2, 2], [2, 2, 2]])
        with pytest.raises(ValueError, match=r"element name \[0\] is not a string"):
            from_table([[0], [1]], [[[0], [1]], [[1], [1]]])
        with pytest.raises(ValueError, match="not an element"):
            from_table(["0", "1"], [["0", [1]], ["1", "1"]])

    def test_table_group_detected(self):
        Z2 = from_table(["e", "g"], [["e", "g"], ["g", "e"]])
        assert Z2.is_group
        assert Z2.inverse(1) == 1

    def test_load_table_roundtrip(self, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(
            '{"name": "bool", "elements": ["0", "1"],'
            ' "table": [["0", "1"], ["1", "1"]]}'
        )
        B = load_table(str(path))
        assert B.op(1, 1) == 1
        assert B.parse_element("1") == 1

    def test_load_table_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"elements": ["0"]}')
        with pytest.raises(ValueError):
            load_table(str(path))

    @pytest.mark.parametrize(
        "text",
        [
            '{"elements": 3, "table": []}',
            '{"elements": ["a"], "table": [5]}',
            '{"name": ["x"], "elements": ["a"], "table": [["a"]]}',
            '{not json',
            "\udcff",
        ],
        ids=["elements not a list", "row not a list", "name not a string", "not json",
             "not utf-8"],
    )
    def test_load_table_rejects_wrong_shapes_naming_the_file(self, tmp_path, text):
        path = tmp_path / "shape.json"
        path.write_text(text, encoding="utf-8", errors="surrogateescape")  # "\udcff" is byte 0xff
        with pytest.raises(ValueError, match="shape.json"):
            load_table(str(path))


def _table_monoid(table):
    return from_table("012", [[str(c) for c in row] for row in table])


def _counting_copy(M, calls):
    """A copy of ``M`` built as the benchmark's ``counting_monoid`` builds one
    (``perfbench/harness.py``): the same identity, elements and flags, the
    inverse through ``M.inverse``, and an op that records each call."""
    op = M.op

    def counted(a, b):
        calls.append((a, b))
        return op(a, b)

    return CommutativeMonoid(
        M.name,
        M.identity,
        counted,
        elements=M.elements,
        inverse=M.inverse if M.is_group else None,
        free_natural=M.is_free_natural,
        integer_addition=M.integer_addition,
        render=M.render,
        parse=M.parse_element,
    )


class TestSolveValueAll:
    """``M.solve(a, b)``, which each monoid fixes when it is built: all the
    values x with a + x = b."""

    def test_nat_unsolvable_when_target_smaller(self):
        assert nat().solve(3, 1) == ()

    def test_nat_subtraction(self):
        assert nat().solve(3, 7) == (4,)

    def test_int_uses_inverse(self):
        assert int_group().solve(3, 1) == (-2,)

    def test_finite_scan_in_order(self):
        B = boolean()
        # 1 + x = 1 has solutions {0, 1}, listed in canonical order
        assert B.solve(1, 1) == (0, 1)
        assert B.solve(1, 0) == ()
        assert B.solve(0, 1) == (1,)

    def test_returned_solutions_reevaluate(self):
        # a cancellative monoid never gives two solutions; the copies built
        # as the benchmark builds them solve through their counted op
        rng = random.Random(3)
        tables = [_table_monoid(t) for t in commutative_tables(3)]
        for M in (nat(), int_group(), cyclic(6), boolean(), *tables):
            for C in (M, _counting_copy(M, [])):
                for _ in range(200):
                    a, b = C.sample(rng, 20), C.sample(rng, 20)
                    solutions = C.solve(a, b)
                    assert len(solutions) <= 1 or not C.is_cancellative
                    for x in solutions:
                        assert C.op(a, x) == b

    def test_nat_empty_exactly_when_target_below(self):
        N = nat()
        for a in range(12):
            for b in range(12):
                assert (N.solve(a, b) == ()) == (b < a)

    def test_finite_solutions_are_exactly_the_scan(self):
        for M in (cyclic(2), cyclic(6), boolean(), trivial()):
            for a in M.elements:
                for b in M.elements:
                    want = tuple(y for y in M.elements if M.op(a, y) == b)
                    assert M.solve(a, b) == want

    def test_every_branch_returns_a_tuple(self):
        # a copy built as the benchmark builds one solves through the op it
        # was given, which counts each call: one for a group, none for N
        for M, a, b, ops in [(nat(), 1, 3, 0), (nat(), 3, 1, 0), (int_group(), 3, 1, 1),
                             (cyclic(3), 1, 2, 1), (boolean(), 1, 1, 2), (boolean(), 1, 0, 2)]:
            assert type(M.solve(a, b)) is tuple
            calls = []
            solutions = _counting_copy(M, calls).solve(a, b)
            assert type(solutions) is tuple and solutions == M.solve(a, b)
            assert len(calls) == ops, M

    def test_memo_matches_the_plain_scan_on_every_order_3_table(self):
        # the scan runs once per (a, b), through the op the monoid was built
        # with: two rounds over the 9 pairs cost 3 calls per pair once, where
        # a group pays its one call per solve
        for table in commutative_tables(3):
            calls = []
            M = _counting_copy(_table_monoid(table), calls)
            assert M.is_cancellative == M.is_group
            for _ in range(2):
                for a in M.elements:
                    for b in M.elements:
                        scan = tuple(x for x in M.elements if table[a][x] == b)
                        assert M.solve(a, b) == scan, (table, a, b)
            assert len(calls) == (2 * 9 if M.is_group else 3 * 9), table

    def test_group_has_exactly_one_solution(self):
        rng = random.Random(5)
        for M in (int_group(), cyclic(7), trivial()):
            for _ in range(100):
                assert len(M.solve(M.sample(rng, 30), M.sample(rng, 30))) == 1

    def test_unsupported_capability_raises(self):
        bare = CommutativeMonoid("bare", 0, lambda a, b: a + b)
        assert not bare.is_cancellative
        with pytest.raises(UndecidableError, match="undecidable here"):
            bare.solve(1, 2)


class TestValues:
    """``values`` is the one coefficient domain: enumeration and sampling
    both read it."""

    def test_each_capability_in_order(self):
        assert nat().values(2) == range(3)
        assert int_group().values(2) == range(-2, 3)
        assert boolean().values() == boolean().values(1) == (0, 1)
        for M in (nat(), int_group()):
            with pytest.raises(ValueError, match="is infinite; a coordinate bound is required"):
                M.values()
        bare = CommutativeMonoid("bare", 0, lambda a, b: a + b)
        with pytest.raises(UndecidableError):
            bare.values(3)

    @pytest.mark.parametrize(
        "bound, message",
        [
            (-1, "coordinate bound -1 is negative"),
            # True == 1 would list range(2), and range(2.5) raises a TypeError
            (True, "coordinate bound must be an int, got True"),
            (2.5, "coordinate bound must be an int, got 2.5"),
            ("3", "coordinate bound must be an int, got '3'"),
        ],
    )
    def test_a_bound_that_is_not_a_non_negative_int_is_refused_everywhere(self, bound, message):
        bare = CommutativeMonoid("bare", 0, lambda a, b: a + b)
        for M in (nat(), int_group(), cyclic(3), boolean(), bare):
            with pytest.raises(ValueError, match=re.escape(message)):
                M.values(bound)
            with pytest.raises(ValueError, match=re.escape(message)):
                M.sample(random.Random(0), bound)

    def test_sampling_draws_what_randrange_drew(self):
        for M, draw in (
            (nat(), lambda rng: rng.randrange(8)),
            (int_group(), lambda rng: rng.randrange(-7, 8)),
            (cyclic(5), lambda rng: rng.choice(tuple(range(5)))),
        ):
            sampled, replay = random.Random(3), random.Random(3)
            assert [M.sample(sampled, 7) for _ in range(50)] == [draw(replay) for _ in range(50)]

    def test_sampling_a_cyclic_monoid_past_the_machine_word(self):
        # rng.choice would take len() of range(10**20), which overflows
        y = EMSpace(cyclic(10**20), 2, 3).random_simplex(3, random.Random(0))
        replay = random.Random(0)
        assert y.coords == tuple(replay.randrange(10**20) for _ in range(3))

    def test_membership_never_scans_for_a_non_int(self):
        class Probe:
            compared = 0

            def __eq__(self, other):
                Probe.compared += 1
                return False

            __hash__ = None

        assert not cyclic(10**6).is_element(Probe())
        assert Probe.compared <= 1

    @pytest.mark.parametrize(
        "make", [nat, int_group, lambda: cyclic(2), boolean], ids=["N", "Z", "Z/2", "bool"]
    )
    def test_membership_refuses_bools(self, make):
        # bool subclasses int, and True == 1 and False == 0 are elements here
        M = make()
        assert M.is_element(0) and M.is_element(1)
        assert not M.is_element(True) and not M.is_element(False)

    def test_membership(self):
        N, Z, B = nat(), int_group(), boolean()
        assert N.is_element(3) and not N.is_element(-2) and not N.is_element("3")
        assert Z.is_element(-2) and not Z.is_element(0.5)
        assert B.is_element(1) and not B.is_element(7)
        Q = CommutativeMonoid("Q", 0, lambda a, b: a + b, inverse=lambda a: -a)
        assert Q.is_element(0.5)
