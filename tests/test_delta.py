import doctest
import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

import emhorn.delta

from emhorn.delta import (
    MonotoneMap,
    coface,
    codegeneracy,
    compose,
    enumerate_surjections,
)
from support import brute_monotone_tuples, brute_surjection_tuples, injective, surjective


def m(text, cod):
    return MonotoneMap(tuple(int(ch) for ch in text), cod)


def identity(n):
    return MonotoneMap(tuple(range(n + 1)), n)


def all_maps(mm, n):
    """Every monotone map [mm] -> [n], from the product-filter oracle."""
    return [MonotoneMap(vals, n) for vals in brute_monotone_tuples(mm, n)]


def test_module_doctests():
    failures, _ = doctest.testmod(emhorn.delta)
    assert failures == 0


class TestMonotoneMap:
    def test_rejects_decreasing_values(self):
        with pytest.raises(ValueError):
            MonotoneMap((1, 0), 1)

    def test_rejects_values_outside_codomain(self):
        with pytest.raises(ValueError):
            MonotoneMap((0, 3), 2)

    def test_display_digit_string(self):
        assert str(m("0012", 2)) == "0012"

    def test_display_comma_form_for_large_codomain(self):
        f = MonotoneMap((0, 10), 10)
        assert str(f) == "0,10"

    def test_equality_is_structural(self):
        assert m("012", 2) == identity(2)
        assert m("012", 3) != m("012", 2)

    def test_rejects_empty_values_and_negative_codomains(self):
        with pytest.raises(ValueError, match="at least one value"):
            MonotoneMap((), 0)
        with pytest.raises(ValueError, match=r"codomain \[-1\] is not an ordinal"):
            MonotoneMap((0,), -1)
        assert MonotoneMap((0, 0), 0).values == (0, 0)

    def test_immutable_hashable_and_equal_only_to_maps(self):
        f = MonotoneMap([0, 1, 1, 2], 2)
        assert f.values == (0, 1, 1, 2)  # coerced to a tuple
        for name in ("values", "cod"):
            with pytest.raises(AttributeError):
                setattr(f, name, (0,))
        assert hash(f) == hash(m("0112", 2))
        assert len({f, m("0112", 2), m("0122", 2), m("0112", 3)}) == 3
        assert f != (0, 1, 1, 2) and f != ((0, 1, 1, 2), 2) and not f == ((0, 1, 1, 2), 2)
        assert repr(f) == "MonotoneMap((0, 1, 1, 2), cod=2)"


class TestCompose:
    def test_identity_is_neutral(self):
        f = m("0012", 2)
        assert compose(f, identity(2)) == f
        assert compose(identity(3), f) == f

    def test_coface_then_collapse(self):
        # x composed with the 0th coface, for x = 0122
        assert compose(coface(3, 0), m("0122", 2)) == m("122", 2)

    def test_coface_one_into_0112(self):
        assert compose(coface(3, 1), m("0112", 2)) == m("012", 2)

    def test_rejects_mismatched_objects(self):
        with pytest.raises(ValueError):
            compose(m("01", 1), m("012", 2))


class TestGenerators:
    def test_cofaces_forced_by_definition(self):
        assert str(coface(2, 1)) == "02"
        assert str(coface(3, 0)) == "123"
        assert str(coface(3, 3)) == "012"

    def test_coface_image_misses_exactly_i(self):
        for n in range(1, 7):
            for i in range(n + 1):
                f = coface(n, i)
                assert injective(f)
                assert set(f.values) == set(range(n + 1)) - {i}

    def test_codegeneracies_repeat_their_index(self):
        assert str(codegeneracy(1, 0)) == "001"
        assert str(codegeneracy(1, 1)) == "011"
        assert str(codegeneracy(2, 1)) == "0112"

    def test_codegeneracy_hits_index_twice(self):
        for n in range(6):
            for j in range(n + 1):
                f = codegeneracy(n, j)
                assert surjective(f)
                assert f.values.count(j) == 2

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            coface(3, 4)
        with pytest.raises(ValueError):
            codegeneracy(2, 3)

    def test_cosimplicial_identity_exhaustive(self):
        # second coface after first equals the swapped pair, for i < j
        for n in range(1, 7):
            for j in range(n + 2):
                for i in range(j):
                    lhs = compose(coface(n, i), coface(n + 1, j))
                    rhs = compose(coface(n, j - 1), coface(n + 1, i))
                    assert lhs == rhs, (n, i, j)


class TestSurjectiveInjective:
    def test_example_classifications(self):
        assert surjective(m("0012", 2)) and not injective(m("0012", 2))
        assert not surjective(m("122", 2))
        f = m("012", 2)
        assert surjective(f) and injective(f)


class TestSurjectionInjectionSplitting:
    # Every monotone map is a surjection onto its image followed by the
    # inclusion of that image, and the pair is unique.
    def test_collapse_then_include(self):
        assert compose(m("011", 1), m("02", 2)) == m("022", 2)

    def test_surjection_splits_through_the_identity(self):
        f = m("0012", 2)
        assert f in enumerate_surjections(3, 2)
        assert compose(f, identity(2)) == f

    def test_unique_splitting_exhaustive(self):
        for mm in range(6):
            for n in range(6):
                splittings = {}
                for r in range(min(mm, n) + 1):
                    injections = [i for i in all_maps(r, n) if injective(i)]
                    for epi in enumerate_surjections(mm, r):
                        for mono in injections:
                            splittings.setdefault(compose(epi, mono), []).append(mono)
                assert set(splittings) == set(all_maps(mm, n))
                for f, monos in splittings.items():
                    assert [mono.values for mono in monos] == [tuple(sorted(set(f.values)))]

    def test_codegeneracies_are_the_surjections_onto_one_less(self):
        for n in range(7):
            assert enumerate_surjections(n + 1, n) == [codegeneracy(n, j) for j in range(n + 1)]

    def test_cofaces_are_the_injections_from_one_less(self):
        for n in range(1, 7):
            injections = [f for f in all_maps(n - 1, n) if injective(f)]
            assert injections == [coface(n, i) for i in reversed(range(n + 1))]


class TestEnumeration:
    def test_surjections_degree_two(self):
        assert [str(f) for f in enumerate_surjections(3, 2)] == ["0012", "0112", "0122"]
        assert [str(f) for f in enumerate_surjections(2, 2)] == ["012"]
        assert [str(f) for f in enumerate_surjections(4, 2)] == [
            "00012", "00112", "00122", "01112", "01122", "01222",
        ]

    def test_against_product_filter_oracle(self):
        for mm in range(10):
            for n in range(7):
                got_s = [f.values for f in enumerate_surjections(mm, n)]
                assert got_s == brute_surjection_tuples(mm, n), (mm, n)

    def test_negative_objects_rejected(self):
        for mm, n in ((-1, 0), (0, -1), (-1, -1), (-2, -3), (3, -1)):
            with pytest.raises(ValueError):
                enumerate_surjections(mm, n)

    def test_counts_closed_form(self):
        for mm in range(9):
            for n in range(4):
                assert len(enumerate_surjections(mm, n)) == comb(mm, n)

    def test_lexicographic_and_duplicate_free(self):
        for mm in range(6):
            for n in range(4):
                vals = [f.values for f in enumerate_surjections(mm, n)]
                assert vals == sorted(set(vals))


class TestAssociativity:
    def test_exhaustive_tiny_objects(self):
        objs = range(3)
        for a, b, c, d in itertools.product(objs, repeat=4):
            for f in all_maps(a, b):
                for g in all_maps(b, c):
                    for h in all_maps(c, d):
                        assert compose(compose(f, g), h) == compose(f, compose(g, h))

    def test_bulk_value_level_up_to_four(self):
        # Raw value-tuple composition over all composable triples with
        # objects up to [4], vectorized; this is the same composition rule
        # the map type uses, checked independently of it.
        import numpy as np

        arrays = {
            (mm, n): np.array(brute_monotone_tuples(mm, n), dtype=np.int64)
            for mm in range(5)
            for n in range(5)
        }
        for a, b, c, d in itertools.product(range(5), repeat=4):
            F = arrays[(a, b)]
            G = arrays[(b, c)]
            GF = G[:, F]  # values of g after f, for every pair
            for h in arrays[(c, d)]:
                assert (h[GF] == h[G][:, F]).all()


@st.composite
def monotone_maps(draw, max_obj=6):
    mm = draw(st.integers(0, max_obj))
    n = draw(st.integers(0, max_obj))
    vals = draw(st.lists(st.integers(0, n), min_size=mm + 1, max_size=mm + 1))
    return MonotoneMap(tuple(sorted(vals)), n)


@given(monotone_maps())
def test_image_splitting_property(f):
    image = sorted(set(f.values))
    epi = MonotoneMap(tuple(image.index(v) for v in f.values), len(image) - 1)
    mono = MonotoneMap(tuple(image), f.cod)
    assert epi in enumerate_surjections(f.dom, epi.cod)
    assert injective(mono)
    assert compose(epi, mono) == f


@given(monotone_maps(), st.data())
def test_composition_preserves_monotonicity(f, data):
    g_vals = data.draw(
        st.lists(st.integers(0, 5), min_size=f.cod + 1, max_size=f.cod + 1)
    )
    g = MonotoneMap(tuple(sorted(g_vals)), 5)
    h = compose(f, g)
    assert h.dom == f.dom and h.cod == g.cod
    assert all(a <= b for a, b in zip(h.values, h.values[1:]))
