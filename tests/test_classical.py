"""The subset instance: substitution, tests, comprehension, measurement.

Derived expectations are produced by enumeration oracles inside the
tests (preimages listed by brute force, adjunction bijections counted on
both sides) and then asserted against the implementation.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectlogic import classical as cl
from effectlogic.classical import (
    BoolPredicate,
    FinMap,
    FinSet,
    TaggedElement,
    comprehension,
    compose,
    coproduct_map,
    doubled_carrier,
    falsity,
    finset,
    identity_map,
    measure,
    omega_predicate,
    orthosum,
    predicate_algebra,
    range_finset,
    rel_joint_monicity_counterexample,
    stone_states,
    substitute,
    truth,
)
from effectlogic.classical import test_andthen as andthen_op
from effectlogic.classical import test_then as then_op
from effectlogic.effect_algebra import check_axioms, boolean_powerset_ea


def subsets(carrier: FinSet):
    for bits in range(1 << carrier.size):
        yield BoolPredicate(
            carrier, frozenset(i for i in range(carrier.size) if bits >> i & 1)
        )


def all_maps(source: FinSet, target: FinSet):
    for table in itertools.product(range(target.size), repeat=source.size):
        yield FinMap(source, target, table)


class TestCarriersAndPredicates:
    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError):
            finset("a", "a")

    def test_member_bounds(self):
        with pytest.raises(ValueError):
            BoolPredicate(finset("a"), frozenset({3}))


class TestOrthosum:
    def test_disjoint_union(self):
        c = range_finset(3)
        p = BoolPredicate(c, frozenset({1}))
        q = BoolPredicate(c, frozenset({2}))
        assert orthosum(p, q).members == frozenset({1, 2})

    def test_overlap_undefined(self):
        c = range_finset(3)
        p = BoolPredicate(c, frozenset({1}))
        assert orthosum(p, p) is None

    def test_zero_neutral(self):
        c = range_finset(3)
        for q in subsets(c):
            assert orthosum(falsity(c), q) == q

    def test_carrier_mismatch(self):
        with pytest.raises(ValueError):
            orthosum(truth(range_finset(2)), truth(range_finset(3)))


class TestSubstitution:
    def test_identity(self):
        c = range_finset(4)
        for q in subsets(c):
            assert substitute(identity_map(c), q) == q

    def test_constant_map(self):
        src, tgt = range_finset(3), range_finset(2)
        const = FinMap(src, tgt, (0, 0, 0))
        hit = BoolPredicate(tgt, frozenset({0}))
        assert substitute(const, hit) == truth(src)
        miss = BoolPredicate(tgt, frozenset({1}))
        assert substitute(const, miss) == falsity(src)

    def test_preimage_example(self):
        src, tgt = range_finset(3), range_finset(2)
        f = FinMap(src, tgt, (0, 0, 1))
        u = BoolPredicate(tgt, frozenset({0}))
        # brute-force preimage oracle
        expected = frozenset(i for i in range(3) if f.table[i] in u.members)
        assert expected == frozenset({0, 1})
        assert substitute(f, u).members == expected

    def test_preserves_structure(self):
        src, tgt = range_finset(4), range_finset(3)
        for f in all_maps(src, tgt):
            assert substitute(f, truth(tgt)) == truth(src)
            for q in subsets(tgt):
                assert substitute(f, q.complement()) == substitute(f, q).complement()
        f = FinMap(src, tgt, (0, 1, 2, 0))
        for q in subsets(tgt):
            for r in subsets(tgt):
                both = orthosum(q, r)
                if both is not None:
                    assert substitute(f, both) == orthosum(substitute(f, q), substitute(f, r))
                assert substitute(f, andthen_op(q, r)) == andthen_op(
                    substitute(f, q), substitute(f, r)
                )


class TestDynamicTests:
    def test_example_sets(self):
        c = range_finset(3)
        u = BoolPredicate(c, frozenset({0, 1}))
        v = BoolPredicate(c, frozenset({1, 2}))
        assert andthen_op(u, v).members == frozenset({1})
        assert then_op(u, v).members == frozenset({1, 2})

    def test_units(self):
        c = range_finset(4)
        for v in subsets(c):
            assert andthen_op(truth(c), v) == v
            assert then_op(falsity(c), v) == truth(c)


class TestComprehension:
    def test_truth_and_falsity(self):
        c = range_finset(3)
        sub, inc = comprehension(truth(c))
        assert sub == c and inc.table == (0, 1, 2)
        sub, inc = comprehension(falsity(c))
        assert sub.size == 0 and inc.table == ()

    def test_example(self):
        c = range_finset(4)
        sub, inc = comprehension(BoolPredicate(c, frozenset({1, 3})))
        assert sub.size == 2
        assert inc.table == (1, 3)

    @pytest.mark.parametrize("nx", range(4))
    @pytest.mark.parametrize("ny", range(1, 4))
    def test_adjunction_bijection(self, nx, ny):
        """Maps into the comprehension match maps whose pullback is truth."""
        x, y = range_finset(nx), range_finset(ny)
        for p in subsets(y):
            sub, inc = comprehension(p)
            into_sub = list(all_maps(x, sub))
            into_y_true = [
                f for f in all_maps(x, y) if substitute(f, p) == truth(x)
            ]
            assert len(into_sub) == len(into_y_true)
            composed = {compose(inc, g).table for g in into_sub}
            assert composed == {f.table for f in into_y_true}


class TestMeasurement:
    def test_left_right(self):
        c = range_finset(2)
        p = BoolPredicate(c, frozenset({0}))
        assert measure(p, 0) == TaggedElement("left", 0)
        assert measure(p, 1) == TaggedElement("right", 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            measure(truth(range_finset(2)), 5)

    def test_omega_naturality(self):
        """Pulling the left-half subset back along f + f gives the left half."""
        for nx, ny in [(1, 1), (2, 3), (3, 2), (4, 1)]:
            x, y = range_finset(nx), range_finset(ny)
            for f in all_maps(x, y):
                assert substitute(coproduct_map(f), omega_predicate(y)) == omega_predicate(x)


class TestExportedAlgebra:
    @pytest.mark.parametrize("n", range(5))
    def test_axioms(self, n):
        algebra = predicate_algebra(range_finset(n))
        assert check_axioms(algebra).passed

    def test_matches_bitmask_construction(self):
        assert predicate_algebra(range_finset(3)).sums == boolean_powerset_ea(3).sums

    def test_size_guard_comes_before_the_tables(self, monkeypatch):
        # the tables take 4^n orthosum calls; P(n) is capped at n = 10
        def refuse(p, q):
            raise AssertionError("orthosum called")

        monkeypatch.setattr(cl, "orthosum", refuse)
        with pytest.raises(ValueError, match="too large"):
            predicate_algebra(range_finset(11))


class TestStoneStates:
    @pytest.mark.parametrize("n", range(5))
    def test_counts(self, n):
        assert stone_states(n) == list(range(n))

    def test_guard(self):
        with pytest.raises(ValueError):
            stone_states(5)


class TestRelationCounterexample:
    def test_witness(self):
        w = rel_joint_monicity_counterexample()
        assert w.p == {1: 1, 2: 2, 3: 2}
        assert w.q == {1: 2, 2: 1, 3: 2}
        assert w.u == frozenset({1, 2})
        assert w.v == frozenset({1, 2, 3})
        assert w.u != w.v

    def test_images_coincide(self):
        w = rel_joint_monicity_counterexample()
        for rel in (w.p, w.q):
            assert w.image(rel, w.u) == w.image(rel, w.v) == frozenset({1, 2})


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_sum_is_disjoint_union_hypothesis(n, data):
    c = range_finset(n)
    u = frozenset(data.draw(st.sets(st.integers(min_value=0, max_value=n - 1))))
    v = frozenset(data.draw(st.sets(st.integers(min_value=0, max_value=n - 1))))
    s = orthosum(BoolPredicate(c, u), BoolPredicate(c, v))
    assert (s is None) == bool(u & v)
    assert s is None or s.members == u | v


class TestDoubledCarrier:
    def test_roundtrip(self):
        c = finset("a", "b", "c")
        d = doubled_carrier(c)
        assert d.labels == ("L.a", "L.b", "L.c", "R.a", "R.b", "R.c")
        for i in range(2 * c.size):
            t = cl.index_to_tagged(c, i)
            assert cl.tagged_to_index(c, t) == i
