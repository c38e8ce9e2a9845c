"""Table-level laws of the finite effect-algebra core.

Expected values here come from hand-checkable sources: the six-element
free-algebra table was written out by hand, hom counts are matched
against the subset-evaluation argument, and size formulas against the
amalgamation rule (|E| - 2) + (|D| - 2) + 2.  The array checker, the
downset and opposite constructions and the backtracking search are also
compared with plain loops over every pair and every total map, kept here
as references.
"""

import dataclasses
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectlogic.effect_algebra import (
    MAX_ELEMENTS,
    AxiomReport,
    FiniteEffectAlgebra,
    HomSearchCapError,
    MalformedAlgebraError,
    boolean_powerset_ea,
    check_axioms,
    coproduct,
    downset,
    enumerate_homomorphisms,
    mo_free,
    opposite,
    owedge,
    product,
)


def two_element() -> FiniteEffectAlgebra:
    return mo_free(0)


def test_two_element_algebra_passes():
    report = check_axioms(two_element())
    assert report.passed
    assert report.describe() == "pass"


def test_one_plus_one_defined_fails_zero_law():
    bad = FiniteEffectAlgebra(
        size=2,
        zero=0,
        one=1,
        sums={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
        perp={0: 1, 1: 0},
        names={0: "0", 1: "1"},
    )
    report = check_axioms(bad)
    assert not report.passed
    assert report.law == "zero-law"
    assert report.witness == (1,)


def test_malformed_table_is_not_an_axiom_failure():
    with pytest.raises(MalformedAlgebraError, match="unknown element"):
        FiniteEffectAlgebra(
            size=2,
            zero=0,
            one=1,
            sums={(0, 0): 0, (0, 1): 7},
            perp={0: 1, 1: 0},
        )


def test_missing_perp_entry_is_malformed():
    with pytest.raises(MalformedAlgebraError, match="perp is not defined"):
        FiniteEffectAlgebra(2, 0, 1, {(0, 0): 0}, {0: 1})


MO1 = mo_free(1)


@pytest.mark.parametrize("fields", [
    {"sums": {**MO1.sums, (7, 0): 7}},
    {"sums": {**MO1.sums, (0, 7): 0}},
    {"sums": {**MO1.sums, (-1, 0): 0}},
    {"sums": {**MO1.sums, (2, 2): -1}},
    {"sums": {**MO1.sums, (2**70, 0): 0}},
    {"sums": {**MO1.sums, (2, 2): 1.5}},
    {"sums": {**MO1.sums, (0.5, 0): 0}},
    {"perp": {0: 1}},
    {"perp": (1, 0, 3, 4)},
    {"perp": (1, 0, 3, 2**70)},
    {"perp": (1, 0, 3.5, 2)},
    {"zero": 4},
    {"one": -1},
    {"size": 0},
    {"size": MAX_ELEMENTS + 1},
], ids=["sum-key", "sum-column", "negative-key", "negative-value", "sum-overflow",
        "sum-fraction", "key-fraction", "partial-perp", "perp-value", "perp-overflow",
        "perp-fraction", "zero", "one", "empty", "oversized"])
def test_every_malformed_table_is_refused_when_built(fields):
    """No operation sees an unknown id: the table is refused before any of them runs."""
    with pytest.raises(MalformedAlgebraError):
        dataclasses.replace(MO1, **fields)


def test_fractional_ids_are_refused_not_truncated():
    # int() would read 1.9 as 1 and (1.7, 0.2) as (1, 0): a lawful MO(0)
    with pytest.raises(MalformedAlgebraError, match="not an integer"):
        FiniteEffectAlgebra(2, 0, 1, {(0, 0): 0, (0, 1): 1.9, (1, 0): 1}, (1.7, 0.2))


def test_witnesses_are_row_major_whatever_the_insertion_order():
    # (3, 1) is inserted before (2, 1); both lack their mirror entry
    table = FiniteEffectAlgebra(MO1.size, 0, 1, {**MO1.sums, (3, 1): 1, (2, 1): 1}, MO1.perp)
    assert list(table.sums) == sorted(table.sums)
    assert check_axioms(table) == AxiomReport(False, "commutativity", (2, 1))


def test_planted_defect_is_described_by_ids():
    algebra = product(mo_free(1), mo_free(1))
    sums = dict(algebra.sums)
    del sums[(6, algebra.zero)]
    report = check_axioms(dataclasses.replace(algebra, sums=sums))
    assert report.describe(algebra) == "fail: commutativity at (0, 6)"


def test_axiom_check_allocates_no_more_than_the_dict_tables():
    """Build and check of P(8): the dict-table form peaked at 1.07 MB."""
    check_axioms(boolean_powerset_ea(8))
    tracemalloc.start()
    try:
        assert check_axioms(boolean_powerset_ea(8)).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # margin of 10% over the dict-table peak
    assert peak <= 1.07e6 * 1.1


class TestFreeAlgebras:
    def test_sizes(self):
        for n in range(5):
            assert mo_free(n).size == 2 * n + 2

    def test_size_guard(self):
        largest = (MAX_ELEMENTS - 2) // 2
        for n in (largest + 1, 10**12, -1):
            with pytest.raises(ValueError, match=f"between 0 and {largest}"):
                mo_free(n)
        assert mo_free(largest).size == MAX_ELEMENTS

    def test_mo0_is_two_element(self):
        algebra = mo_free(0)
        assert algebra.size == 2
        assert algebra.sum_of(algebra.one, algebra.one) is None

    def test_mo1_partner_sum(self):
        algebra = mo_free(1)
        a, a_perp = 2, 3
        assert algebra.perp[a] == a_perp
        assert algebra.sum_of(a, a_perp) == algebra.one
        assert algebra.sum_of(a, a) is None
        assert algebra.sum_of(algebra.one, a) is None

    @pytest.mark.parametrize("n", range(5))
    def test_axioms(self, n):
        assert check_axioms(mo_free(n)).passed

    def test_mo2_matches_hand_written_table(self):
        """The six-element table, written out by hand, pins the constructor."""
        built = mo_free(2)
        zero, one, a0, a1, b0, b1 = 0, 1, 2, 3, 4, 5
        hand_sums = {}
        for x in (zero, one, a0, a1, b0, b1):
            hand_sums[(zero, x)] = x
            hand_sums[(x, zero)] = x
        hand_sums[(a0, b0)] = one
        hand_sums[(b0, a0)] = one
        hand_sums[(a1, b1)] = one
        hand_sums[(b1, a1)] = one
        assert dict(built.sums) == hand_sums
        assert built.perp == (one, zero, b0, b1, a0, a1)
        assert check_axioms(built).passed


class TestPowersetAlgebras:
    def test_empty_ground_set_is_degenerate(self):
        algebra = boolean_powerset_ea(0)
        assert algebra.size == 1
        assert algebra.zero == algebra.one
        assert check_axioms(algebra).passed

    def test_singleton_matches_two_element(self):
        algebra = boolean_powerset_ea(1)
        assert algebra.size == 2
        assert check_axioms(algebra).passed

    @pytest.mark.parametrize("n", range(5))
    def test_axioms(self, n):
        assert check_axioms(boolean_powerset_ea(n)).passed

    def test_sum_is_union_of_disjoint(self):
        algebra = boolean_powerset_ea(3)
        assert algebra.sum_of(0b001, 0b010) == 0b011
        assert algebra.sum_of(0b001, 0b011) is None
        assert algebra.sums == {
            (x, y): x | y
            for x in range(8)
            for y in range(8)
            if x & y == 0
        }

    def test_size_guard(self):
        # the guard runs before allocation, so absurd sizes cost nothing
        largest = MAX_ELEMENTS.bit_length() - 1
        for n in (largest + 1, 17, 10**9, -1):
            with pytest.raises(ValueError, match=f"between 0 and {largest}"):
                boolean_powerset_ea(n)
        assert boolean_powerset_ea(largest).size == MAX_ELEMENTS


class TestDerivedOperations:
    def test_leq_bottom_top(self):
        algebra = two_element()
        assert derived_leq(algebra, algebra.zero, algebra.one)
        assert not derived_leq(algebra, algebra.one, algebra.zero)

    def test_minus_of_one_is_perp(self):
        algebra = mo_free(1)
        for x in algebra.elements:
            assert partial_minus(algebra, algebra.one, x) == algebra.perp[x]

    def test_owedge_of_partners_vanishes(self):
        algebra = mo_free(1)
        a = 2
        assert owedge(algebra, a, algebra.perp[a]) == algebra.zero

    def test_minus_undefined_when_not_below(self):
        algebra = mo_free(2)
        a, b = 2, 3
        assert partial_minus(algebra, a, b) is None


SMALL_ALGEBRAS = [
    mo_free(0),
    mo_free(1),
    mo_free(2),
    mo_free(4),
    boolean_powerset_ea(2),
    boolean_powerset_ea(3),
    product(mo_free(1), mo_free(0)),
    coproduct(mo_free(1), mo_free(1)),
    downset(boolean_powerset_ea(3), 0b011),
    opposite(mo_free(2)),
]


@pytest.mark.parametrize("algebra", SMALL_ALGEBRAS, ids=lambda a: f"size{a.size}")
class TestUniversalLaws:
    """Exhaustive law checks on every stock algebra of at most 12 elements."""

    def test_axioms(self, algebra):
        assert check_axioms(algebra).passed

    def test_cancellation(self, algebra):
        for (x, y), v in algebra.sums.items():
            for z in algebra.elements:
                if algebra.sum_of(x, z) == v:
                    assert z == y

    def test_positivity(self, algebra):
        for (x, y), v in algebra.sums.items():
            if v == algebra.zero:
                assert x == algebra.zero and y == algebra.zero

    def test_partial_order(self, algebra):
        elems = algebra.elements
        for x in elems:
            assert derived_leq(algebra, x, x)
            assert derived_leq(algebra, algebra.zero, x)
            assert derived_leq(algebra, x, algebra.one)
        for x, y in itertools.product(elems, repeat=2):
            if derived_leq(algebra, x, y) and derived_leq(algebra, y, x):
                assert x == y
        for x, y, z in itertools.product(elems, repeat=3):
            if derived_leq(algebra, x, y) and derived_leq(algebra, y, z):
                assert derived_leq(algebra, x, z)

    def test_perp_antitone_and_involutive(self, algebra):
        for x in algebra.elements:
            assert algebra.perp[algebra.perp[x]] == x
        assert algebra.perp[algebra.zero] == algebra.one
        for x, y in itertools.product(algebra.elements, repeat=2):
            if derived_leq(algebra, x, y):
                assert derived_leq(algebra, algebra.perp[y], algebra.perp[x])

    def test_minus_laws(self, algebra):
        elems = algebra.elements
        for x, y in itertools.product(elems, repeat=2):
            diff = partial_minus(algebra, x, y)
            # defined exactly below
            assert (diff is not None) == derived_leq(algebra, y, x)
            if diff is None:
                continue
            # subtracting zero and subtracting from one
            if y == algebra.zero:
                assert diff == x
            if x == algebra.one:
                assert diff == algebra.perp[y]
            # x - y = (x' + y)'
            alt = algebra.sum_of(algebra.perp[x], y)
            assert alt is not None and algebra.perp[alt] == diff
            # x - y agrees with the dual operation against y'
            assert owedge(algebra, x, algebra.perp[y]) == diff
        for (x, y), v in algebra.sums.items():
            assert partial_minus(algebra, v, y) == x


class TestConstructions:
    def test_coproduct_size(self):
        assert coproduct(mo_free(1), mo_free(1)).size == 6
        assert coproduct(mo_free(2), boolean_powerset_ea(2)).size == (6 - 2) + (4 - 2) + 2

    def test_coproduct_rejects_degenerate(self):
        with pytest.raises(ValueError):
            coproduct(boolean_powerset_ea(0), mo_free(1))

    def test_coproduct_no_cross_sums(self):
        left, right = mo_free(1), mo_free(2)
        algebra = coproduct(left, right)
        # after the shared 0 and 1, the left middle elements, then the right ones
        left_mid = range(2, left.size)
        right_mid = range(left.size, algebra.size)
        assert left_mid and right_mid
        for x in left_mid:
            for y in right_mid:
                assert algebra.sum_of(x, y) is None

    def test_downset_of_zero_is_degenerate(self):
        algebra = downset(two_element(), 0)
        assert algebra.size == 1
        assert algebra.zero == algebra.one
        assert check_axioms(algebra).passed

    def test_downset_membership(self):
        algebra = downset(boolean_powerset_ea(3), 0b011)
        assert algebra.size == 4

    def test_downset_below_a_top_outside_its_own_downset_raises(self):
        # (0, 0) is missing, so neither 0 nor top = 0 lies below 0
        broken = FiniteEffectAlgebra(2, 0, 1, {(0, 1): 1, (1, 0): 1, (1, 1): 1}, {0: 1, 1: 0})
        with pytest.raises(MalformedAlgebraError):
            downset(broken, 0)

    def test_opposite_is_involutive(self):
        for algebra in (mo_free(2), boolean_powerset_ea(2)):
            assert opposite(opposite(algebra)) == algebra

    def test_product_axioms(self):
        assert check_axioms(product(boolean_powerset_ea(2), mo_free(1))).passed

    @pytest.mark.parametrize("build,small", [(product, mo_free(0)), (coproduct, mo_free(1))],
                             ids=["product", "coproduct"])
    def test_oversized_result_is_refused_before_allocating(self, build, small):
        big = boolean_powerset_ea(10)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"at most {MAX_ELEMENTS} elements"):
                build(big, small)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 1026-element table alone would take 4 MB
        assert peak < 100_000


class TestHomomorphisms:
    def test_powerset_to_two_has_point_evaluations(self):
        homs = enumerate_homomorphisms(boolean_powerset_ea(3), two_element())
        assert len(homs) == 3
        for hom in homs:
            ones = [i for i in range(3) if hom.mapping[1 << i] == 1]
            assert len(ones) == 1

    @pytest.mark.parametrize("target", [mo_free(1), mo_free(2), boolean_powerset_ea(2)],
                             ids=["MO1", "MO2", "P2"])
    def test_two_element_is_initial(self, target):
        homs = enumerate_homomorphisms(two_element(), target)
        assert len(homs) == 1
        assert homs[0].mapping == {0: target.zero, 1: target.one}

    def test_homs_preserve_perp_and_zero(self):
        source, target = mo_free(1), boolean_powerset_ea(2)
        for hom in enumerate_homomorphisms(source, target):
            assert hom.mapping[source.zero] == target.zero
            for x in source.elements:
                assert hom.mapping[source.perp[x]] == target.perp[hom.mapping[x]]

    def test_cap_guard(self):
        with pytest.raises(HomSearchCapError):
            enumerate_homomorphisms(boolean_powerset_ea(3), boolean_powerset_ea(3), cap=100)

    def test_cap_counts_visited_partial_maps(self):
        # 2^13 = 8192 total maps, but the search visits 896 partial maps
        homs = enumerate_homomorphisms(mo_free(6), two_element(), cap=4000)
        assert len(homs) == 2 ** 6

    def test_deep_source_has_point_evaluations(self):
        """P(10) has 1023 elements to assign: deeper than the interpreter stack."""
        homs = enumerate_homomorphisms(boolean_powerset_ea(10), two_element())
        points = []
        for hom in homs:
            ones = [bits for bits, image in hom.mapping.items() if image == 1]
            point = min(ones)
            assert ones == [bits for bits in range(1 << 10) if bits & point]
            points.append(point.bit_length() - 1)
        assert sorted(points) == list(range(10))

    @pytest.mark.parametrize(
        "n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (3, 3)]
    )
    def test_powerset_homs_preserve_meet_and_join(self, n, m):
        """Sum-preserving maps between subset algebras preserve all unions."""
        source, target = boolean_powerset_ea(n), boolean_powerset_ea(m)
        homs = enumerate_homomorphisms(source, target, cap=10**8)
        # finite duality: one hom per function from the m points to the n points
        assert len(homs) == n ** m
        for hom in homs:
            f = hom.mapping
            for x in source.elements:
                for y in source.elements:
                    assert f[x | y] == f[x] | f[y]
                    assert f[x & y] == f[x] & f[y]

    def test_is_homomorphism_rejects_non_hom(self):
        source = mo_free(1)
        target = two_element()
        # collapse both generators to 1: then a0 + a0' = 1 maps to 1 + 1, undefined
        mapping = {0: 0, 1: 1, 2: 1, 3: 1}
        assert not is_homomorphism(source, target, mapping)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_subset_algebra_relations(n, data):
    """In subset algebras: below iff contained, with the difference as witness."""
    algebra = boolean_powerset_ea(n)
    x = data.draw(st.integers(min_value=0, max_value=algebra.size - 1))
    y = data.draw(st.integers(min_value=0, max_value=algebra.size - 1))
    assert derived_leq(algebra, x, y) == (x & y == x)
    if x & y == x:
        assert partial_minus(algebra, y, x) == y & ~x & (algebra.size - 1)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=0, max_value=3), m=st.integers(min_value=0, max_value=2))
def test_random_constructions_pass_axioms(n, m):
    algebra = product(mo_free(n), boolean_powerset_ea(m))
    assert check_axioms(algebra).passed


# --- references: the plain loops the array code must agree with -------------


def derived_leq(ea: FiniteEffectAlgebra, x: int, y: int) -> bool:
    """x <= y iff some z satisfies x + z = y (exhaustive search)."""
    return any(ea.sums.get((x, z)) == y for z in ea.elements)


def partial_minus(ea: FiniteEffectAlgebra, x: int, y: int) -> int | None:
    """x - y: the unique z with y + z = x, or None when y is not below x."""
    for z in ea.elements:
        if ea.sums.get((y, z)) == x:
            return z
    return None


def is_homomorphism(source: FiniteEffectAlgebra, target: FiniteEffectAlgebra,
                    mapping: dict[int, int]) -> bool:
    """Unit preservation plus preservation of every defined sum."""
    if mapping[source.one] != target.one:
        return False
    for (x, y), v in source.sums.items():
        img = target.sums.get((mapping[x], mapping[y]))
        if img is None or img != mapping[v]:
            return False
    return True


def reference_check_axioms(ea: FiniteEffectAlgebra) -> AxiomReport:
    """Every law over every pair or triple of elements, in the checker's order."""
    sums, elems = ea.sums, ea.elements
    for (x, y), v in sums.items():
        if sums.get((y, x)) != v:
            return AxiomReport(False, "commutativity", (x, y))
    for (y, z), yz in sums.items():
        for x in elems:
            outer = sums.get((x, yz))
            if outer is None:
                continue
            xy = sums.get((x, y))
            if xy is None or sums.get((xy, z)) != outer:
                return AxiomReport(False, "associativity", (x, y, z))
    for x in elems:
        if sums.get((ea.zero, x)) != x:
            return AxiomReport(False, "zero-identity", (x,))
    for x in elems:
        if sums.get((x, ea.perp[x])) != ea.one:
            return AxiomReport(False, "orthocomplement-sum", (x,))
    for x in elems:
        if (x, ea.one) in sums and x != ea.zero:
            return AxiomReport(False, "zero-law", (x,))
    for x in elems:
        for y in elems:
            if sums.get((x, y)) == ea.one and y != ea.perp[x]:
                return AxiomReport(False, "orthocomplement-uniqueness", (x, y))
    return AxiomReport(True)


def reference_downset(ea: FiniteEffectAlgebra, top: int) -> FiniteEffectAlgebra:
    """The interval below ``top`` from ``derived_leq`` and ``partial_minus`` scans."""
    members = [y for y in ea.elements if derived_leq(ea, y, top)]
    ids = {y: i for i, y in enumerate(members)}
    comps = [partial_minus(ea, top, y) for y in members]
    if any(comp not in ids for comp in comps):
        raise MalformedAlgebraError("parent algebra lacks relative complements")
    if ea.zero not in ids or top not in ids:
        raise MalformedAlgebraError("0 or top is not below top")
    sums = {(ids[x], ids[y]): ids[v] for (x, y), v in ea.sums.items()
            if x in ids and y in ids and v in ids}
    return FiniteEffectAlgebra(len(members), ids[ea.zero], ids[top], sums,
                               {ids[y]: ids[comp] for y, comp in zip(members, comps)})


def reference_homomorphisms(source, target) -> list[dict[int, int]]:
    """Every total map with 1 -> 1, in ``itertools.product`` order, filtered."""
    rest = [x for x in source.elements if x != source.one]
    found = []
    for images in itertools.product(target.elements, repeat=len(rest)):
        mapping = dict(zip(rest, images))
        mapping[source.one] = target.one
        if is_homomorphism(source, target, mapping):
            found.append(mapping)
    return found


BASES = [mo_free(n) for n in range(4)] + [boolean_powerset_ea(n) for n in range(5)]
NONDEGENERATE = [a for a in BASES if a.zero != a.one]
STOCK_TABLES = (
    BASES
    + [opposite(a) for a in BASES]
    + [product(a, b) for a, b in itertools.product(BASES, repeat=2) if a.size * b.size <= 48]
    + [coproduct(a, b) for a, b in itertools.product(NONDEGENERATE, repeat=2)]
)


@st.composite
def mutated_tables(draw, bases=STOCK_TABLES):
    """A stock table with one to three symmetric edits of its sum table."""
    base = draw(st.sampled_from(bases))
    sums = dict(base.sums)
    element = st.sampled_from(base.elements)
    # 0 and 1 as values reach the zero-identity and complement laws more often
    value = st.sampled_from([base.zero, base.one]) | element
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        edit = draw(st.sampled_from(["delete", "rewrite", "add"]))
        if edit == "add" or not sums:
            x, y = draw(element), draw(element)
        else:
            x, y = draw(st.sampled_from(sorted(sums)))
        if edit == "delete" and (x, y) in sums:
            del sums[(x, y)]
            sums.pop((y, x), None)
        else:
            sums[(x, y)] = sums[(y, x)] = draw(value)
    return dataclasses.replace(base, sums=sums)


@settings(max_examples=500, deadline=None)
@given(algebra=mutated_tables(), data=st.data())
def test_checker_and_downset_match_references(algebra, data):
    assert check_axioms(algebra) == reference_check_axioms(algebra)
    top = data.draw(st.sampled_from(algebra.elements))
    try:
        expected = reference_downset(algebra, top)
    except MalformedAlgebraError:
        with pytest.raises(MalformedAlgebraError):
            downset(algebra, top)
    else:
        built = downset(algebra, top)
        assert built == expected


def reference_opposite(ea: FiniteEffectAlgebra) -> FiniteEffectAlgebra:
    """owedge on every pair in element order, the loop that opposite replaces."""
    sums = {}
    for x in ea.elements:
        for y in ea.elements:
            v = owedge(ea, x, y)
            if v is not None:
                sums[(x, y)] = v
    return FiniteEffectAlgebra(ea.size, ea.one, ea.zero, sums, ea.perp)


@settings(max_examples=120, deadline=None)
@given(algebra=mutated_tables())
def test_opposite_matches_pairwise_reference(algebra):
    assert opposite(algebra) == reference_opposite(algebra)


ONE_PLUS_ONE = FiniteEffectAlgebra(2, 0, 1, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
                                   {0: 1, 1: 0})
HOM_ALGEBRAS = {
    "MO0": mo_free(0),
    "MO1": mo_free(1),
    "MO2": mo_free(2),
    "P0": boolean_powerset_ea(0),
    "P2": boolean_powerset_ea(2),
    "P3": boolean_powerset_ea(3),
    "MO2op": opposite(mo_free(2)),
    "MO1xMO0": product(mo_free(1), mo_free(0)),
    "MO1+P2": coproduct(mo_free(1), boolean_powerset_ea(2)),
    "1+1=1": ONE_PLUS_ONE,
}
HOM_PAIRS = [
    pytest.param(s, t, id=f"{s_name}-{t_name}")
    for (s_name, s), (t_name, t) in itertools.product(HOM_ALGEBRAS.items(), repeat=2)
    if t.size ** (s.size - 1) <= 5000
]


@pytest.mark.parametrize("source,target", HOM_PAIRS)
def test_hom_search_matches_reference(source, target):
    found = enumerate_homomorphisms(source, target)
    assert all(hom.source is source and hom.target is target for hom in found)
    got = [list(hom.mapping.items()) for hom in found]
    assert got == [list(m.items()) for m in reference_homomorphisms(source, target)]


@settings(max_examples=60, deadline=None)
@given(source=mutated_tables(bases=[mo_free(1), mo_free(2), boolean_powerset_ea(2)]),
       target=st.sampled_from([mo_free(0), mo_free(1), boolean_powerset_ea(2)]))
def test_hom_search_matches_reference_on_mutated_sources(source, target):
    got = [list(hom.mapping.items()) for hom in enumerate_homomorphisms(source, target)]
    assert got == [list(m.items()) for m in reference_homomorphisms(source, target)]
