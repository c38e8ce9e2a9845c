"""Two-valued predicates on finite sets, in branching form.

A predicate on a finite carrier X is the subset of points it sends to the
"left" (true) copy inside X + X; the right part is the complement and is
never stored.  The coproduct X + X itself is kept explicit through tagged
elements and a doubled carrier, so the bookkeeping of the two injections
is testable rather than implicit index arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from . import effect_algebra as ea_mod
from .effect_algebra import FiniteEffectAlgebra, enumerate_homomorphisms


@dataclass(frozen=True)
class FinSet:
    """A finite carrier: an ordered tuple of distinct labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("carrier labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no element {label!r} in carrier") from None


def finset(*labels: str) -> FinSet:
    return FinSet(tuple(labels))


def range_finset(n: int) -> FinSet:
    return FinSet(tuple(f"x{i}" for i in range(n)))


@dataclass(frozen=True)
class BoolPredicate:
    """A subset of the carrier, stored as the set of member indices."""

    carrier: FinSet
    members: frozenset[int]

    def __post_init__(self):
        if any(not 0 <= i < self.carrier.size for i in self.members):
            raise ValueError("member index out of range")

    def complement(self) -> "BoolPredicate":
        return BoolPredicate(self.carrier, frozenset(range(self.carrier.size)) - self.members)

    def holds(self, i: int) -> bool:
        return i in self.members


def truth(carrier: FinSet) -> BoolPredicate:
    return BoolPredicate(carrier, frozenset(range(carrier.size)))


def falsity(carrier: FinSet) -> BoolPredicate:
    return BoolPredicate(carrier, frozenset())


@dataclass(frozen=True)
class FinMap:
    """A total function between carriers, tabulated on source indices."""

    source: FinSet
    target: FinSet
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.source.size:
            raise ValueError("table length must match source size")
        if any(not 0 <= j < self.target.size for j in self.table):
            raise ValueError("image index out of range")

    def __call__(self, i: int) -> int:
        return self.table[i]


def identity_map(carrier: FinSet) -> FinMap:
    return FinMap(carrier, carrier, tuple(range(carrier.size)))


def compose(g: FinMap, f: FinMap) -> FinMap:
    """g after f."""
    if f.target != g.source:
        raise ValueError("composable maps required")
    return FinMap(f.source, g.target, tuple(g.table[j] for j in f.table))


@dataclass(frozen=True)
class TaggedElement:
    """A point of X + X: a side tag plus the underlying index in X."""

    side: Literal["left", "right"]
    index: int


def doubled_carrier(carrier: FinSet) -> FinSet:
    """The coproduct X + X, left copy first."""
    return FinSet(
        tuple(f"L.{l}" for l in carrier.labels) + tuple(f"R.{l}" for l in carrier.labels)
    )


def tagged_to_index(carrier: FinSet, t: TaggedElement) -> int:
    if not 0 <= t.index < carrier.size:
        raise ValueError("tagged index out of range")
    return t.index if t.side == "left" else carrier.size + t.index


def index_to_tagged(carrier: FinSet, i: int) -> TaggedElement:
    if not 0 <= i < 2 * carrier.size:
        raise ValueError("doubled index out of range")
    if i < carrier.size:
        return TaggedElement("left", i)
    return TaggedElement("right", i - carrier.size)


def omega_predicate(carrier: FinSet) -> BoolPredicate:
    """The canonical "left half" subset of the doubled carrier."""
    return BoolPredicate(doubled_carrier(carrier), frozenset(range(carrier.size)))


def coproduct_map(f: FinMap) -> FinMap:
    """f + f between doubled carriers, preserving the side tag."""
    n = f.target.size
    table = tuple(f.table[i] for i in range(f.source.size)) + tuple(
        n + f.table[i] for i in range(f.source.size)
    )
    return FinMap(doubled_carrier(f.source), doubled_carrier(f.target), table)


def _same_carrier(p: BoolPredicate, q: BoolPredicate) -> None:
    if p.carrier != q.carrier:
        raise ValueError("predicates live on different carriers")


def orthosum(p: BoolPredicate, q: BoolPredicate):
    """Union of disjoint subsets; None when they overlap."""
    _same_carrier(p, q)
    if p.members & q.members:
        return None
    return BoolPredicate(p.carrier, p.members | q.members)


def substitute(f: FinMap, q: BoolPredicate) -> BoolPredicate:
    """Pull q back along f: the preimage subset."""
    if q.carrier != f.target:
        raise ValueError("predicate carrier must be the map's target")
    return BoolPredicate(f.source, frozenset(i for i in range(f.source.size) if f.table[i] in q.members))


def test_andthen(p: BoolPredicate, q: BoolPredicate) -> BoolPredicate:
    """Sequential test: intersection."""
    _same_carrier(p, q)
    return BoolPredicate(p.carrier, p.members & q.members)


def test_then(p: BoolPredicate, q: BoolPredicate) -> BoolPredicate:
    """Guarded test: material implication, not (p and not q)."""
    _same_carrier(p, q)
    return test_andthen(p, q.complement()).complement()


def comprehension(p: BoolPredicate) -> tuple[FinSet, FinMap]:
    """The sub-carrier of points satisfying p, with its inclusion map."""
    included = sorted(p.members)
    sub = FinSet(tuple(p.carrier.labels[i] for i in included))
    return sub, FinMap(sub, p.carrier, tuple(included))


def measure(p: BoolPredicate, x: int) -> TaggedElement:
    """Send a point left or right according to whether p holds."""
    if not 0 <= x < p.carrier.size:
        raise ValueError("element index out of range")
    return TaggedElement("left" if x in p.members else "right", x)


def predicate_as_map(p: BoolPredicate) -> FinMap:
    """The branching map X -> X + X determined by p (its own classifier)."""
    c = p.carrier
    table = tuple(tagged_to_index(c, measure(p, i)) for i in range(c.size))
    return FinMap(c, doubled_carrier(c), table)


def predicate_algebra(carrier: FinSet) -> FiniteEffectAlgebra:
    """Export all subsets of the carrier, with the partial union, as tables.

    Element ids are membership bitmasks.  The tables come from 4^n calls of
    ``orthosum`` (and ``complement``), so the algebra reflects exactly this
    module's operations, and 2^n is capped at ``MAX_ELEMENTS``.
    """
    n = carrier.size
    if 1 << n > ea_mod.MAX_ELEMENTS:
        raise ValueError("carrier too large to export exhaustively")

    def to_bits(p: BoolPredicate) -> int:
        bits = 0
        for i in p.members:
            bits |= 1 << i
        return bits

    def from_bits(bits: int) -> BoolPredicate:
        return BoolPredicate(carrier, frozenset(i for i in range(n) if bits >> i & 1))

    elements = range(1 << n)
    names = {bits: "{" + ",".join(carrier.labels[i] for i in range(n) if bits >> i & 1) + "}"
             for bits in elements}
    perp = [to_bits(from_bits(bits).complement()) for bits in elements]
    sums = {}
    for x in elements:
        for y in elements:
            s = orthosum(from_bits(x), from_bits(y))
            if s is not None:
                sums[(x, y)] = to_bits(s)
    return FiniteEffectAlgebra(1 << n, 0, (1 << n) - 1, sums, perp, names)


def stone_states(n: int) -> list[int]:
    """Recover the points of an n-set from its algebra of subsets.

    Enumerates the two-valued homomorphisms on the powerset algebra and
    checks that each one is evaluation at a single point; returns those
    points.  The powerset table has 3^n entries, so n is capped at 4.
    """
    if not 0 <= n <= 4:
        raise ValueError("n must be between 0 and 4")
    powerset = ea_mod.boolean_powerset_ea(n)
    two = ea_mod.mo_free(0)
    homs = enumerate_homomorphisms(powerset, two)
    points = []
    for hom in homs:
        candidates = [i for i in range(n) if hom.mapping[1 << i] == two.one]
        if len(candidates) != 1:
            raise AssertionError("homomorphism is not a point evaluation")
        x = candidates[0]
        for bits in powerset.elements:
            expected = two.one if bits >> x & 1 else two.zero
            if hom.mapping[bits] != expected:
                raise AssertionError("homomorphism is not a point evaluation")
        points.append(x)
    if len(points) != n:
        raise AssertionError(f"expected {n} states, found {len(points)}")
    return sorted(points)


@dataclass(frozen=True)
class RelationWitness:
    """Two relations on a three-point set whose direct images cannot tell
    apart two different subsets.

    ``p`` and ``q`` are the two cotuple maps from 3 = (1+1)+1 to 2 = 1+1
    that a branching-predicate bound must factor through; taking direct
    images in the category of relations loses the required injectivity.
    """

    p: dict[int, int]
    q: dict[int, int]
    u: frozenset[int]
    v: frozenset[int]

    @staticmethod
    def image(rel: dict[int, int], subset: frozenset[int]) -> frozenset[int]:
        return frozenset(rel[x] for x in subset)


def rel_joint_monicity_counterexample() -> RelationWitness:
    """The fixed witness that relations do not admit unique bounds."""
    p = {1: 1, 2: 2, 3: 2}
    q = {1: 2, 2: 1, 3: 2}
    u = frozenset({1, 2})
    v = frozenset({1, 2, 3})
    w = RelationWitness(p, q, u, v)
    assert w.u != w.v
    assert w.image(p, u) == w.image(p, v) == frozenset({1, 2})
    assert w.image(q, u) == w.image(q, v) == frozenset({1, 2})
    return w
