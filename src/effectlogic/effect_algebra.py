"""Finite effect algebras as explicit tables.

An effect algebra is a partial commutative monoid (0, +) together with an
orthocomplement x -> x' such that x + x' = 1, x' is the only element
summing with x to 1, and x + 1 is defined only for x = 0.  Everything in
this module is finite and table-based: the partial sum is a dictionary
from ordered pairs of element ids (missing key means undefined), so every
law can be decided by enumeration.  The checks index the table by row
(``x -> {y: x + y}``) and visit only defined entries: associativity costs
one step per defined triple, not |sums| * |E|.  Homomorphisms are found
by a depth-first search that checks each sum entry as soon as its three
elements have images and cuts the branch at the first violation.

Element ids are opaque small integers; display names live in a side
table.  Undefined partial results are returned as ``None`` rather than
raised, so that quantified law checks can range over definedness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

DEFAULT_HOM_SEARCH_CAP = 10_000_000

# Largest algebras the constructors build, checked before allocating.  P(n)
# has 3^n sum entries and 4^n defined triples to check (P(10): 0.3 s).
MAX_MO_GENERATORS = 4096
MAX_POWERSET_POINTS = 10


class MalformedAlgebraError(Exception):
    """A table references an unknown element or is structurally broken.

    Distinct from an axiom failure: a malformed table is not a candidate
    algebra at all, so ``check_axioms`` raises instead of reporting.
    """


class HomSearchCapError(Exception):
    """The homomorphism search visited more partial maps than its cap allows."""


@dataclass(frozen=True)
class FiniteEffectAlgebra:
    """A finite effect-algebra candidate given by explicit tables.

    ``sums`` maps ordered pairs (x, y) to x + y and omits undefined pairs;
    ``perp`` is the total orthocomplement table.  Instances are plain data:
    nothing is validated at construction, run ``check_axioms`` for that.
    """

    elements: tuple[int, ...]
    zero: int
    one: int
    sums: Mapping[tuple[int, int], int]
    perp: Mapping[int, int]
    names: Mapping[int, str]

    @property
    def size(self) -> int:
        return len(self.elements)

    def name_of(self, x: int) -> str:
        return self.names.get(x, str(x))

    def sum_of(self, x: int, y: int) -> Optional[int]:
        """x + y, or None when the pair is not summable."""
        return self.sums.get((x, y))


@dataclass(frozen=True)
class EAHom:
    """A unit-preserving, sum-preserving map between two finite algebras."""

    source: FiniteEffectAlgebra
    target: FiniteEffectAlgebra
    mapping: Mapping[int, int]

    def __call__(self, x: int) -> int:
        return self.mapping[x]


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of an axiom sweep: the first violated law and its witness."""

    passed: bool
    law: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None

    def describe(self, ea: Optional[FiniteEffectAlgebra] = None) -> str:
        if self.passed:
            return "pass"
        if ea is None:
            return f"fail: {self.law} at {self.witness}"
        pretty = ", ".join(ea.name_of(w) for w in self.witness or ())
        return f"fail: {self.law} at ({pretty})"


def _structural_check(ea: FiniteEffectAlgebra) -> None:
    universe = set(ea.elements)
    if not universe:
        raise MalformedAlgebraError("empty universe")
    if len(universe) != len(ea.elements):
        raise MalformedAlgebraError("duplicate element ids")
    if ea.zero not in universe:
        raise MalformedAlgebraError(f"zero {ea.zero} not in universe")
    if ea.one not in universe:
        raise MalformedAlgebraError(f"one {ea.one} not in universe")
    for (x, y), v in ea.sums.items():
        if x not in universe or y not in universe or v not in universe:
            raise MalformedAlgebraError(f"sum entry {x} + {y} = {v} references unknown element")
    for x in ea.elements:
        if x not in ea.perp:
            raise MalformedAlgebraError(f"perp undefined on {x}")
        if ea.perp[x] not in universe:
            raise MalformedAlgebraError(f"perp({x}) = {ea.perp[x]} not in universe")


def _rows(ea: FiniteEffectAlgebra) -> dict[int, dict[int, int]]:
    """The sum table by row, ``rows[x] = {y: x + y}``, each row in element order.

    Two linear passes and no sort: the first groups the entries by right
    argument, the second walks those groups in element order, so every
    row receives its keys in element order.
    """
    by_right: dict[int, dict[int, int]] = {x: {} for x in ea.elements}
    rows: dict[int, dict[int, int]] = {x: {} for x in ea.elements}
    try:
        for (x, y), v in ea.sums.items():
            by_right[y][x] = v
        for y in ea.elements:
            for x, v in by_right[y].items():
                rows[x][y] = v
    except KeyError as exc:
        raise MalformedAlgebraError(f"sum table references unknown element {exc.args[0]}") from None
    return rows


def check_axioms(ea: FiniteEffectAlgebra) -> AxiomReport:
    """Verify the partial-monoid and orthocomplement laws on every entry.

    Laws are tested in a fixed order (commutativity, associativity, zero
    identity, complement sum, the zero law ``x + 1 defined => x = 0``,
    uniqueness of complements) and the first failure is reported with a
    minimal witness tuple.  Malformed tables raise instead.  The row index
    only skips undefined pairs, so each witness is the first one that plain
    loops over ``sums`` and ``elements`` would meet.
    """
    _structural_check(ea)
    sums = ea.sums

    for (x, y), v in sums.items():
        w = sums.get((y, x))
        if w is None or w != v:
            return AxiomReport(False, "commutativity", (x, y))

    rows = _rows(ea)
    # x + (y + z) is defined exactly for x in the row of y + z (commutativity
    # holds from here on), so only defined triples are visited
    for (y, z), yz in sums.items():
        for x, outer in rows[yz].items():
            xy = rows[x].get(y)
            if xy is None or rows[xy].get(z) != outer:
                return AxiomReport(False, "associativity", (x, y, z))

    for x in ea.elements:
        if sums.get((ea.zero, x)) != x:
            return AxiomReport(False, "zero-identity", (x,))

    for x in ea.elements:
        if sums.get((x, ea.perp[x])) != ea.one:
            return AxiomReport(False, "orthocomplement-sum", (x,))

    for x in ea.elements:
        if (x, ea.one) in sums and x != ea.zero:
            return AxiomReport(False, "zero-law", (x,))

    for x in ea.elements:
        for y, v in rows[x].items():
            if v == ea.one and y != ea.perp[x]:
                return AxiomReport(False, "orthocomplement-uniqueness", (x, y))

    return AxiomReport(True)


def owedge(ea: FiniteEffectAlgebra, x: int, y: int) -> Optional[int]:
    """The dual partial operation (x' + y')', or None when undefined."""
    s = ea.sums.get((ea.perp[x], ea.perp[y]))
    return None if s is None else ea.perp[s]


def _with_zero_rows(sums: dict[tuple[int, int], int], elements: Iterable[int], zero: int) -> None:
    for x in elements:
        sums[(zero, x)] = x
        sums[(x, zero)] = x


def mo_free(n: int) -> FiniteEffectAlgebra:
    """The free effect algebra on n generators: 2n+2 elements.

    Two incomparable copies of the generator set sit between bottom and
    top; complement swaps the copies, and the only non-trivial sums are
    generator-plus-partner giving 1.  (The other sums stay undefined; in
    particular 1 is summable with 0 only.)
    """
    if not 0 <= n <= MAX_MO_GENERATORS:
        raise ValueError(f"n must be between 0 and {MAX_MO_GENERATORS}")
    zero, one = 0, 1
    left = [2 + i for i in range(n)]
    right = [2 + n + i for i in range(n)]
    elements = tuple([zero, one] + left + right)
    names = {zero: "0", one: "1"}
    for i in range(n):
        names[left[i]] = f"a{i}"
        names[right[i]] = f"a{i}'"
    perp = {zero: one, one: zero}
    for i in range(n):
        perp[left[i]] = right[i]
        perp[right[i]] = left[i]
    sums: dict[tuple[int, int], int] = {}
    _with_zero_rows(sums, elements, zero)
    for i in range(n):
        sums[(left[i], right[i])] = one
        sums[(right[i], left[i])] = one
    return FiniteEffectAlgebra(elements, zero, one, sums, perp, names)


def boolean_powerset_ea(n: int) -> FiniteEffectAlgebra:
    """The Boolean algebra of subsets of an n-set, summing disjoint pairs.

    Element ids are bitmasks over n ground points.  The table holds 3^n
    entries, so n is capped at ``MAX_POWERSET_POINTS``.
    """
    if not 0 <= n <= MAX_POWERSET_POINTS:
        raise ValueError(f"n must be between 0 and {MAX_POWERSET_POINTS}")
    full = (1 << n) - 1
    elements = tuple(range(1 << n))
    names = {}
    for bits in elements:
        labels = [str(i) for i in range(n) if bits >> i & 1]
        names[bits] = "{" + ",".join(labels) + "}"
    perp = {bits: full ^ bits for bits in elements}
    sums: dict[tuple[int, int], int] = {}
    for x in elements:
        # enumerate subsets of the complement of x rather than all pairs
        rest = full ^ x
        y = rest
        while True:
            sums[(x, y)] = x | y
            if y == 0:
                break
            y = (y - 1) & rest
    return FiniteEffectAlgebra(elements, 0, full, sums, perp, names)


def product(e1: FiniteEffectAlgebra, e2: FiniteEffectAlgebra) -> FiniteEffectAlgebra:
    """Cartesian product with componentwise tables."""
    pairs = list(itertools.product(e1.elements, e2.elements))
    ids = {pair: i for i, pair in enumerate(pairs)}
    elements = tuple(range(len(pairs)))
    names = {ids[(a, b)]: f"({e1.name_of(a)},{e2.name_of(b)})" for (a, b) in pairs}
    perp = {ids[(a, b)]: ids[(e1.perp[a], e2.perp[b])] for (a, b) in pairs}
    sums: dict[tuple[int, int], int] = {}
    for (a, c), u in e1.sums.items():
        for (b, d), v in e2.sums.items():
            sums[(ids[(a, b)], ids[(c, d)])] = ids[(u, v)]
    return FiniteEffectAlgebra(
        elements, ids[(e1.zero, e2.zero)], ids[(e1.one, e2.one)], sums, perp, names
    )


def coproduct(e1: FiniteEffectAlgebra, e2: FiniteEffectAlgebra) -> FiniteEffectAlgebra:
    """Amalgamated sum: disjoint union with the two 0s and the two 1s identified.

    Sums are inherited from the components; elements from different
    components are summable only when one of them is 0 (or the shared 1
    with 0).  Degenerate factors (0 = 1) have no amalgamated sum in this
    form and are rejected.
    """
    if e1.zero == e1.one or e2.zero == e2.one:
        raise ValueError("coproduct factors must have distinct 0 and 1")
    zero, one = 0, 1
    emb1 = {e1.zero: zero, e1.one: one}
    emb2 = {e2.zero: zero, e2.one: one}
    next_id = 2
    names = {zero: "0", one: "1"}
    for x in e1.elements:
        if x not in emb1:
            emb1[x] = next_id
            names[next_id] = f"l.{e1.name_of(x)}"
            next_id += 1
    for x in e2.elements:
        if x not in emb2:
            emb2[x] = next_id
            names[next_id] = f"r.{e2.name_of(x)}"
            next_id += 1
    elements = tuple(range(next_id))
    perp = {zero: one, one: zero}
    for x in e1.elements:
        perp[emb1[x]] = emb1[e1.perp[x]]
    for x in e2.elements:
        perp[emb2[x]] = emb2[e2.perp[x]]
    sums: dict[tuple[int, int], int] = {}
    for (x, y), v in e1.sums.items():
        sums[(emb1[x], emb1[y])] = emb1[v]
    for (x, y), v in e2.sums.items():
        sums[(emb2[x], emb2[y])] = emb2[v]
    _with_zero_rows(sums, elements, zero)
    return FiniteEffectAlgebra(elements, zero, one, sums, perp, names)


def downset(ea: FiniteEffectAlgebra, top: int) -> FiniteEffectAlgebra:
    """The interval below ``top``, with complement y -> top - y.

    Sums are those of the parent whose value stays below ``top``.  With
    top = 0 this degenerates to the one-element algebra.
    """
    if top not in ea.elements:
        raise ValueError(f"{top} not in universe")
    # y is below top iff its row holds top; the first such entry gives top - y
    comps = {}
    for y, row in _rows(ea).items():
        for z, v in row.items():
            if v == top:
                comps[y] = z
                break
    members = list(comps)
    ids = {y: i for i, y in enumerate(members)}
    if ea.zero not in ids or top not in ids:
        raise MalformedAlgebraError(f"0 and {top} are not both below {top}")
    elements = tuple(range(len(members)))
    names = {ids[y]: ea.name_of(y) for y in members}
    perp = {}
    for y in members:
        comp = comps[y]
        if comp not in ids:
            raise MalformedAlgebraError("parent algebra lacks relative complements")
        perp[ids[y]] = ids[comp]
    sums: dict[tuple[int, int], int] = {}
    for (x, y), v in ea.sums.items():
        if x in ids and y in ids and v in ids:
            sums[(ids[x], ids[y])] = ids[v]
    return FiniteEffectAlgebra(elements, ids[ea.zero], ids[top], sums, perp, names)


def opposite(ea: FiniteEffectAlgebra) -> FiniteEffectAlgebra:
    """Swap the roles of (0, +) and (1, the dual operation).

    x owedge y = (x' + y')' is read off the sum entries through the
    preimages of perp, and inserted in element order of x, then y: the
    checker's witnesses follow that order.
    """
    preimages: dict[int, list[int]] = {}
    for x in ea.elements:
        preimages.setdefault(ea.perp[x], []).append(x)
    position = {x: i for i, x in enumerate(ea.elements)}
    entries = sorted(
        (position[x], position[y], x, y, ea.perp[s])
        for (a, b), s in ea.sums.items()
        for x in preimages.get(a, ())
        for y in preimages.get(b, ())
    )
    sums = {(x, y): v for _, _, x, y, v in entries}
    return FiniteEffectAlgebra(ea.elements, ea.one, ea.zero, sums, dict(ea.perp), dict(ea.names))


def enumerate_homomorphisms(source: FiniteEffectAlgebra, target: FiniteEffectAlgebra,
                            cap: int = DEFAULT_HOM_SEARCH_CAP) -> list[EAHom]:
    """All homomorphisms, by depth-first search over partial maps.

    The image of 1 is pinned to 1 (every homomorphism satisfies it by
    definition).  The other source elements get images in element order,
    each trying the target elements in order, and every sum entry is
    checked at the step that assigns the last of its three elements, so a
    branch is cut at its first violated entry.  Results come out in the
    lexicographic order of their images.  The search is iterative, so deep
    sources do not exhaust the interpreter stack.

    ``cap`` bounds the partial maps visited (one per image tried); the
    search raises ``HomSearchCapError`` when it would visit more.
    """
    rest = [x for x in source.elements if x != source.one]
    step = {x: i for i, x in enumerate(rest)}
    step[source.one] = -1
    pinned = []
    checks: list[list[tuple[int, int, int]]] = [[] for _ in rest]
    for (x, y), v in source.sums.items():
        last = max(step[x], step[y], step[v])
        (checks[last] if last >= 0 else pinned).append((x, y, v))
    tsums, images = target.sums, target.elements
    image = {source.one: target.one}
    if any(tsums.get((image[x], image[y])) != image[v] for x, y, v in pinned):
        return []

    found = []
    visited = 0
    tried = [0] * len(rest)  # per depth, how many target elements were tried
    depth = 0
    while depth >= 0:
        if depth == len(rest):
            mapping = {x: image[x] for x in rest}
            mapping[source.one] = target.one
            found.append(EAHom(source, target, mapping))
            depth -= 1
            continue
        i = tried[depth]
        if i == len(images):
            tried[depth] = 0
            depth -= 1
            continue
        tried[depth] = i + 1
        visited += 1
        if visited > cap:
            raise HomSearchCapError(f"homomorphism search visited more than {cap} partial maps")
        image[rest[depth]] = images[i]
        for x, y, v in checks[depth]:
            if tsums.get((image[x], image[y])) != image[v]:
                break
        else:
            depth += 1
    return found

