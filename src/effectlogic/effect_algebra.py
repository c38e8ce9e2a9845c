"""Finite effect algebras as dense tables.

An effect algebra is a partial commutative monoid (0, +) together with an
orthocomplement x -> x' such that x + x' = 1, x' is the only element
summing with x to 1, and x + 1 is defined only for x = 0.  Everything in
this module is finite and table-based: the elements are 0..n-1, and the
partial sum is one n x n integer array whose entry [x, y] is x + y, or -1
where the pair is not summable.  A table is admitted once, when its
algebra is built, so every law, construction and search reads an array
that holds known ids only.  Each law is a whole-array comparison, and
associativity one gather over the defined triples.  Homomorphisms are
found by a depth-first search that checks each sum entry as soon as its
three elements have images and cuts the branch at the first violation.

Display names are optional and no construction builds any; an element
without one is shown by its id.  Undefined partial results are returned
as ``None`` rather than raised, so that quantified law checks can range
over definedness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

DEFAULT_HOM_SEARCH_CAP = 10_000_000

# Largest algebra held, checked before allocating: P(10), whose table takes
# 4 MB and whose 4^10 defined triples take 0.2 s to check.
MAX_ELEMENTS = 1024

_TRIPLE_BLOCK = 1 << 12  # defined triples gathered at once by the associativity check


class MalformedAlgebraError(Exception):
    """A table references an unknown element or is structurally broken.

    Distinct from an axiom failure: a malformed table is not a candidate
    algebra at all, so building it raises instead of ``check_axioms``
    reporting.
    """


class HomSearchCapError(Exception):
    """The homomorphism search visited more partial maps than its cap allows."""


class SumTable(Mapping):
    """The read-only sum array, viewed as the mapping (x, y) -> x + y.

    Only defined entries are keys; they iterate in row-major order, and
    ``len`` counts them.
    """

    def __init__(self, array: np.ndarray):
        self.array = np.asarray(array, dtype=np.int32)
        self.array.flags.writeable = False

    def __getitem__(self, key: tuple[int, int]) -> int:
        x, y = key
        n = len(self.array)
        if 0 <= x < n and 0 <= y < n and self.array.item(x, y) >= 0:
            return self.array.item(x, y)
        raise KeyError(key)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        xs, ys = np.nonzero(self.array >= 0)
        return zip(xs.tolist(), ys.tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.array >= 0))


def _refuse_oversized(n: int) -> None:
    if n > MAX_ELEMENTS:
        raise ValueError(f"an algebra holds at most {MAX_ELEMENTS} elements, not {n}")


def _ids(values, what: str) -> np.ndarray:
    """``values`` as an int64 array.  An id too large for one is an unknown
    element, and an id that is not an integer is refused, not truncated."""
    ids = np.asarray(values)
    if ids.dtype == object:  # a Python int beyond 64 bits
        raise MalformedAlgebraError(f"{what} references an unknown element")
    if ids.size and ids.dtype.kind not in "iu":
        raise MalformedAlgebraError(f"{what} names an id that is not an integer")
    return ids.astype(np.int64, copy=False)  # a uint64 id beyond int64 wraps negative: unknown


@dataclass(frozen=True)
class FiniteEffectAlgebra:
    """A finite effect-algebra candidate given by explicit tables.

    The elements are 0..size-1.  ``sums`` maps ordered pairs (x, y) to
    x + y and omits undefined pairs; it is read into a ``SumTable`` when
    the algebra is built.  ``perp``, the total orthocomplement table, is
    kept as a tuple indexed by element.  Building refuses a size outside
    1..``MAX_ELEMENTS``, an unknown id, or a sum or ``perp`` id that is not
    an integer with ``MalformedAlgebraError``; run ``check_axioms`` for
    the laws.
    """

    size: int
    zero: int
    one: int
    sums: Mapping[tuple[int, int], int]
    perp: Mapping[int, int] | Sequence[int]
    names: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.size
        if not 1 <= n <= MAX_ELEMENTS:
            raise MalformedAlgebraError(f"an algebra holds 1 to {MAX_ELEMENTS} elements, not {n}")
        if not (0 <= self.zero < n and 0 <= self.one < n):
            raise MalformedAlgebraError(f"0 = {self.zero} or 1 = {self.one} is not an element")
        if not (isinstance(self.sums, SumTable) and self.sums.array.shape == (n, n)):
            entries = _ids([(x, y, v) for (x, y), v in self.sums.items()],
                           "a sum entry").reshape(-1, 3)
            unknown = entries[((entries < 0) | (entries >= n)).any(axis=1)].tolist()
            if unknown:
                raise MalformedAlgebraError("sum entry {} + {} = {} references unknown element"
                                            .format(*unknown[0]))
            table = np.full((n, n), -1, dtype=np.int32)
            table[entries[:, 0], entries[:, 1]] = entries[:, 2]
            object.__setattr__(self, "sums", SumTable(table))
        perp = self.perp
        if isinstance(perp, Mapping):
            try:
                perp = [perp[x] for x in range(n)]
            except KeyError:
                raise MalformedAlgebraError("perp is not defined on every element") from None
        perp = _ids(perp, "perp")
        if perp.shape != (n,):
            raise MalformedAlgebraError("perp is not defined on every element")
        if ((perp < 0) | (perp >= n)).any():
            raise MalformedAlgebraError("perp references an unknown element")
        object.__setattr__(self, "perp", tuple(perp.tolist()))

    @property
    def elements(self) -> range:
        return range(self.size)

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


def _first(bad: np.ndarray) -> Optional[tuple[int, ...]]:
    """The first index where ``bad`` holds, in row-major order, or None."""
    i = int(bad.argmax())
    return tuple(int(k) for k in np.unravel_index(i, bad.shape)) if bad.flat[i] else None


def _unassociative(table: np.ndarray) -> Optional[tuple[int, int, int]]:
    """The first triple with x + (y + z) defined but not equal to (x + y) + z.

    x + (y + z) is defined exactly for x in the row of y + z (the table is
    commutative by now), so only defined triples are gathered: (y, z) in
    row-major order, then x in that row, at most ``_TRIPLE_BLOCK`` at once.
    Entries are addressed by their flat index ``row * n + column``.
    """
    n = len(table)
    flat = table.ravel()
    defined = np.flatnonzero(flat >= 0)
    row_start = np.searchsorted(defined, np.arange(n + 1) * n)
    yzs = flat[defined]
    counts = np.diff(row_start)[yzs]
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(defined):
        done = ends[lo] - counts[lo]
        hi = max(int(np.searchsorted(ends, done + _TRIPLE_BLOCK, side="right")), lo + 1)
        runs = counts[lo:hi]
        # the triples of pair k take defined[row_start[y + z] + i] for i < counts[k]
        shift = np.repeat(row_start[yzs[lo:hi]] - (ends[lo:hi] - runs - done), runs)
        outer = defined[np.arange(len(shift)) + shift]
        pairs = np.repeat(defined[lo:hi], runs)
        xs = outer % n
        xys = flat[xs * n + pairs // n]
        bad = (xys < 0) | (flat[xys * n + pairs % n] != flat[outer])
        if bad.any():
            k = int(bad.argmax())
            return int(xs[k]), int(pairs[k] // n), int(pairs[k] % n)
        lo = hi
    return None


def check_axioms(ea: FiniteEffectAlgebra) -> AxiomReport:
    """Verify the partial-monoid and orthocomplement laws on every entry.

    Laws are tested in a fixed order (commutativity, associativity, zero
    identity, complement sum, the zero law ``x + 1 defined => x = 0``,
    uniqueness of complements) and the first failure is reported with a
    minimal witness tuple: the first in row-major order over pairs, and
    for associativity over (y, z, x) with x in the row of y + z.
    """
    table, one = ea.sums.array, ea.one
    ids = np.arange(ea.size)
    perp = np.array(ea.perp)
    laws = (
        ("commutativity", lambda: _first((table >= 0) & (table != table.T))),
        ("associativity", lambda: _unassociative(table)),
        ("zero-identity", lambda: _first(table[ea.zero] != ids)),
        ("orthocomplement-sum", lambda: _first(table[ids, perp] != one)),
        ("zero-law", lambda: _first((table[:, one] >= 0) & (ids != ea.zero))),
        ("orthocomplement-uniqueness", lambda: _first((table == one) & (ids != perp[:, None]))),
    )
    for law, witness_of in laws:
        witness = witness_of()
        if witness is not None:
            return AxiomReport(False, law, witness)
    return AxiomReport(True)


def owedge(ea: FiniteEffectAlgebra, x: int, y: int) -> Optional[int]:
    """The dual partial operation (x' + y')', or None when undefined."""
    s = ea.sum_of(ea.perp[x], ea.perp[y])
    return None if s is None else ea.perp[s]


def mo_free(n: int) -> FiniteEffectAlgebra:
    """The free effect algebra on n generators: 2n+2 elements.

    Two incomparable copies of the generator set sit between bottom and
    top; complement swaps the copies, and the only non-trivial sums are
    generator-plus-partner giving 1.  (The other sums stay undefined; in
    particular 1 is summable with 0 only.)
    """
    largest = (MAX_ELEMENTS - 2) // 2
    if not 0 <= n <= largest:
        raise ValueError(f"n must be between 0 and {largest}")
    ids = np.arange(2 * n + 2)
    left, right = ids[2:n + 2], ids[n + 2:]
    table = np.full((len(ids), len(ids)), -1, dtype=np.int32)
    table[0], table[:, 0] = ids, ids
    table[left, right] = table[right, left] = 1
    perp = np.concatenate([[1, 0], right, left])
    return FiniteEffectAlgebra(len(ids), 0, 1, SumTable(table), perp)


def boolean_powerset_ea(n: int) -> FiniteEffectAlgebra:
    """The Boolean algebra of subsets of an n-set, summing disjoint pairs.

    Element ids are bitmasks over n ground points; P(n) has 2^n elements,
    so n is capped where 2^n reaches ``MAX_ELEMENTS``.
    """
    largest = MAX_ELEMENTS.bit_length() - 1
    if not 0 <= n <= largest:
        raise ValueError(f"n must be between 0 and {largest}")
    full = (1 << n) - 1
    ids = np.arange(1 << n, dtype=np.int32)
    x, y = ids[:, None], ids[None, :]
    table = np.where(x & y == 0, x | y, -1)
    return FiniteEffectAlgebra(1 << n, 0, full, SumTable(table), full ^ ids)


def product(e1: FiniteEffectAlgebra, e2: FiniteEffectAlgebra) -> FiniteEffectAlgebra:
    """Cartesian product with componentwise tables; (a, b) has id a * |e2| + b."""
    n1, n2 = e1.size, e2.size
    _refuse_oversized(n1 * n2)
    t1, t2 = e1.sums.array, e2.sums.array
    # axes (a, b, c, d) of (a, b) + (c, d), defined when both components are
    table = np.where((t1 >= 0)[:, None, :, None] & (t2 >= 0)[None, :, None, :],
                     t1[:, None, :, None] * n2 + t2[None, :, None, :], -1)
    perp = np.array(e1.perp)[:, None] * n2 + np.array(e2.perp)[None, :]
    return FiniteEffectAlgebra(n1 * n2, e1.zero * n2 + e2.zero, e1.one * n2 + e2.one,
                               SumTable(table.reshape(n1 * n2, -1)), perp.ravel())


def coproduct(e1: FiniteEffectAlgebra, e2: FiniteEffectAlgebra) -> FiniteEffectAlgebra:
    """Amalgamated sum: disjoint union with the two 0s and the two 1s identified.

    Sums are inherited from the components; elements from different
    components are summable only when one of them is 0 (or the shared 1
    with 0).  Degenerate factors (0 = 1) have no amalgamated sum in this
    form and are rejected.
    """
    if e1.zero == e1.one or e2.zero == e2.one:
        raise ValueError("coproduct factors must have distinct 0 and 1")
    n = e1.size + e2.size - 2
    _refuse_oversized(n)
    table = np.full((n, n), -1, dtype=np.int32)
    perp = np.empty(n, dtype=int)
    fresh = 2
    for ea in (e1, e2):
        # 0 and 1 go to the shared 0 and 1, the rest to fresh ids in element order
        rest = np.ones(ea.size, dtype=bool)
        rest[[ea.zero, ea.one]] = False
        emb = np.empty(ea.size, dtype=int)
        emb[ea.zero], emb[ea.one] = 0, 1
        emb[rest] = np.arange(fresh, fresh + ea.size - 2)
        fresh += ea.size - 2
        rows, cols = np.nonzero(ea.sums.array >= 0)
        table[emb[rows], emb[cols]] = emb[ea.sums.array[rows, cols]]
        perp[emb] = emb[np.array(ea.perp)]
    table[0], table[:, 0] = np.arange(n), np.arange(n)
    return FiniteEffectAlgebra(n, 0, 1, SumTable(table), perp)


def downset(ea: FiniteEffectAlgebra, top: int) -> FiniteEffectAlgebra:
    """The interval below ``top``, with complement y -> top - y.

    Sums are those of the parent whose value stays below ``top``.  With
    top = 0 this degenerates to the one-element algebra.
    """
    if not 0 <= top < ea.size:
        raise ValueError(f"{top} not in universe")
    # y is below top iff its row holds top; the first such entry gives top - y
    hits = ea.sums.array == top
    members = np.flatnonzero(hits.any(axis=1))
    index = np.full(ea.size, -1, dtype=np.int32)
    index[members] = np.arange(len(members))
    if index[ea.zero] < 0 or index[top] < 0:
        raise MalformedAlgebraError(f"0 and {top} are not both below {top}")
    perp = index[hits[members].argmax(axis=1)]
    if (perp < 0).any():
        raise MalformedAlgebraError("parent algebra lacks relative complements")
    below = ea.sums.array[np.ix_(members, members)]
    table = np.where(below >= 0, index[below], -1)
    return FiniteEffectAlgebra(len(members), int(index[ea.zero]), int(index[top]),
                               SumTable(table), perp)


def opposite(ea: FiniteEffectAlgebra) -> FiniteEffectAlgebra:
    """Swap the roles of (0, +) and (1, the dual operation).

    x owedge y = (x' + y')' is read off the sum table through perp.
    """
    perp = np.array(ea.perp, dtype=np.int32)
    dual = ea.sums.array[np.ix_(perp, perp)]
    table = np.where(dual >= 0, perp[dual], -1)
    return FiniteEffectAlgebra(ea.size, ea.one, ea.zero, SumTable(table), ea.perp)


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
    xs, ys = np.nonzero(source.sums.array >= 0)
    for x, y, v in zip(xs.tolist(), ys.tolist(), source.sums.array[xs, ys].tolist()):
        last = max(step[x], step[y], step[v])
        (checks[last] if last >= 0 else pinned).append((x, y, v))
    tsums, images = target.sums.array.tolist(), target.elements
    image = [target.one] * source.size
    if any(tsums[image[x]][image[y]] != image[v] for x, y, v in pinned):
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
            if tsums[image[x]][image[y]] != image[v]:
                break
        else:
            depth += 1
    return found
