"""Fuzzy predicates, finite distributions and stochastic maps.

The probabilistic instance of branching predicates: a predicate on a
finite carrier X assigns each point the probability of branching left, so
predicates are [0, 1]-valued vectors.  Maps are row-stochastic kernels,
substitution is the expected value of the predicate under the kernel row,
and a predicate doubles as its own classifier into X + X.

All arithmetic is double precision; the structural tolerance
``config.EPS`` decides equality, definedness of the partial sum and
normalisation, and ``linalg.kernel_band()`` (``config.POST_EPS``, at
most 0.5) which points are certain.  Every distribution, kernel and
predicate is admitted by one check: its entries must lie in
[-EPS, 1 + EPS], which NaN and infinities fail, and values drifting into
[-EPS, 0) or (1, 1 + EPS] are clamped back into the unit interval.
Carriers are ``classical.FinSet``s, which index their labels when built;
no operation here loops over the points in Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import config
from .classical import FinSet, doubled_carrier
from .linalg import kernel_band


def _admit_unit(values, what: str, shape: tuple[int, ...], mismatch: str) -> np.ndarray:
    """The one admission of a stochastic value: entries in [-EPS, 1 + EPS]
    (NaN fails the test), the expected shape, then clamped into [0, 1] and
    returned read-only."""
    v = np.asarray(values, dtype=np.float64)
    if v.size and not (v.min() >= -config.EPS and v.max() <= 1.0 + config.EPS):
        i = np.argwhere(~((v >= -config.EPS) & (v <= 1.0 + config.EPS)))[0]
        raise ValueError(f"{what} has entries outside [0, 1]: entry {i.tolist()} is {v[tuple(i)]}")
    if v.shape != shape:
        raise ValueError(mismatch)
    v = v.clip(0.0, 1.0)
    v.setflags(write=False)
    return v


def clamp_probability(value: float) -> float:
    """Snap a scalar probability into [0, 1], rejecting real violations."""
    if not -config.EPS <= value <= 1.0 + config.EPS:
        raise ValueError(f"probability {value} outside [0, 1]")
    return min(max(float(value), 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability distribution on a finite carrier (dense weights)."""

    carrier: FinSet
    weights: np.ndarray

    def __post_init__(self):
        w = _admit_unit(self.weights, "distribution", (self.carrier.size,),
                        "weight vector length must match carrier size")
        total = float(w.sum())
        if abs(total - 1.0) > config.EPS:
            raise ValueError(f"weights sum to {total}, expected 1")
        object.__setattr__(self, "weights", w)


def dirac(carrier: FinSet, index: int) -> Distribution:
    w = np.zeros(carrier.size)
    w[index] = 1.0
    return Distribution(carrier, w)


def uniform(carrier: FinSet) -> Distribution:
    if carrier.size == 0:
        raise ValueError("no uniform distribution on an empty carrier")
    return Distribution(carrier, np.full(carrier.size, 1.0 / carrier.size))


@dataclass(frozen=True, eq=False)
class StochasticMap:
    """A kernel from source to target: one distribution row per source point."""

    source: FinSet
    target: FinSet
    matrix: np.ndarray

    def __post_init__(self):
        m = _admit_unit(self.matrix, "stochastic matrix", (self.source.size, self.target.size),
                        "matrix shape must be source x target")
        sums = m.sum(axis=1)
        if m.shape[0] and abs(sums - 1.0).max() > config.EPS:
            row = int(np.argmax(np.abs(sums - 1.0) > config.EPS))
            raise ValueError(f"rows must sum to 1, got {sums[row]} in row {row}")
        object.__setattr__(self, "matrix", m)

    def row(self, i: int) -> Distribution:
        return Distribution(self.target, self.matrix[i])


def identity_kernel(carrier: FinSet) -> StochasticMap:
    return StochasticMap(carrier, carrier, np.eye(carrier.size))


def deterministic(f_table: Sequence[int], source: FinSet, target: FinSet) -> StochasticMap:
    m = np.zeros((source.size, target.size))
    m[np.arange(len(f_table)), f_table] = 1.0
    return StochasticMap(source, target, m)


def compose(g: StochasticMap, f: StochasticMap) -> StochasticMap:
    """Kernel composition, g after f (matrix product in row convention)."""
    if f.target != g.source:
        raise ValueError("composable kernels required")
    return StochasticMap(f.source, g.target, f.matrix @ g.matrix)


@dataclass(frozen=True, eq=False)
class FuzzyPredicate:
    """A [0, 1]-valued predicate on a finite carrier."""

    carrier: FinSet
    values: np.ndarray

    def __post_init__(self):
        v = _admit_unit(self.values, "fuzzy predicate", (self.carrier.size,),
                        "value vector length must match carrier size")
        object.__setattr__(self, "values", v)

    def complement(self) -> "FuzzyPredicate":
        return FuzzyPredicate(self.carrier, 1.0 - self.values)


def truth(carrier: FinSet) -> FuzzyPredicate:
    return FuzzyPredicate(carrier, np.ones(carrier.size))


def falsity(carrier: FinSet) -> FuzzyPredicate:
    return FuzzyPredicate(carrier, np.zeros(carrier.size))


def indicator(carrier: FinSet, index: int) -> FuzzyPredicate:
    v = np.zeros(carrier.size)
    v[index] = 1.0
    return FuzzyPredicate(carrier, v)


def _same_carrier(p: FuzzyPredicate, q: FuzzyPredicate) -> None:
    if p.carrier != q.carrier:
        raise ValueError("predicates live on different carriers")


def orthosum(p: FuzzyPredicate, q: FuzzyPredicate):
    """Pointwise sum when it stays below 1 everywhere; None otherwise."""
    _same_carrier(p, q)
    total = p.values + q.values
    if total.size and total.max() > 1.0 + config.EPS:
        return None
    return FuzzyPredicate(p.carrier, total)


def substitute(f: StochasticMap, q: FuzzyPredicate) -> FuzzyPredicate:
    """Expected value of q under each kernel row."""
    if q.carrier != f.target:
        raise ValueError("predicate carrier must be the kernel's target")
    return FuzzyPredicate(f.source, f.matrix @ q.values)


def probability_multiply(s: float, p: FuzzyPredicate) -> FuzzyPredicate:
    """Scale a predicate by a probability, pointwise."""
    s = clamp_probability(s)
    return FuzzyPredicate(p.carrier, s * p.values)


def test_andthen(p: FuzzyPredicate, q: FuzzyPredicate) -> FuzzyPredicate:
    """Sequential test: pointwise product."""
    _same_carrier(p, q)
    return FuzzyPredicate(p.carrier, p.values * q.values)


def test_then(p: FuzzyPredicate, q: FuzzyPredicate) -> FuzzyPredicate:
    """Guarded test: 1 - p (1 - q), the probabilistic implication."""
    _same_carrier(p, q)
    return FuzzyPredicate(p.carrier, 1.0 - p.values * (1.0 - q.values))


def comprehension(p: FuzzyPredicate) -> tuple[FinSet, StochasticMap]:
    """The sub-carrier where p is certain, with its inclusion.

    A point is certain when 1 minus its value is below ``kernel_band()``:
    the rule the quantum kernel basis applies to the eigenvalues of I - A.
    """
    band = kernel_band()
    included = np.flatnonzero(1.0 - p.values < band)
    sub = FinSet(tuple(map(p.carrier.labels.__getitem__, included.tolist())))
    return sub, deterministic(included, sub, p.carrier)


def predicate_as_map(p: FuzzyPredicate) -> StochasticMap:
    """The branching kernel X -> X + X determined by p (its own classifier)."""
    n = p.carrier.size
    m = np.zeros((n, 2 * n))
    points = np.arange(n)
    m[points, points] = p.values
    m[points, n + points] = 1.0 - p.values
    return StochasticMap(p.carrier, doubled_carrier(p.carrier), m)


def omega_predicate(carrier: FinSet) -> FuzzyPredicate:
    """The sharp "left half" predicate on the doubled carrier."""
    v = np.zeros(2 * carrier.size)
    v[: carrier.size] = 1.0
    return FuzzyPredicate(doubled_carrier(carrier), v)


def coproduct_map(f: StochasticMap) -> StochasticMap:
    """f + f between doubled carriers (block diagonal kernel)."""
    ns, nt = f.source.size, f.target.size
    m = np.zeros((2 * ns, 2 * nt))
    m[:ns, :nt] = f.matrix
    m[ns:, nt:] = f.matrix
    return StochasticMap(doubled_carrier(f.source), doubled_carrier(f.target), m)


def measure_distribution(p: FuzzyPredicate, m: Distribution) -> Distribution:
    """Split a distribution along p into the doubled carrier.

    Mass at a point is multiplied by the predicate's value on the left
    branch and by the complement on the right branch; collapsing the tags
    recovers the input, so the output is normalised by construction.
    """
    if p.carrier != m.carrier:
        raise ValueError("dimension mismatch")
    left = m.weights * p.values
    right = m.weights * (1.0 - p.values)
    return Distribution(doubled_carrier(m.carrier), np.concatenate([left, right]))


def xi_state(m: Distribution) -> Callable[[FuzzyPredicate], float]:
    """The predicate-transformer view of a distribution: expectation."""

    def functional(p: FuzzyPredicate) -> float:
        if p.carrier != m.carrier:
            raise ValueError("carrier mismatch")
        return clamp_probability(float(np.dot(m.weights, p.values)))

    return functional


def xi_inverse(carrier: FinSet, point_values: Sequence[float]) -> Distribution:
    """Reconstruct a distribution from a transformer's values on indicators.

    A normalised affine transformer is determined by what it assigns to
    the point indicator predicates; those values must be a probability
    vector, otherwise the transformer was not a state and ``Distribution``
    rejects them.
    """
    return Distribution(carrier, point_values)


@dataclass(frozen=True, eq=False)
class MultiplicationGapWitness:
    """A kernel and two predicates showing substitution ignores products.

    Averaging destroys multiplicativity: pulling back the product differs
    from the product of the pullbacks by ``gap`` at some point.
    """

    kernel: StochasticMap
    p: FuzzyPredicate
    q: FuzzyPredicate
    gap: float


def multiplication_not_preserved_witness() -> MultiplicationGapWitness:
    """The stored two-point witness, re-verified on construction."""
    x = FinSet(("x0", "x1"))
    f = StochasticMap(x, x, np.array([[0.5, 0.5], [0.5, 0.5]]))
    p = FuzzyPredicate(x, np.array([1.0, 0.0]))
    q = FuzzyPredicate(x, np.array([0.0, 1.0]))
    lhs = substitute(f, test_andthen(p, q))
    rhs = test_andthen(substitute(f, p), substitute(f, q))
    gap = float(np.max(np.abs(lhs.values - rhs.values)))
    if gap <= 1e-6:
        raise AssertionError("witness gap unexpectedly small")
    return MultiplicationGapWitness(f, p, q, gap)
