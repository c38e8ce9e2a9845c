"""Each instance embeds into the next, and every operation commutes with it.

Classical into stochastic: a subset becomes its 0/1 fuzzy predicate and a
function the deterministic kernel of its table.  Values stay 0 or 1, so
the images agree exactly.

Stochastic into quantum, along the diagonal: a fuzzy predicate p on an
n-point carrier becomes the diagonal effect diag(p), a distribution the
diagonal density matrix of its weights.  These agree within the README's
1e-8 contract after chained arithmetic.

The paper's claim that one structure covers the three instances says
every operation commutes with these embeddings.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effectlogic import classical, config, quantum, stochastic
from effectlogic.classical import BoolPredicate, FinMap, range_finset
from effectlogic.quantum import DensityMatrix, Effect, QPredicate

TOL = 1e-8

unit = st.floats(0.0, 1.0)


@st.composite
def fuzzy_pair(draw):
    n = draw(st.integers(1, 5))
    carrier = range_finset(n)
    p, q = (stochastic.FuzzyPredicate(carrier, draw(st.lists(unit, min_size=n, max_size=n)))
            for _ in range(2))
    return p, q


def embed(p: stochastic.FuzzyPredicate) -> QPredicate:
    return QPredicate.from_effect(Effect(np.diag(p.values)))


def assert_diagonal(matrix: np.ndarray, values: np.ndarray) -> None:
    assert np.max(np.abs(matrix - np.diag(values)), initial=0.0) < TOL


@settings(max_examples=200, deadline=None)
@given(fuzzy_pair())
def test_orthosum_commutes(pair):
    p, q = pair
    # definedness itself may go either way within the tolerance of the bound
    assume(abs(np.max(p.values + q.values) - (1.0 + config.EPS)) > TOL)
    classical_sum = stochastic.orthosum(p, q)
    quantum_sum = quantum.orthosum(embed(p), embed(q))
    assert (classical_sum is None) == (quantum_sum is None)
    if classical_sum is not None:
        assert_diagonal(quantum_sum.first.matrix, classical_sum.values)
        assert_diagonal(quantum_sum.second.matrix, classical_sum.complement().values)


@settings(max_examples=200, deadline=None)
@given(fuzzy_pair(), unit)
def test_multiply_commutes(pair, s):
    p, _ = pair
    scaled = quantum.probability_multiply(s, embed(p))
    assert_diagonal(scaled.first.matrix, stochastic.probability_multiply(s, p).values)


@settings(max_examples=200, deadline=None)
@given(fuzzy_pair())
def test_sequential_tests_commute(pair):
    p, q = pair
    a, b = embed(p), embed(q)
    assert_diagonal(quantum.test_andthen(a, b).first.matrix,
                    stochastic.test_andthen(p, q).values)
    assert_diagonal(quantum.test_then(a, b).first.matrix, stochastic.test_then(p, q).values)


@settings(max_examples=200, deadline=None)
@given(fuzzy_pair())
def test_comprehension_commutes(pair):
    p, _ = pair
    sub, _ = stochastic.comprehension(p)
    inclusion = quantum.comprehension(embed(p)).matrix
    assert inclusion.shape == (p.carrier.size, sub.size)
    certain = (1.0 - p.values < config.POST_EPS).astype(float)
    assert_diagonal(inclusion @ inclusion.conj().T, certain)


@pytest.mark.parametrize("value,size", [(1.0, 1), (1.0 - 5e-9, 1), (1.0 - 2e-8, 0)])
def test_comprehension_band_edge(value, size):
    # both instances count a value within POST_EPS of 1 as certain
    p = stochastic.FuzzyPredicate(range_finset(2), [value, 0.3])
    sub, _ = stochastic.comprehension(p)
    assert sub.size == size
    assert quantum.comprehension(embed(p)).matrix.shape == (2, size)


@settings(max_examples=200, deadline=None)
@given(fuzzy_pair(), st.lists(unit, min_size=5, max_size=5))
def test_measure_commutes(pair, raw_weights):
    p, _ = pair
    n = p.carrier.size
    weights = np.array(raw_weights[:n])
    assume(weights.sum() > 1e-3)
    dist = stochastic.Distribution(p.carrier, weights / weights.sum())
    rho = DensityMatrix(np.diag(dist.weights))
    measured = quantum.measure_density(embed(p), rho).matrix
    expected = stochastic.measure_distribution(p, dist).weights
    assert np.max(np.abs(np.diag(measured) - expected)) < TOL


# -- classical into stochastic -------------------------------------------------


@st.composite
def subset_pair(draw):
    n = draw(st.integers(1, 6))
    carrier = range_finset(n)
    p, q = (BoolPredicate(carrier, frozenset(draw(st.sets(st.integers(0, n - 1)))))
            for _ in range(2))
    return p, q


@st.composite
def function_and_subset(draw):
    source, target = (range_finset(draw(st.integers(1, 6))) for _ in range(2))
    table = draw(st.lists(st.integers(0, target.size - 1),
                          min_size=source.size, max_size=source.size))
    q = BoolPredicate(target, frozenset(draw(st.sets(st.integers(0, target.size - 1)))))
    return FinMap(source, target, tuple(table)), q


def lift(p: BoolPredicate) -> stochastic.FuzzyPredicate:
    values = np.zeros(p.carrier.size)
    values[sorted(p.members)] = 1.0
    return stochastic.FuzzyPredicate(p.carrier, values)


def lift_map(f: FinMap) -> stochastic.StochasticMap:
    return stochastic.deterministic(f.table, f.source, f.target)


def assert_lifts_to(p: BoolPredicate, fuzzy: stochastic.FuzzyPredicate) -> None:
    assert fuzzy.carrier == p.carrier
    assert np.array_equal(fuzzy.values, lift(p).values)


@settings(max_examples=200, deadline=None)
@given(subset_pair())
def test_lifted_orthosum_commutes(pair):
    p, q = pair
    subset_sum = classical.orthosum(p, q)
    fuzzy_sum = stochastic.orthosum(lift(p), lift(q))
    assert (subset_sum is None) == (fuzzy_sum is None) == bool(p.members & q.members)
    if subset_sum is not None:
        assert_lifts_to(subset_sum, fuzzy_sum)


@settings(max_examples=200, deadline=None)
@given(subset_pair())
def test_lifted_sequential_tests_commute(pair):
    p, q = pair
    assert_lifts_to(classical.test_andthen(p, q), stochastic.test_andthen(lift(p), lift(q)))
    assert_lifts_to(classical.test_then(p, q), stochastic.test_then(lift(p), lift(q)))


@settings(max_examples=200, deadline=None)
@given(function_and_subset())
def test_lifted_substitute_commutes(case):
    f, q = case
    assert_lifts_to(classical.substitute(f, q), stochastic.substitute(lift_map(f), lift(q)))


@settings(max_examples=200, deadline=None)
@given(subset_pair())
def test_lifted_comprehension_commutes(pair):
    p, _ = pair
    sub, inclusion = classical.comprehension(p)
    fuzzy_sub, fuzzy_inclusion = stochastic.comprehension(lift(p))
    assert fuzzy_sub.labels == sub.labels
    assert np.array_equal(fuzzy_inclusion.matrix, lift_map(inclusion).matrix)


@settings(max_examples=200, deadline=None)
@given(subset_pair(), st.integers(0, 5))
def test_lifted_measure_commutes(pair, point):
    p, _ = pair
    x = point % p.carrier.size
    measured = stochastic.measure_distribution(lift(p), stochastic.dirac(p.carrier, x))
    side = classical.tagged_to_index(p.carrier, classical.measure(p, x))
    assert measured.carrier == classical.doubled_carrier(p.carrier)
    assert np.array_equal(measured.weights,
                          stochastic.dirac(measured.carrier, side).weights)
