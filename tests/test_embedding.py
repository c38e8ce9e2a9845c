"""The stochastic instance embeds into the quantum one along the diagonal.

A fuzzy predicate p on an n-point carrier becomes the diagonal effect
diag(p), a distribution becomes the diagonal density matrix of its
weights.  The paper's claim that one structure covers both instances says
every operation commutes with that embedding; these properties check it
within the README's 1e-8 contract after chained arithmetic.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effectlogic import config, quantum, stochastic
from effectlogic.classical import range_finset
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
    a, b = embed(p).first, embed(q).first
    assert_diagonal(quantum.test_andthen(a, b).matrix, stochastic.test_andthen(p, q).values)
    assert_diagonal(quantum.test_then(a, b).matrix, stochastic.test_then(p, q).values)


@settings(max_examples=200, deadline=None)
@given(fuzzy_pair())
def test_comprehension_commutes(pair):
    p, _ = pair
    # the quantum kernel keeps eigenvalues within KERNEL_TOL of certainty,
    # the stochastic instance points within EPS: the band between them is
    # left to either side
    assume(not np.any((p.values > 1.0 - config.KERNEL_TOL) & (p.values < 1.0 - config.EPS)))
    sub, _ = stochastic.comprehension(p)
    inclusion = quantum.comprehension(embed(p)).matrix
    assert inclusion.shape == (p.carrier.size, sub.size)
    certain = (p.values >= 1.0 - config.EPS).astype(float)
    assert_diagonal(inclusion @ inclusion.conj().T, certain)


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
