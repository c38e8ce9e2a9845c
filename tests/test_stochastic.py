"""The fuzzy instance: kernels, expectation duality, measurement.

Dyadic rationals with small denominators are exact in double precision,
so the algebraic law suite runs with exact equality on them; everything
involving arbitrary reals uses the package tolerance.  Independent
oracles: explicit summation loops, and the expectation pairing read back
through ``xi_inverse``; the duality square is in ``test_shared_laws.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectlogic import config
from effectlogic import stochastic as sto
from effectlogic.classical import range_finset
from effectlogic.stochastic import (
    Distribution,
    FuzzyPredicate,
    MultiplicationGapWitness,
    StochasticMap,
    clamp_probability,
    comprehension,
    compose,
    dirac,
    falsity,
    indicator,
    measure_distribution,
    multiplication_not_preserved_witness,
    orthosum,
    probability_multiply,
    substitute,
    truth,
    uniform,
    xi_inverse,
    xi_state,
)
from effectlogic.stochastic import test_andthen as andthen_op
from effectlogic.stochastic import test_then as then_op


def rng():
    return np.random.default_rng(2718)


def random_fuzzy(r, carrier):
    return FuzzyPredicate(carrier, r.uniform(size=carrier.size))


def random_dist(r, carrier):
    w = r.uniform(size=carrier.size) + 1e-3
    return Distribution(carrier, w / np.sum(w))


def random_kernel(r, src, tgt):
    m = r.uniform(size=(src.size, tgt.size)) + 1e-3
    return StochasticMap(src, tgt, m / np.sum(m, axis=1, keepdims=True))


def dyadic_fuzzy(r, carrier, denom=64):
    return FuzzyPredicate(carrier, r.integers(0, denom + 1, size=carrier.size) / denom)


class TestInvariants:
    def test_distribution_must_normalise(self):
        with pytest.raises(ValueError):
            Distribution(range_finset(2), np.array([0.5, 0.4]))

    def test_distribution_clamps_dust(self):
        d = Distribution(range_finset(2), np.array([1.0 + 5e-10, -5e-10]))
        assert d.weights[1] == 0.0

    def test_fuzzy_range(self):
        with pytest.raises(ValueError):
            FuzzyPredicate(range_finset(1), np.array([1.5]))

    def test_nan_entry_is_named_like_any_other(self):
        with pytest.raises(ValueError, match=r"^distribution has entries outside \[0, 1\]: "
                                             r"entry \[0\] is nan$"):
            Distribution(range_finset(2), np.array([np.nan, 1.0]))

    def test_rows_must_normalise(self):
        with pytest.raises(ValueError):
            StochasticMap(range_finset(1), range_finset(2), np.array([[0.5, 0.4]]))

    def test_probability_clamp(self):
        assert clamp_probability(1.0 + 1e-12) == 1.0
        with pytest.raises(ValueError):
            clamp_probability(1.1)


class TestOrthosum:
    def test_pointwise_sum(self):
        c = range_finset(3)
        p = FuzzyPredicate(c, np.full(3, 0.3))
        q = FuzzyPredicate(c, np.full(3, 0.5))
        assert np.allclose(orthosum(p, q).values, 0.8)

    def test_undefined_above_one(self):
        c = range_finset(3)
        p = FuzzyPredicate(c, np.full(3, 0.6))
        assert orthosum(p, p) is None

    def test_carrier_mismatch(self):
        with pytest.raises(ValueError):
            orthosum(truth(range_finset(1)), truth(range_finset(2)))


class TestSubstitution:
    def test_dirac_rows_collapse_to_composition(self):
        src, tgt = range_finset(3), range_finset(2)
        f = sto.deterministic([1, 0, 1], src, tgt)
        psi = FuzzyPredicate(tgt, np.array([0.25, 0.75]))
        assert np.allclose(substitute(f, psi).values, [0.75, 0.25, 0.75])

    def test_fifty_fifty_row(self):
        c = range_finset(2)
        f = StochasticMap(c, c, np.array([[0.5, 0.5], [0.5, 0.5]]))
        psi = FuzzyPredicate(c, np.array([1.0, 0.0]))
        assert np.allclose(substitute(f, psi).values, 0.5)

    def test_kleisli_associativity(self):
        r = rng()
        for _ in range(50):
            dims = [int(r.integers(1, 6)) for _ in range(4)]
            carriers = [range_finset(d) for d in dims]
            f = random_kernel(r, carriers[0], carriers[1])
            g = random_kernel(r, carriers[1], carriers[2])
            h = random_kernel(r, carriers[2], carriers[3])
            lhs = compose(h, compose(g, f))
            rhs = compose(compose(h, g), f)
            assert np.max(np.abs(lhs.matrix - rhs.matrix)) < config.EPS


class TestScalarMultiplication:
    def test_scaling(self):
        c = range_finset(2)
        p = FuzzyPredicate(c, np.full(2, 0.8))
        assert np.allclose(probability_multiply(0.5, p).values, 0.4)

    def test_module_laws_exact_on_dyadics(self):
        r = rng()
        denom = 64
        for _ in range(100):
            c = range_finset(int(r.integers(1, 6)))
            p = dyadic_fuzzy(r, c, denom)
            s = float(r.integers(0, denom + 1)) / denom
            t = float(r.integers(0, denom + 1)) / denom
            assert np.array_equal(
                probability_multiply(s * t, p).values,
                probability_multiply(s, probability_multiply(t, p)).values,
            )
            if s + t <= 1.0:
                left = probability_multiply(s + t, p)
                right = orthosum(probability_multiply(s, p), probability_multiply(t, p))
                assert right is not None
                assert np.array_equal(left.values, right.values)
            q = dyadic_fuzzy(r, c, denom)
            pq = orthosum(p, q)
            if pq is not None:
                scaled_sum = probability_multiply(s, pq)
                sum_scaled = orthosum(
                    probability_multiply(s, p), probability_multiply(s, q)
                )
                assert sum_scaled is not None
                assert np.array_equal(scaled_sum.values, sum_scaled.values)


class TestDynamicTests:
    def test_pointwise_numbers(self):
        c = range_finset(1)
        p = FuzzyPredicate(c, np.array([0.5]))
        q = FuzzyPredicate(c, np.array([0.4]))
        assert andthen_op(p, q).values[0] == pytest.approx(0.2)
        assert then_op(p, q).values[0] == pytest.approx(0.7)

    # boundary and subnormal values, which the shared then law never draws
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=1, allow_nan=False),
        st.floats(min_value=0, max_value=1, allow_nan=False),
    ), min_size=1, max_size=6))
    def test_then_is_complemented_andthen(self, pairs):
        c = range_finset(len(pairs))
        p = FuzzyPredicate(c, np.array([a for a, _ in pairs]))
        q = FuzzyPredicate(c, np.array([b for _, b in pairs]))
        direct = then_op(p, q).values
        via_perp = 1.0 - andthen_op(p, q.complement()).values
        assert np.max(np.abs(direct - via_perp)) < 1e-12


class TestComprehension:
    def test_truth_is_whole_carrier(self):
        c = range_finset(3)
        sub, _ = comprehension(truth(c))
        assert sub == c

    def test_threshold(self):
        c = range_finset(3)
        sub, inc = comprehension(FuzzyPredicate(c, np.array([1.0, 0.5, 1.0])))
        assert sub.labels == ("x0", "x2")
        assert np.allclose(inc.matrix, [[1, 0, 0], [0, 0, 1]])

    def test_adjunction_direction(self):
        r = rng()
        for _ in range(50):
            n = int(r.integers(2, 6))
            c = range_finset(n)
            values = r.uniform(size=n)
            values[r.integers(0, n)] = 1.0
            psi = FuzzyPredicate(c, values)
            sub, inc = comprehension(psi)
            src = range_finset(int(r.integers(1, 4)))
            g = random_kernel(r, src, sub)
            through = compose(inc, g)
            assert np.min(substitute(through, psi).values) >= 1.0 - config.EPS


class TestMeasurement:
    def test_truth_keeps_shape_on_left(self):
        c = range_finset(3)
        m = Distribution(c, np.array([0.2, 0.3, 0.5]))
        out = measure_distribution(truth(c), m)
        assert np.allclose(out.weights[:3], m.weights)
        assert np.allclose(out.weights[3:], 0.0)

    def test_sharp_split(self):
        c = range_finset(2)
        m = uniform(c)
        p = FuzzyPredicate(c, np.array([1.0, 0.0]))
        out = measure_distribution(p, m)
        assert np.allclose(out.weights, [0.5, 0.0, 0.0, 0.5])

    def test_marginal_recovers_input(self):
        r = rng()
        for _ in range(200):
            c = range_finset(int(r.integers(1, 7)))
            m = random_dist(r, c)
            p = random_fuzzy(r, c)
            out = measure_distribution(p, m)
            collapsed = out.weights[: c.size] + out.weights[c.size:]
            assert np.max(np.abs(collapsed - m.weights)) < config.EPS


class TestExpectationDuality:
    def test_dirac_evaluates(self):
        c = range_finset(3)
        p = FuzzyPredicate(c, np.array([0.1, 0.6, 0.9]))
        for i in range(3):
            assert xi_state(dirac(c, i))(p) == pytest.approx(p.values[i])

    def test_truth_normalises(self):
        r = rng()
        for _ in range(25):
            c = range_finset(int(r.integers(1, 7)))
            m = random_dist(r, c)
            assert xi_state(m)(truth(c)) == pytest.approx(1.0)

    def test_inverse_roundtrip(self):
        r = rng()
        for _ in range(50):
            c = range_finset(int(r.integers(1, 7)))
            m = random_dist(r, c)
            functional = xi_state(m)
            point_values = [functional(indicator(c, i)) for i in range(c.size)]
            back = xi_inverse(c, point_values)
            assert np.max(np.abs(back.weights - m.weights)) < config.EPS

    def test_inverse_rejects_unnormalised(self):
        c = range_finset(2)
        with pytest.raises(ValueError):
            xi_inverse(c, [0.5, 0.4])
        with pytest.raises(ValueError):
            xi_inverse(c, [1.5, -0.5])


class TestMultiplicationGap:
    def test_witness_values(self):
        w = multiplication_not_preserved_witness()
        assert isinstance(w, MultiplicationGapWitness)
        assert w.gap == pytest.approx(0.25)
        pulled_product = substitute(w.kernel, andthen_op(w.p, w.q))
        assert np.allclose(pulled_product.values, 0.0)
        product_of_pulled = andthen_op(substitute(w.kernel, w.p), substitute(w.kernel, w.q))
        assert np.allclose(product_of_pulled.values, 0.25)

    def test_independent_summation_oracle(self):
        w = multiplication_not_preserved_witness()
        n = w.kernel.source.size
        for x in range(n):
            lhs = sum(
                w.kernel.matrix[x, y] * w.p.values[y] * w.q.values[y] for y in range(n)
            )
            rhs = sum(w.kernel.matrix[x, y] * w.p.values[y] for y in range(n)) * sum(
                w.kernel.matrix[x, y] * w.q.values[y] for y in range(n)
            )
            assert abs(lhs - rhs) > 1e-6

    def test_deterministic_kernels_do_preserve(self):
        r = rng()
        for _ in range(50):
            n = int(r.integers(1, 6))
            c = range_finset(n)
            f = sto.deterministic(list(r.integers(0, n, size=n)), c, c)
            p, q = random_fuzzy(r, c), random_fuzzy(r, c)
            lhs = substitute(f, andthen_op(p, q))
            rhs = andthen_op(substitute(f, p), substitute(f, q))
            assert np.max(np.abs(lhs.values - rhs.values)) < config.EPS


class TestEffectAlgebraLaws:
    """Partial-monoid laws on dyadic-valued predicates, checked exactly."""

    def test_laws_exact(self):
        r = rng()
        denom = 64
        for _ in range(200):
            c = range_finset(int(r.integers(1, 5)))
            p, q, s = (dyadic_fuzzy(r, c, denom) for _ in range(3))
            pq = orthosum(p, q)
            qp = orthosum(q, p)
            if pq is None:
                assert qp is None
            else:
                assert np.array_equal(pq.values, qp.values)
            if pq is not None:
                outer = orthosum(pq, s)
                qs = orthosum(q, s)
                if outer is not None:
                    assert qs is not None
                    inner = orthosum(p, qs)
                    assert inner is not None
                    assert np.array_equal(outer.values, inner.values)
            assert np.array_equal(orthosum(falsity(c), p).values, p.values)
            comp = orthosum(p, p.complement())
            assert comp is not None and np.all(comp.values == 1.0)
            if np.all(p.values + 1.0 <= 1.0):  # only the zero predicate
                assert np.all(p.values == 0.0)
