"""The laws all three instances share, written once over their records.

Each check takes an instance name, a generator, a count and a tolerance,
and draws its examples through the record in ``effectlogic.instances``;
subsets compare exactly, whatever the tolerance.  The laws the selftest
also runs have their one body in ``instances.check_laws``.  Acceptance
criteria 3, 4 and 7 run the same checks with their own seeds, counts and
tolerances.  Oracles that belong to one instance stay in its own file:
exhaustive enumeration of subsets and maps, exact laws on dyadic fuzzy
values, hand values of the quantum operations and counts of their
eigensolves.

The maps of each instance live in ``MAPS`` here rather than in the
records: only the substitution laws below draw maps, and neither the
selftest nor the scenario table does.  Likewise its states live in
``STATES``: only the duality square and the embedding checks draw them.
"""

import numpy as np
import pytest

from effectlogic import classical, config, quantum, stochastic
from effectlogic.instances import INSTANCES, check_laws
from effectlogic.scenario import Element


def random_function(rng, x, y):
    return classical.FinMap(x, y, tuple(rng.integers(0, y.size, size=x.size).tolist()))


def random_kernel(rng, x, y):
    m = rng.uniform(size=(x.size, y.size)) + 1e-3
    return stochastic.StochasticMap(x, y, m / np.sum(m, axis=1, keepdims=True))


# per instance: a random map X -> Y, the identity on X, "g after f", f + f,
# and whether a map's target must be at least as large as its source
MAPS = {
    "classical": (random_function, classical.identity_map, classical.compose,
                  classical.coproduct_map, False),
    "stochastic": (random_kernel, stochastic.identity_kernel, stochastic.compose,
                   stochastic.coproduct_map, False),
    "quantum": (lambda rng, x, y: quantum.random_isometry(rng, y, x),
                lambda x: quantum.Isometry(np.eye(x)),
                lambda g, f: quantum.Isometry(g.matrix @ f.matrix),
                lambda f: quantum.Isometry(np.kron(np.eye(2), f.matrix)), True),
}


def classical_measure(p, x):
    side = classical.measure(p, x.index)
    return Element(classical.doubled_carrier(p.carrier), classical.tagged_to_index(p.carrier, side))


# per instance: a random state on a space, measure(p, state) on the doubled
# space, and xi(state), the probability the state gives each predicate; a
# classical state is a point, whose probabilities are 0 or 1
STATES = {
    "classical": (lambda rng, x: Element(x, int(rng.integers(x.size))), classical_measure,
                  lambda x: lambda q: float(q.holds(x.index))),
    "stochastic": (lambda rng, x: stochastic.Distribution(x, rng.dirichlet(np.ones(x.size))),
                   stochastic.measure_distribution, stochastic.xi_state),
    "quantum": (quantum.random_density, quantum.measure_density, quantum.xi_state),
}


def summable(record, rng, space, k: int) -> list:
    """k random predicates whose sum is defined: scaled by weights that sum
    below 1 where there are scalars, otherwise cut disjoint by the tests."""
    m = record.module
    drawn = [record.random_predicate(rng, space) for _ in range(k)]
    if hasattr(m, "probability_multiply"):
        weights = rng.dirichlet(np.ones(k + 1))
        return [m.probability_multiply(float(w), p) for w, p in zip(weights, drawn)]
    out, rest = [], m.truth(space)
    for p in drawn:
        out.append(m.test_andthen(rest, p))
        rest = m.test_andthen(rest, record.complement(p))
    return out


def check_partial_monoid(name: str, rng, cases: int, tol: float) -> None:
    """The sum is commutative and associative, with zero as its unit."""
    record = INSTANCES[name]
    m, close = record.module, record.close
    for _ in range(cases):
        space = record.space(int(rng.integers(1, 6)))
        p, q, r = summable(record, rng, space, 3)
        pq, qp, qr = m.orthosum(p, q), m.orthosum(q, p), m.orthosum(q, r)
        assert pq is not None and qp is not None and qr is not None
        assert close(pq, qp, tol)
        left, right = m.orthosum(pq, r), m.orthosum(p, qr)
        assert left is not None and right is not None
        assert close(left, right, tol)
        assert close(m.orthosum(m.falsity(space), p), p, tol)


def check_module_laws(name: str, rng, cases: int, tol: float) -> None:
    """(st)p = s(tp), (s + t)p = sp + tp, s(p + q) = sp + sq, 1p = p, 0p = 0."""
    record = INSTANCES[name]
    m, close = record.module, record.close
    times = m.probability_multiply
    for _ in range(cases):
        space = record.space(int(rng.integers(1, 6)))
        p, q = summable(record, rng, space, 2)
        s, t = float(rng.uniform()), float(rng.uniform())
        assert close(times(s * t, p), times(s, times(t, p)), tol)
        if s + t <= 1.0:
            total = m.orthosum(times(s, p), times(t, p))
            assert total is not None and close(total, times(s + t, p), tol)
        scaled_sum, sum_scaled = times(s, m.orthosum(p, q)), m.orthosum(times(s, p), times(s, q))
        assert sum_scaled is not None and close(scaled_sum, sum_scaled, tol)
        assert close(times(1.0, p), p, tol)
        assert close(times(0.0, p), m.falsity(space), tol)


def check_substitution(name: str, rng, cases: int, tol: float) -> None:
    """id* q = q, (g f)* = f* g*, (g + g)*(Omega) = Omega, and g* keeps truth,
    complements, sums and scalars.  The sizes of X, Y and Z are drawn
    independently, and sorted only where a map cannot shrink its space."""
    record = INSTANCES[name]
    m, close = record.module, record.close
    random_map, identity, compose, doubled, grows = MAPS[name]
    for _ in range(cases):
        sizes = rng.integers(1, 8, size=3)
        x, y, z = (record.space(int(k)) for k in (np.sort(sizes) if grows else sizes))
        f, g = random_map(rng, x, y), random_map(rng, y, z)
        q = record.random_predicate(rng, z)
        assert close(m.substitute(identity(z), q), q, tol)
        assert close(m.substitute(compose(g, f), q), m.substitute(f, m.substitute(g, q)), tol)
        assert close(m.substitute(g, m.truth(z)), m.truth(y), tol)
        assert close(m.substitute(doubled(g), m.omega_predicate(z)), m.omega_predicate(y), tol)
        complemented = record.complement(m.substitute(g, q))
        assert close(m.substitute(g, record.complement(q)), complemented, tol)
        a, b = summable(record, rng, z, 2)
        pulled = m.orthosum(m.substitute(g, a), m.substitute(g, b))
        assert pulled is not None and close(m.substitute(g, m.orthosum(a, b)), pulled, tol)
        if hasattr(m, "probability_multiply"):
            s = float(rng.uniform())
            scaled = m.substitute(g, m.probability_multiply(s, q))
            assert close(scaled, m.probability_multiply(s, m.substitute(g, q)), tol)


def check_truth_is_a_unit(name: str, rng, cases: int, tol: float) -> None:
    """andthen(1, q) = q and then(1, q) = q."""
    record = INSTANCES[name]
    m = record.module
    for _ in range(cases):
        space = record.space(int(rng.integers(1, 7)))
        q = record.random_predicate(rng, space)
        assert record.close(m.test_andthen(m.truth(space), q), q, tol)
        assert record.close(m.test_then(m.truth(space), q), q, tol)


def check_duality_square(name: str, rng, cases: int, tol: float) -> None:
    """xi(measure(p, s))(q) = xi(s)(char_p*(q)): measuring and then asking q
    is asking the question q pulled back along the classifier of p."""
    record = INSTANCES[name]
    random_state, measure, xi = STATES[name]
    for _ in range(cases):
        space = record.space(int(rng.integers(1, 6)))
        p, state = record.random_predicate(rng, space), random_state(rng, space)
        doubled = 2 * space if name == "quantum" else classical.doubled_carrier(space)
        q = record.random_predicate(rng, doubled)
        lhs = xi(measure(p, state))(q)
        rhs = xi(state)(record.module.substitute(record.classifier(p), q))
        assert abs(lhs - rhs) < tol  # exact for points: both sides are 0 or 1


with_scalars = [name for name, record in INSTANCES.items()
                if hasattr(record.module, "probability_multiply")]


@pytest.mark.parametrize("name", INSTANCES)
def test_laws_the_selftest_runs(name):
    """char_p*(Omega) = p, the orthocomplement laws, then = (andthen q')' and
    the agreement of the two Born routes, at EPS rather than POST_EPS; one
    quick report per instance, as acceptance criteria 3 and 4 run the same
    laws on 200 and 500 cases."""
    check_laws(INSTANCES[name], np.random.default_rng(31), 50, config.EPS)


@pytest.mark.parametrize("name", INSTANCES)
def test_sum_is_a_partial_commutative_monoid(name):
    check_partial_monoid(name, np.random.default_rng(41), 100, config.EPS)


@pytest.mark.parametrize("name", with_scalars)
def test_module_laws(name):
    check_module_laws(name, np.random.default_rng(43), 50, config.EPS)


@pytest.mark.parametrize("name", INSTANCES)
def test_substitution_is_a_functor_into_effect_modules(name):
    check_substitution(name, np.random.default_rng(71), 100, config.EPS)


@pytest.mark.parametrize("name", INSTANCES)
def test_truth_is_a_unit_of_both_tests(name):
    check_truth_is_a_unit(name, np.random.default_rng(103), 50, 1e-12)


@pytest.mark.parametrize("name", INSTANCES)
def test_duality_square(name):
    check_duality_square(name, np.random.default_rng(61), 100, config.EPS)


def apply_all(module, f, p, q) -> dict:
    """Each predicate operation of an instance, once, on the given operands."""
    out = {
        "test_andthen": module.test_andthen(p, q),
        "test_then": module.test_then(p, q),
        "orthosum": module.orthosum(p, q),
        "substitute": module.substitute(f, q),
    }
    if hasattr(module, "probability_multiply"):
        out["probability_multiply"] = module.probability_multiply(0.5, p)
    return out


@pytest.mark.parametrize("name", INSTANCES)
def test_every_operation_returns_a_predicate_it_accepts(name):
    record, rng = INSTANCES[name], np.random.default_rng(5)
    space = record.space(3)
    f = MAPS[name][0](rng, space, space)
    p, q = summable(record, rng, space, 2)
    for op, result in apply_all(record.module, f, p, q).items():
        assert isinstance(result, record.predicate), op
        for again, value in apply_all(record.module, f, result, result).items():
            # a sum of a predicate with itself may be undefined
            assert isinstance(value, record.predicate) or (again == "orthosum" and value is None), \
                (op, again)


# each value constructor of the stochastic and quantum instances, given one
# entry that is not finite; a matrix is refused before any arithmetic on it,
# so an infinite entry raises no numpy warning on the way
C2 = classical.finset("a", "b")
NON_FINITE = {
    "Distribution": lambda x: stochastic.Distribution(C2, [x, 1.0]),
    "StochasticMap": lambda x: stochastic.StochasticMap(C2, C2, [[1.0, 0.0], [0.0, x]]),
    "FuzzyPredicate": lambda x: stochastic.FuzzyPredicate(C2, [0.5, x]),
    "xi_inverse": lambda x: stochastic.xi_inverse(C2, [x, 1.0]),
    "clamp_probability": stochastic.clamp_probability,
    "PureState": lambda x: quantum.PureState(np.array([x, 1.0])),
    "QPredicate": lambda x: quantum.QPredicate(np.array([[x, 0.0], [0.0, 0.5]])),
    "DensityMatrix": lambda x: quantum.DensityMatrix(np.array([[x, 0.0], [0.0, 0.5]])),
    "Isometry": lambda x: quantum.Isometry(np.array([[x], [0.0]])),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", NON_FINITE)
def test_every_value_constructor_refuses_a_non_finite_entry(name, bad):
    with pytest.raises(ValueError) as refused:
        NON_FINITE[name](bad)
    if name in ("QPredicate", "DensityMatrix", "Isometry"):
        assert str(refused.value) == "matrix entries must be finite"
    assert "\n" not in str(refused.value)
