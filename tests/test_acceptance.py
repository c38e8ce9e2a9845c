"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one explicit
pass line per criterion; the test names double as the criterion list.
Random batches are seeded, so every run checks the same cases.
"""

import time

import numpy as np

from effectlogic import classical as cl
from effectlogic import cli, config, quantum
from effectlogic import stochastic as sto
from effectlogic.classical import (
    BoolPredicate,
    predicate_algebra,
    range_finset,
    rel_joint_monicity_counterexample,
    stone_states,
)
from effectlogic.effect_algebra import (
    boolean_powerset_ea,
    check_axioms,
    coproduct,
    downset,
    enumerate_homomorphisms,
    mo_free,
    product,
)
from effectlogic.instances import INSTANCES, check_laws
from effectlogic.quantum import (
    DensityMatrix,
    QPredicate,
    measure_density,
    measure_pure,
    projective_compose,
    random_density,
    random_isometry,
    random_predicate,
    random_pure_state,
)
from test_shared_laws import check_duality_square, check_partial_monoid, check_substitution


def announce(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_01_polarisation_reproduction():
    t0 = time.perf_counter()
    text, ok = cli.demo("polarisation")
    elapsed = time.perf_counter() - t0
    assert ok
    lines = text.splitlines()
    assert len(lines) == 4
    expected = [0.0, 0.5, 0.25, 0.75]
    printed = [line.split(" = ")[1] for line in lines]
    assert printed == ["0.000000000", "0.500000000", "0.250000000", "0.750000000"]
    for got, want in zip(printed, expected):
        assert abs(float(got) - want) < 1e-9
    assert elapsed < 1.0, f"demo took {elapsed:.3f}s"
    announce(1, "polarisation reproduction")


def test_criterion_02_born_two_route_equality():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(1, 9))
        x = random_pure_state(rng, n)
        p = random_predicate(rng, n)
        direct = quantum.born_probability(x, p)
        spectral = quantum.born_spectral(x, p)
        assert abs(direct - spectral) < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"500 cases took {elapsed:.3f}s"
    announce(2, "Born two-route equality")


def test_criterion_03_characteristic_map_law():
    # classical: exhaustive over all carriers up to four points and all subsets
    for n in range(5):
        carrier = range_finset(n)
        omega = cl.omega_predicate(carrier)
        for bits in range(1 << n):
            p = BoolPredicate(carrier, frozenset(i for i in range(n) if bits >> i & 1))
            assert cl.substitute(cl.predicate_as_map(p), omega) == p

    rng = np.random.default_rng(303)
    for record in INSTANCES.values():
        check_laws(record, rng, 200, 1e-8)
    announce(3, "characteristic-map law in all three instances")


def test_criterion_04_effect_algebra_axiom_suite():
    frees = [mo_free(n) for n in range(5)]
    powers = [boolean_powerset_ea(n) for n in range(5)]
    for algebra in frees + powers:
        assert check_axioms(algebra).passed
    for a, b in [(frees[1], powers[2]), (frees[2], frees[3]), (powers[1], powers[2])]:
        assert check_axioms(product(a, b)).passed
        assert check_axioms(coproduct(a, b)).passed
    for algebra, tops in [(powers[3], (0, 0b101, 0b111)), (frees[4], (0, 2, 1))]:
        for top in tops:
            assert check_axioms(downset(algebra, top)).passed

    # classical predicate algebras, exhaustively exported
    for n in range(5):
        assert check_axioms(predicate_algebra(range_finset(n))).passed

    # randomized triples whose sums are defined, and the orthocomplement
    rng = np.random.default_rng(404)
    for name in INSTANCES:
        check_partial_monoid(name, rng, 500, config.EPS)
        check_laws(INSTANCES[name], rng, 500, config.EPS)
    announce(4, "effect-algebra axiom suite")


def test_criterion_05_stone_duality():
    two = mo_free(0)
    t0 = time.perf_counter()
    for n in (1, 2, 3, 4):
        homs = enumerate_homomorphisms(boolean_powerset_ea(n), two)
        assert len(homs) == n
        for hom in homs:
            points = [i for i in range(n) if hom.mapping[1 << i] == two.one]
            assert len(points) == 1
            x = points[0]
            for bits in range(1 << n):
                assert hom.mapping[bits] == (two.one if bits >> x & 1 else two.zero)
        assert stone_states(n) == list(range(n))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    announce(5, "Stone duality at desk scale")


def test_criterion_06_measurement_consistency():
    rng = np.random.default_rng(606)
    # (a) trace preservation of density measurement
    for _ in range(500):
        n = int(rng.integers(1, 5))
        out = measure_density(random_predicate(rng, n), random_density(rng, n))
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-9

    # (b) pure/mixed compatibility
    for _ in range(200):
        n = int(rng.integers(1, 5))
        p = random_predicate(rng, n)
        x = random_pure_state(rng, n)
        outer = measure_pure(p, x).vector.reshape(-1, 1)
        via_pure = outer @ outer.conj().T
        via_mixed = measure_density(p, DensityMatrix.from_pure(x)).matrix
        assert np.max(np.abs(via_pure - via_mixed)) < 1e-8

    # (c) duality squares, in all three instances
    for name in INSTANCES:
        check_duality_square(name, rng, 200, 1e-8)
    announce(6, "measurement consistency")


def test_criterion_07_substitution_functoriality_and_preservation():
    rng = np.random.default_rng(707)
    for name in INSTANCES:
        check_substitution(name, rng, 100, 1e-8)

    # the stored negative fact: averaging breaks multiplicativity
    witness = sto.multiplication_not_preserved_witness()
    assert witness.gap > 1e-6
    announce(7, "substitution functoriality and structure preservation")


def test_criterion_08_relations_counterexample():
    w = rel_joint_monicity_counterexample()
    assert w.p == {1: 1, 2: 2, 3: 2}
    assert w.q == {1: 2, 2: 1, 3: 2}
    assert w.u == frozenset({1, 2}) and w.v == frozenset({1, 2, 3})
    assert w.u != w.v
    assert w.image(w.p, w.u) == w.image(w.p, w.v) == frozenset({1, 2})
    assert w.image(w.q, w.u) == w.image(w.q, w.v) == frozenset({1, 2})
    announce(8, "relations counterexample")


def test_criterion_09_projective_composition():
    rng = np.random.default_rng(909)
    for _ in range(20):
        basis = random_isometry(rng, 3, 3).matrix
        parts = [QPredicate(np.outer(basis[:, i], basis[:, i].conj())) for i in range(3)]
        out = projective_compose(parts)
        for derived, given in zip(out.components, parts):
            assert np.max(np.abs(derived.matrix - given.matrix)) < 1e-9
    announce(9, "projective composition")


def test_criterion_10_reichenbach_identity():
    rng = np.random.default_rng(1010)
    phi = rng.uniform(size=1000)
    psi = rng.uniform(size=1000)
    carrier = range_finset(1000)
    p = sto.FuzzyPredicate(carrier, phi)
    q = sto.FuzzyPredicate(carrier, psi)
    direct = sto.test_then(p, q).values
    via_complement = 1.0 - sto.test_andthen(p, q.complement()).values
    assert np.max(np.abs(direct - via_complement)) < 1e-12
    announce(10, "guarded-test identity")
