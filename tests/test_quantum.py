"""The Hilbert instance: effect pairs, conjugation, classifiers, measurement.

Hand-computed expectations: the photon-filter probabilities (0, 1/2, 1/4,
3/4), the quarter matrix for the diagonal-then-vertical test, and the
measured-state amplitudes (1/2, 1/2, 1/2, -1/2).  Random properties use
two-route comparisons (direct versus spectral pairing, matrix route
versus triple-sum route) as internal oracles.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from effectlogic import config, quantum, scenario
from effectlogic.linalg import dagger, eigen_hermitian, hermitian_part, sqrt_psd
from effectlogic.quantum import (
    KET0,
    KET1,
    KET_NE,
    KET_NW,
    DensityMatrix,
    Isometry,
    ProjectiveMeasurement,
    PureState,
    QPredicate,
    bifmrel_substitute,
    born_probability,
    born_spectral,
    char_sqrt,
    comprehension,
    falsity,
    measure_density,
    measure_pure,
    omega_predicate,
    orthosum,
    predicate_from_isometry,
    probability_multiply,
    projective_compose,
    projector,
    random_density,
    random_isometry,
    random_predicate,
    random_pure_state,
    substitute,
    truth,
    xi_state,
)
from effectlogic.quantum import test_andthen as andthen_op
from effectlogic.quantum import test_then as then_op


def rng():
    return np.random.default_rng(1105)


def proj(vec) -> QPredicate:
    return projector(PureState(vec))


class TestTypes:
    def test_effect_spectrum_bounds(self):
        with pytest.raises(ValueError):
            QPredicate(np.diag([1.5, 0.0]))
        with pytest.raises(ValueError):
            QPredicate(np.diag([-0.2, 0.5]))

    def test_effect_hermiticity(self):
        with pytest.raises(ValueError):
            QPredicate(np.array([[0.5, 0.5], [0.0, 0.5]]))

    @pytest.mark.parametrize("cls", [QPredicate, DensityMatrix])
    @pytest.mark.parametrize("matrix", [
        np.full((2, 3), 0.25),  # not square
        np.array([[0.5, 0.5], [0.0, 0.5]]),  # not Hermitian
    ])
    def test_shape_and_hermiticity_checked_once_inside_the_spectrum(self, cls, matrix):
        with pytest.raises(ValueError):
            cls(matrix)

    @pytest.mark.parametrize("cls,message", [
        (QPredicate, "leaves"), (DensityMatrix, "positive semidefinite")])
    def test_nan_spectrum_is_refused(self, cls, message):
        # finite entries and unit trace, but the Hermitian part overflows
        # to inf and the eigenvalues are NaN, which no bound admits
        m = np.array([[0.5, 1e308], [1e308, 0.5]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=message):
                cls(m)

    def test_pure_state_norm(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_pure_state_norm_of_large_entries_does_not_overflow(self):
        # squaring 1e200 overflows; the message names the norm itself, and
        # no overflow warning is raised on the way
        with pytest.raises(ValueError, match=r"^state norm 1\.414213562373095e\+200 is not 1$"):
            PureState(np.array([1e200, 1e200]))

    def test_density_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_isometry_columns(self):
        with pytest.raises(ValueError):
            Isometry(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            Isometry(np.zeros((1, 2)))


class TestToleranceContract:
    def test_effect_within_eps_is_accepted(self):
        eff = QPredicate(np.array([[0.5, 0.1 + 5e-10], [0.1, 0.5]]))
        assert eff.dim == 2

    def test_set_epsilon_reaches_hermitian_check(self, restore_config):
        config.set_epsilon(1e-6)
        eff = QPredicate(np.array([[0.5, 0.1 + 5e-7], [0.1, 0.5]]))
        assert eff.dim == 2

    def test_set_epsilon_reaches_spectral_checks(self, restore_config):
        dust = np.diag([-5e-7, 0.5])
        with pytest.raises(ValueError, match="leaves"):
            QPredicate(dust)
        config.set_epsilon(1e-6)
        assert QPredicate(dust).dim == 2
        assert DensityMatrix(np.diag([-5e-7, 1.0 + 5e-7])).dim == 2

    def test_isometry_admission_bound(self):
        # V*V = (1 + 8e-9) I deviates by 1.1e-8 > POST_EPS in the Frobenius norm
        with pytest.raises(ValueError, match="columns are not orthonormal"):
            Isometry((1 + 4e-9) * np.eye(2))
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            Isometry(np.full((2, 1), np.nan))

    def test_isometry_past_eps_is_made_exact(self):
        # V*V = (1 + 4e-9) I: admitted, and replaced by its polar factor I,
        # so substituting truth stays an effect
        f = Isometry((1 + 2e-9) * np.eye(2))
        assert np.max(np.abs(f.matrix - np.eye(2))) < 1e-15
        assert np.max(np.abs(substitute(f, truth(2)).matrix - np.eye(2))) < 1e-15

    def test_isometry_within_eps_is_kept_as_given(self):
        v = np.array([[1.0], [0.0]]) * (1 + 2e-10)
        assert np.array_equal(Isometry(v).matrix, v)

    def test_literal_isometry_to_eight_digits(self):
        c = 0.70710678  # V*V - I has Frobenius norm 4.7e-9
        f = Isometry(np.array([[c, c], [c, -c]]))
        gram = dagger(f.matrix) @ f.matrix
        assert np.max(np.abs(gram - np.eye(2))) < 1e-15
        assert np.max(np.abs(substitute(f, truth(2)).matrix - np.eye(2))) < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("bound", ["EPS", "POST_EPS"])
    def test_every_admitted_isometry_substitutes_truth(self, n, bound):
        # V*V - I has off-diagonal entries of Frobenius norm 0.9 times the
        # bound: admitted, and its spectral deviation is no larger
        delta = np.zeros((n, n))
        delta[0, 1] = delta[1, 0] = 0.9 * getattr(config, bound) / np.sqrt(2)
        f = Isometry(sqrt_psd(eigen_hermitian(np.eye(n) + delta)))
        pulled = substitute(f, truth(n))
        assert np.max(np.abs(pulled.matrix - np.eye(n))) < config.EPS

    def test_set_epsilon_reaches_projective_compose(self, restore_config):
        first = np.diag([1.0 - 5e-6, 0.0])
        family = [first, np.eye(2) - first]
        with pytest.raises(ValueError):
            projective_compose(family)
        config.set_epsilon(1e-6)
        out = projective_compose(family)
        assert np.allclose(out.components[0].matrix, first)


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts of LAPACK Hermitian solves: full (eigh) and eigenvalues-only,
    which the package must never call."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestSolverCounts:
    """A checked predicate is solved once, by one eigh when it is admitted,
    and every later operation on it reads that decomposition; eigvalsh is
    never called."""

    M = np.array([[0.5, 0.1 - 0.2j, 0.0], [0.1 + 0.2j, 0.3, 0.1], [0.0, 0.1, 0.6]])

    def test_from_effect_reads_one_spectrum(self, solver_calls):
        p = QPredicate.from_effect(self.M)
        assert solver_calls == {"eigh": 1, "eigvalsh": 0}
        assert np.array_equal(p.perp().matrix, np.eye(3) - p.matrix)
        assert not p.perp().matrix.flags.writeable
        assert solver_calls == {"eigh": 1, "eigvalsh": 0}

    @pytest.mark.parametrize("constant", [truth, falsity, omega_predicate])
    def test_constants_have_known_spectra(self, solver_calls, constant):
        constant(3)
        assert solver_calls == {"eigh": 0, "eigvalsh": 0}

    def test_multiply_derives_bounds(self, solver_calls):
        p = QPredicate.from_effect(self.M)
        before = dict(solver_calls)
        scaled = probability_multiply(0.4, p)
        assert solver_calls == before
        assert np.array_equal(scaled.matrix, 0.4 * p.matrix)

    def test_orthosum_reads_one_spectrum(self, solver_calls):
        p = QPredicate.from_effect(self.M / 2)
        q = QPredicate.from_effect(np.eye(3) / 4)
        big = QPredicate.from_effect(self.M)
        for left, right, defined in ((p, q, True), (big, big, False)):
            before = solver_calls["eigh"]
            out = orthosum(left, right)
            assert (out is not None) == defined
            assert solver_calls["eigh"] == before + 1
        assert solver_calls["eigvalsh"] == 0

    def test_orthosum_hands_its_decomposition_to_the_sum(self, solver_calls):
        q = QPredicate.from_effect(np.eye(3) / 4)
        out = orthosum(QPredicate.from_effect(self.M / 2), q)
        before = dict(solver_calls)
        andthen_op(out, q)
        then_op(out, q)
        char_sqrt(out)
        assert solver_calls == before
        values, vectors = out.spectrum
        assert np.max(np.abs(vectors @ np.diag(values) @ dagger(vectors) - out.matrix)) < 1e-12

    def test_orthosum_keeps_lower_bound(self):
        dust = QPredicate(np.diag([-0.8e-9, 0.5]))
        with pytest.raises(ValueError, match="leaves"):
            orthosum(QPredicate.from_effect(dust), QPredicate.from_effect(dust))

    def test_char_sqrt_uses_one_decomposition(self, solver_calls):
        p = QPredicate.from_effect(self.M)
        before = dict(solver_calls)
        stacked = char_sqrt(p).matrix
        assert solver_calls == before
        assert np.max(np.abs(stacked[:3] @ stacked[:3] - p.matrix)) < 1e-12
        assert np.max(np.abs(stacked[3:] @ stacked[3:] - p.perp().matrix)) < 1e-12

    def test_substitute_conjugates_once(self, solver_calls):
        p = QPredicate.from_effect(self.M)
        f = random_isometry(rng(), 3, 2)
        before = dict(solver_calls)
        pulled = substitute(f, p)
        assert solver_calls == {"eigh": before["eigh"] + 1, "eigvalsh": 0}
        v = f.matrix
        assert np.array_equal(pulled.matrix, dagger(v) @ p.matrix @ v)

    @pytest.mark.parametrize("test", [andthen_op, then_op])
    def test_tests_of_an_admitted_predicate_make_no_solve(self, solver_calls, test):
        # sqrt(A) reads the admission's decomposition; with A <= I the
        # result needs no check
        p = QPredicate.from_effect(self.M)
        q = QPredicate.from_effect(np.eye(3) / 4)
        before = dict(solver_calls)
        test(p, q)
        assert solver_calls == before

    @pytest.mark.parametrize("test", [andthen_op, then_op])
    def test_tests_check_results_of_p_above_one(self, solver_calls, test):
        # A admitted above I by less than EPS: the result is checked
        p = QPredicate.from_effect(np.diag([1.0 + 0.5 * config.EPS, 0.5, 0.0]))
        q = QPredicate.from_effect(np.eye(3) / 4)
        before = dict(solver_calls)
        test(p, q)
        assert solver_calls == {"eigh": before["eigh"] + 1, "eigvalsh": 0}

    def test_measure_density_checks_no_result(self, solver_calls):
        # the classifier reads the admission's decomposition, and the
        # 2n x 2n result is not checked
        p = QPredicate.from_effect(self.M)
        rho = random_density(rng(), 3)
        before = dict(solver_calls)
        out = measure_density(p, rho)
        assert solver_calls == before
        assert out.dim == 6 and not out.matrix.flags.writeable

    def test_one_decomposition_per_predicate(self, solver_calls):
        p = QPredicate.from_effect(self.M)
        q = QPredicate.from_effect(np.eye(3) / 4)
        rho = random_density(rng(), 3)
        x = random_pure_state(rng(), 3)
        before = dict(solver_calls)
        andthen_op(p, q)
        then_op(p, q)
        char_sqrt(p)
        measure_density(p, rho)
        measure_pure(p, x)
        born_spectral(x, p)
        comprehension(p)
        # one eigh each to admit p, q and rho, and none after
        assert solver_calls == before == {"eigh": 3, "eigvalsh": 0}

    def test_projective_parts_feed_predicate_operations(self, solver_calls):
        # components and projectors are checked predicates already, so the
        # probability rule and the tests read them without another solve
        basis = random_isometry(rng(), 3, 3).matrix
        parts = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(3)]
        components = projective_compose(parts).components
        p = projector(PureState(basis[:, 0]))
        x = random_pure_state(rng(), 3)
        before = dict(solver_calls)
        probabilities = [born_probability(x, q) for q in components]
        assert sum(probabilities) == pytest.approx(1.0)
        assert probabilities[0] == pytest.approx(born_probability(x, p))
        for q in components:
            andthen_op(q, p)
            andthen_op(p, q)
        assert solver_calls == before

    def test_perp_swaps_without_solving(self, solver_calls):
        p = QPredicate.from_effect(self.M)
        before = dict(solver_calls)
        flipped = p.perp()
        assert solver_calls == before
        assert np.array_equal(flipped.matrix, p.perp().matrix)
        assert np.max(np.abs(flipped.perp().matrix - p.matrix)) < 1e-15

    def test_scenario_checks_each_value_once(self, solver_calls, monkeypatch):
        # the predicate is admitted by one eigh, which its measurements
        # read, and the classifier gets no Gram check
        gram_checks = []
        check = Isometry.__post_init__
        monkeypatch.setattr(Isometry, "__post_init__",
                            lambda self: gram_checks.append(1) or check(self))
        sc = scenario.parse_scenario(
            "instance quantum\nlet M = matrix 2 2\n0.75 0.25\n0.25 0.25\n"
            "let p = predicate(M)\nquery measure(p, ket0)\nquery measure(p, density(M))\n")
        assert solver_calls == {"eigh": 1, "eigvalsh": 0}
        pure, mixed = sc.queries
        assert scenario.run(replace(sc, queries=[pure]))[1]
        assert solver_calls == {"eigh": 1, "eigvalsh": 0} and not gram_checks
        # density(M) is admitted by its own eigh; p is not solved again
        assert scenario.run(replace(sc, queries=[mixed]))[1]
        assert solver_calls == {"eigh": 2, "eigvalsh": 0} and not gram_checks

    @pytest.mark.parametrize("constructor", ["predicate", "effect"])
    def test_scenario_predicate_of_a_projector_reads_one_spectrum(self, solver_calls, constructor):
        # the projector is validated once; predicate() returns a predicate as it is
        sc = scenario.parse_scenario(
            f"instance quantum\nlet p = {constructor}(projector(ketNE))\n")
        assert solver_calls == {"eigh": 1, "eigvalsh": 0}
        assert np.allclose(sc.declarations["p"].matrix, np.full((2, 2), 0.5))

    def test_degenerate_comprehension_reads_the_admitted_decomposition(self, solver_calls):
        # eigenvalues 1, 1 and 0.4: the kernel of I - A is the plane
        # orthogonal to (1, 1, 1), and the solver may return any basis of it.
        # The report is the one printed when comprehension solved I - A
        # itself, the gauge being a function of the plane alone, and its
        # rounding-level parts exact zeros.
        sc = scenario.parse_scenario(
            "instance quantum\nlet M = matrix 3 3\n"
            "0.8 -0.2 -0.2\n-0.2 0.8 -0.2\n-0.2 -0.2 0.8\n"
            "let p = predicate(M)\nquery comprehension(p)\n")
        before = dict(solver_calls)
        assert before == {"eigh": 1, "eigvalsh": 0}
        assert scenario.run(sc) == (
            "0: comprehension = 3 2\n"
            "0.816496581+0i 0+0i\n"
            "-0.40824829+0i 0.707106781+0i\n"
            "-0.40824829+0i -0.707106781+0i\n", True)
        assert solver_calls == before


class TestImpliedBounds:
    """Results of substitute, the tests and measure_density, some built
    without a check of their own, pass that check when it is run on them,
    at the edges of what their inputs admit: effects with eigenvalues
    exactly 0 and 1, rank-deficient density matrices, isometries whose V*V
    deviates from I by just under EPS (kept as given) or past it (snapped
    to their polar factor), and inputs admitted just outside [0, 1]."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 4),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        excess=st.one_of(st.floats(0.5, 0.99), st.floats(1.5, 9.0)),
    )
    def test_results_pass_their_own_checks(self, n, data, seed, excess):
        gen = np.random.default_rng(seed)
        u = random_isometry(gen, n, n).matrix
        weight = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
        spectra = [data.draw(st.lists(weight, min_size=n, max_size=n)) for _ in range(2)]
        # p is diagonal in u, with its first eigenvalue 1; q in another basis
        spectra[0][0] = 1.0
        w = random_isometry(gen, n, n).matrix
        p, q = (QPredicate.from_effect(b @ np.diag(d) @ dagger(b))
                for b, d in zip((u, w), spectra))
        # f = u[:, :k] stretched along p's eigenvalue-1 vector, then rotated:
        # f* f - I has Frobenius norm excess * EPS; below 1 f is kept and
        # f* A f reaches 1 + excess * EPS, above it f is snapped
        k = data.draw(st.integers(1, n))
        stretch = np.ones(k)
        stretch[0] = np.sqrt(1.0 + excess * config.EPS)
        f = Isometry(u[:, :k] @ np.diag(stretch) @ random_isometry(gen, k, k).matrix)
        # a mixture of two pure states: rank at most 2, so it has zero
        # eigenvalues from n = 3 on (from n = 2 at mix 0 or 1)
        x, y = (random_pure_state(gen, n).vector.reshape(-1, 1) for _ in range(2))
        mix = data.draw(st.floats(0.0, 1.0))
        rho = DensityMatrix(mix * (x @ dagger(x)) + (1 - mix) * (y @ dagger(y)))
        for out in (substitute(f, p), andthen_op(p, q), then_op(p, q), andthen_op(q, p),
                    then_op(q, p)):
            QPredicate(out.matrix)
        chain = q
        for _ in range(5):
            chain = andthen_op(p, then_op(p, chain))
            QPredicate(chain.matrix)
        DensityMatrix(measure_density(p, rho).matrix)
        DensityMatrix(measure_density(q, rho).matrix)
        DensityMatrix(measure_density(omega_predicate(n), measure_density(p, rho)).matrix)

    @pytest.mark.parametrize("eps", [1e-9, 0.01])
    @pytest.mark.parametrize("step", ["andthen", "then", "substitute"])
    def test_chains_from_inputs_past_one_do_not_drift(self, restore_config, eps, step):
        # A = (1 + e) I, B = diag(1 + e, -e) and f* f = diag(1 + e, 1), each
        # admitted within EPS of [0, 1]; one step already reaches 1 + 2e or
        # -2e.  Each link of a chain passes the predicate's own check or is
        # refused, as it is when every result is checked.
        config.set_epsilon(eps)
        e = 0.99 * eps
        p = QPredicate.from_effect(np.diag([1.0 + e, 1.0 + e]))
        f = Isometry(np.diag([np.sqrt(1.0 + e), 1.0]))
        link = {"andthen": lambda r: andthen_op(p, r), "then": lambda r: then_op(p, r),
                "substitute": lambda r: substitute(f, r)}[step]
        out = QPredicate.from_effect(np.diag([1.0 + e, -e]))
        for _ in range(10):
            try:
                out = link(out)
            except ValueError:
                break
            QPredicate(out.matrix)


class TestOrthosum:
    def test_scalar_halves(self):
        half = QPredicate(np.eye(2) / 2)
        assert orthosum(half, half) is not None
        threequarter = QPredicate(3 * np.eye(2) / 4)
        assert orthosum(threequarter, threequarter) is None


class TestBornProbability:
    def test_amplitude_squared(self):
        r = rng()
        p0 = proj(KET0)
        for _ in range(50):
            x = random_pure_state(r, 2)
            assert born_probability(x, p0) == pytest.approx(abs(x.vector[0]) ** 2)

    @settings(max_examples=100, deadline=None)
    @given(
        re0=st.floats(-1, 1), im0=st.floats(-1, 1),
        re1=st.floats(-1, 1), im1=st.floats(-1, 1),
    )
    def test_amplitude_squared_hypothesis(self, re0, im0, re1, im1):
        v = np.array([complex(re0, im0), complex(re1, im1)])
        norm = np.linalg.norm(v)
        assume(norm > 1e-3)
        x = PureState(v / norm)
        p0 = proj(KET0)
        assert born_probability(x, p0) == pytest.approx(abs(x.vector[0]) ** 2, abs=1e-12)

    def test_truth_is_certain(self):
        r = rng()
        for _ in range(20):
            n = int(r.integers(1, 6))
            x = random_pure_state(r, n)
            assert born_probability(x, truth(n)) == pytest.approx(1.0)

    @pytest.mark.parametrize("small", [[0.0, 5e-9], [5e-9, 0.0], [0.0, 3e-9, 6e-9]])
    def test_two_routes_agree_inside_a_gauge_cluster(self, small):
        # the eigenvalues share one gauge cluster; the spectral route must
        # still weight each by the overlap with its own eigenvector
        p = QPredicate(np.diag(small))
        for k in range(len(small)):
            x = PureState(np.eye(len(small))[k])
            assert abs(born_spectral(x, p) - born_probability(x, p)) < 1e-15


class TestClassifier:
    def test_projection_pair_stacks_itself(self):
        p = proj(KET_NE)
        stacked = char_sqrt(p).matrix
        assert np.max(np.abs(stacked[:2] - p.matrix)) < 1e-9
        assert np.max(np.abs(stacked[2:] - p.perp().matrix)) < 1e-9

    def test_scalar_half_pair(self):
        p = QPredicate(np.eye(2) / 2)
        stacked = char_sqrt(p).matrix
        assert np.allclose(stacked[:2], np.eye(2) / np.sqrt(2))
        assert np.allclose(stacked[2:], np.eye(2) / np.sqrt(2))

    @pytest.mark.parametrize("eps", [1e-9, 1e-15])
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_classifier_is_an_isometry_that_recovers_p(self, restore_config, eps, n, data, seed):
        # eigenvalues at, within eps of, and eps outside 0 and 1; p is
        # admitted at the default EPS and its classifier built under eps
        config.set_epsilon(1e-9)
        near = st.floats(0.0, 0.99).map(lambda t: t * eps)
        value = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]),
                          near, near.map(lambda d: 1.0 - d),
                          near.map(lambda d: -d), near.map(lambda d: 1.0 + d))
        u = random_isometry(np.random.default_rng(seed), n, n).matrix
        spectrum = data.draw(st.lists(value, min_size=n, max_size=n))
        p = QPredicate(hermitian_part(u @ np.diag(spectrum) @ dagger(u)))
        config.set_epsilon(eps)
        f = char_sqrt(p)
        assert np.max(np.abs(dagger(f.matrix) @ f.matrix - np.eye(n))) < 1e-12
        # substitute checks its result at EPS, and at 1e-15 the rounding
        # of f* A f alone (n ulp) can exceed it, so it runs at the default
        config.set_epsilon(1e-9)
        recovered = substitute(f, omega_predicate(n)).matrix
        assert np.max(np.abs(recovered - p.matrix)) < eps + 1e-12


class TestOmega:
    def test_blocks(self):
        omega = omega_predicate(1)
        assert np.allclose(omega.matrix, np.diag([1.0, 0.0]))
        assert np.allclose(omega.perp().matrix, np.diag([0.0, 1.0]))

    def test_components_are_projections(self):
        for n in (1, 2, 3):
            omega = omega_predicate(n)
            for eff in (omega.matrix, omega.perp().matrix):
                assert np.allclose(eff @ eff, eff)
                assert np.allclose(eff, dagger(eff))


class TestDynamicTests:
    def test_filter_composition_quarter(self):
        diagonal = proj(KET_NE)
        vertical = proj(KET1)
        seq = andthen_op(diagonal, vertical)
        assert np.allclose(seq.matrix, np.full((2, 2), 0.25))

    def test_noncommutative(self):
        a = proj(KET0)
        b = proj(KET_NE)
        ab = andthen_op(a, b).matrix
        ba = andthen_op(b, a).matrix
        assert np.max(np.abs(ab - ba)) > 0.1


class TestMeasurement:
    def test_truth_stacks_state_on_top(self):
        r = rng()
        x = random_pure_state(r, 3)
        out = measure_pure(truth(3), x)
        assert np.allclose(out.vector[:3], x.vector)
        assert np.allclose(out.vector[3:], 0.0)

    def test_hand_amplitudes(self):
        p = proj(KET_NE)
        out = measure_pure(p, PureState(KET0))
        assert np.allclose(out.vector, [0.5, 0.5, 0.5, -0.5])

    def test_norm_preserved(self):
        r = rng()
        for _ in range(50):
            n = int(r.integers(1, 5))
            out = measure_pure(random_predicate(r, n), random_pure_state(r, n))
            assert abs(np.linalg.norm(out.vector) - 1.0) < config.EPS

    def test_truth_on_maximally_mixed(self):
        n = 3
        rho = DensityMatrix(np.eye(n) / n)
        out = measure_density(truth(n), rho)
        expected = np.zeros((2 * n, 2 * n))
        expected[:n, :n] = np.eye(n) / n
        assert np.allclose(out.matrix, expected)

    @pytest.mark.parametrize("near", [1e-9, 0.5e-9, 1.0 - 1e-9, 1.0 - 0.5e-9])
    def test_no_mass_lost_near_sharp_eigenvalues(self, near):
        # one square root drops an eigenvalue within EPS of 0 or 1;
        # the other must then take the whole mass of that eigenvector
        p = QPredicate(np.diag([near, 0.3]))
        out = measure_density(p, DensityMatrix(np.diag([1.0, 0.0])))
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-15
        stacked = char_sqrt(p).matrix
        assert np.max(np.abs(dagger(stacked) @ stacked - np.eye(2))) < 1e-15

    def test_near_degenerate_predicate_measures_exactly(self):
        # the eigenvalues 0 and 5e-9 share one gauge cluster
        p = QPredicate(np.diag([0.0, 5e-9]))
        out = measure_pure(p, PureState(KET0))
        assert np.max(np.abs(out.vector - [0.0, 0.0, 1.0, 0.0])) < 1e-12

    def test_block_traces_are_branch_probabilities(self):
        r = rng()
        for _ in range(50):
            n = int(r.integers(1, 5))
            p = random_predicate(r, n)
            rho = random_density(r, n)
            out = measure_density(p, rho).matrix
            pairing = xi_state(rho)
            assert np.trace(out[:n, :n]).real == pytest.approx(
                pairing(p), abs=config.POST_EPS
            )
            assert np.trace(out[n:, n:]).real == pytest.approx(
                pairing(p.perp()), abs=config.POST_EPS
            )


class TestStateFunctional:
    def test_point_values(self):
        rho = DensityMatrix.from_pure(PureState(KET0))
        up = proj(KET0)
        assert xi_state(rho)(up) == pytest.approx(1.0)
        assert xi_state(DensityMatrix(np.eye(2) / 2))(up) == pytest.approx(0.5)

    def test_normalised_on_identity(self):
        r = rng()
        for _ in range(20):
            n = int(r.integers(1, 6))
            rho = random_density(r, n)
            assert xi_state(rho)(truth(n)) == pytest.approx(1.0)


class TestProjectiveComposition:
    def test_binary_case_reduces(self):
        p = proj(KET0)
        out = projective_compose([p, QPredicate(np.eye(2) - p.matrix)])
        assert isinstance(out, ProjectiveMeasurement)
        assert np.allclose(out.components[0].matrix, p.matrix)

    def test_random_orthonormal_triple(self):
        r = rng()
        for _ in range(25):
            basis = random_isometry(r, 3, 3).matrix
            parts = [
                QPredicate(np.outer(basis[:, i], basis[:, i].conj())) for i in range(3)
            ]
            out = projective_compose(parts)
            for derived, given in zip(out.components, parts):
                assert np.max(np.abs(derived.matrix - given.matrix)) < 1e-9

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            projective_compose([proj(KET0), proj(KET_NE)])

    def test_rejects_incomplete(self):
        half = QPredicate(np.diag([1.0, 0.0, 0.0]))
        other = QPredicate(np.diag([0.0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            projective_compose([half, other])

    def test_rejects_non_projection(self):
        with pytest.raises(ValueError):
            projective_compose([QPredicate(np.eye(2) / 2), QPredicate(np.eye(2) / 2)])


class TestIsometryPredicates:
    def test_column_gives_point_projection(self):
        k = Isometry(np.array([[1.0], [0.0]]))
        p = predicate_from_isometry(k)
        assert np.allclose(p.matrix, np.diag([1.0, 0.0]))

    def test_identity_gives_truth(self):
        p = predicate_from_isometry(Isometry(np.eye(3)))
        assert np.allclose(p.matrix, np.eye(3))

    def test_components_idempotent(self):
        r = rng()
        for _ in range(30):
            rows = int(r.integers(1, 6))
            cols = int(r.integers(1, rows + 1))
            p = predicate_from_isometry(random_isometry(r, rows, cols))
            for eff in (p.matrix, p.perp().matrix):
                assert np.max(np.abs(eff @ eff - eff)) < config.EPS


class TestComprehension:
    def test_truth_includes_everything(self):
        inc = comprehension(truth(3))
        assert inc.matrix.shape == (3, 3)
        assert np.allclose(inc.matrix @ dagger(inc.matrix), np.eye(3))

    def test_partial_predicate(self):
        q = QPredicate(np.diag([1.0, 0.5]))
        inc = comprehension(q)
        assert inc.matrix.shape == (2, 1)
        assert np.allclose(np.abs(inc.matrix[:, 0]), [1.0, 0.0])

    def test_falsity_has_empty_kernel(self):
        inc = comprehension(falsity(2))
        assert inc.matrix.shape == (2, 0)

    def test_first_component_fixes_subspace(self):
        r = rng()
        for _ in range(30):
            rows = int(r.integers(1, 6))
            cols = int(r.integers(0, rows + 1))
            sharp = predicate_from_isometry(random_isometry(r, rows, max(cols, 1)))
            inc = comprehension(sharp)
            assert np.max(np.abs(sharp.matrix @ inc.matrix - inc.matrix)) < 1e-8
            pulled = substitute(inc, sharp) if inc.matrix.shape[1] else None
            if pulled is not None:
                assert np.max(
                    np.abs(pulled.matrix - np.eye(inc.matrix.shape[1]))
                ) < 1e-8

    def test_basis_depends_on_subspace_only(self):
        r = np.random.default_rng(7)
        for _ in range(20):
            k = random_isometry(r, 4, 2)
            w = random_isometry(r, 2, 2)
            a = comprehension(predicate_from_isometry(k)).matrix
            b = comprehension(predicate_from_isometry(Isometry(k.matrix @ w.matrix))).matrix
            assert np.max(np.abs(a - b)) < 1e-12

    def test_kernel_chosen_below_the_tolerance_not_by_gauge_cluster(self):
        # I - A = diag(0.5e-8, 1.2e-8): only the first direction is certain,
        # though the two eigenvalues lie within one gauge cluster
        inc = comprehension(QPredicate.from_effect(np.diag([1 - 0.5e-8, 1 - 1.2e-8])))
        assert np.max(np.abs(inc.matrix - [[1.0], [0.0]])) < 1e-12

    def test_phase_tie_goes_to_first_entry(self):
        s = 1 / np.sqrt(2)
        for ket, expected in ((KET_NE, [s, s]), (KET_NW, [s, -s])):
            inc = comprehension(predicate_from_isometry(Isometry(ket.reshape(2, 1))))
            assert np.max(np.abs(inc.matrix[:, 0] - expected)) < 1e-12


class TestMatrixRelationSubstitution:
    def test_identity_and_permutation(self):
        n = np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex)
        assert np.allclose(bifmrel_substitute(np.eye(2), n), n)
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        swapped = bifmrel_substitute(perm, n)
        assert np.allclose(swapped, n[::-1, ::-1])

    def test_triple_sum_oracle(self):
        r = rng()
        for _ in range(30):
            big = int(r.integers(2, 5))
            small = int(r.integers(1, big + 1))
            rel = dagger(random_isometry(r, big, small).matrix)
            n = hermitian_part(r.normal(size=(big, big)) + 1j * r.normal(size=(big, big)))
            fast = bifmrel_substitute(rel, n)
            slow = np.einsum("xy,yz,wz->xw", rel, n, rel.conj())
            assert np.max(np.abs(fast - slow)) < 1e-10

    def test_agrees_with_isometry_substitution(self):
        r = rng()
        for _ in range(30):
            big = int(r.integers(1, 5))
            small = int(r.integers(1, big + 1))
            iso = random_isometry(r, big, small)
            q = random_predicate(r, big)
            via_relation = bifmrel_substitute(dagger(iso.matrix), q.matrix)
            via_predicate = substitute(iso, q).matrix
            assert np.max(np.abs(via_relation - via_predicate)) < 1e-10

    def test_diagonal_stays_in_unit_interval(self):
        r = rng()
        for _ in range(30):
            big = int(r.integers(1, 5))
            small = int(r.integers(1, big + 1))
            rel = dagger(random_isometry(r, big, small).matrix)
            n = quantum.random_predicate(r, big).matrix
            out = bifmrel_substitute(rel, n)
            diag = np.real(np.diag(out))
            assert np.all(diag > -config.POST_EPS)
            assert np.all(diag < 1 + config.POST_EPS)

    def test_rejects_non_coisometry(self):
        with pytest.raises(ValueError):
            bifmrel_substitute(np.array([[1.0, 1.0]]), np.eye(2))


class TestScalarAlgebra:
    def test_scalar_multiplication_commutes(self):
        # 1x1 predicates are plain probabilities; their product is exact
        r = rng()
        for _ in range(100):
            s, t = float(r.uniform()), float(r.uniform())
            left = probability_multiply(s, QPredicate([[t]]))
            right = probability_multiply(t, QPredicate([[s]]))
            assert left.matrix[0, 0] == right.matrix[0, 0]
