"""Eigensolver, square roots, order checks and the matrix text format.

The 2x2 expectations were solved by hand from the characteristic
polynomial.  The library's spectrum also comes from LAPACK (through
numpy's ``eigh``), so the comparison with ``eigvalsh`` checks the
descending order rather than the solver; the solver-independent checks
are reconstruction, orthonormality and the trace and Frobenius
identities.
"""

import numpy as np
import pytest

from effectlogic.linalg import (
    NotPsdError,
    dagger,
    eigen_hermitian,
    format_matrix,
    hermitian_part,
    is_psd,
    kernel_basis,
    loewner_leq,
    parse_complex,
    parse_matrix,
    sqrt_psd,
    trace,
)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return hermitian_part(m)


class TestEigenHermitian:
    def test_diagonal(self):
        eig = eigen_hermitian(np.diag([0.25, 1.0]))
        assert np.allclose(eig.eigenvalues, [1.0, 0.25])

    def test_hand_solved_2x2(self):
        # trace 3/4, determinant 1/8 -> eigenvalues 1/2 and 1/4,
        # eigenvectors proportional to (1, 1) and (1, -1)
        a = np.array([[3.0, 1.0], [1.0, 3.0]]) / 8.0
        eig = eigen_hermitian(a)
        assert np.allclose(eig.eigenvalues, [0.5, 0.25], atol=1e-12)
        s = 1 / np.sqrt(2)
        assert np.allclose(eig.vectors[:, 0], [s, s], atol=1e-12)
        assert np.allclose(eig.vectors[:, 1], [s, -s], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = random_hermitian(rng, n)
            eig = eigen_hermitian(a)
            rebuilt = eig.vectors @ np.diag(eig.eigenvalues) @ dagger(eig.vectors)
            assert np.max(np.abs(rebuilt - a)) < 1e-8
            assert np.max(np.abs(dagger(eig.vectors) @ eig.vectors - np.eye(n))) < 1e-8

    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a = random_hermitian(rng, n)
            mine = eigen_hermitian(a).eigenvalues
            ref = np.sort(np.linalg.eigvalsh(a))[::-1]
            assert np.max(np.abs(mine - ref)) < 1e-10

    def test_trace_and_frobenius_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = random_hermitian(rng, n)
            eig = eigen_hermitian(a)
            assert abs(np.sum(eig.eigenvalues) - np.trace(a).real) < 1e-9
            assert abs(np.linalg.norm(eig.eigenvalues) - np.linalg.norm(a)) < 1e-8

    def test_descending_order_and_phase_gauge(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = random_hermitian(rng, 6)
            eig = eigen_hermitian(a)
            assert np.all(np.diff(eig.eigenvalues) <= 1e-12)
            for j in range(6):
                col = eig.vectors[:, j]
                pivot = col[int(np.argmax(np.abs(col)))]
                assert pivot.imag == pytest.approx(0.0, abs=1e-12)
                assert pivot.real >= 0.0

    def test_phase_pivot_ties_go_to_first_entry(self):
        # Fourier-basis eigenvectors have entries of equal modulus, which
        # the solver returns only equal to rounding.
        for n in (3, 4, 5, 8):
            f = np.exp(2j * np.pi * np.outer(range(n), range(n)) / n) / np.sqrt(n)
            eig = eigen_hermitian(f @ np.diag(np.linspace(0.1, 0.9, n)) @ dagger(f))
            assert np.max(np.abs(eig.vectors[0] - 1 / np.sqrt(n))) < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigen_hermitian(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigen_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_degenerate_spectrum_keeps_orthonormality(self):
        eig = eigen_hermitian(np.eye(5, dtype=complex))
        assert np.allclose(eig.eigenvalues, 1.0)
        assert np.allclose(dagger(eig.vectors) @ eig.vectors, np.eye(5))


class TestSqrtPsd:
    def test_identity(self):
        assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3))

    def test_projection_is_fixed(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.max(np.abs(sqrt_psd(p) - p)) < 1e-12

    def test_diagonal(self):
        assert np.allclose(sqrt_psd(np.diag([0.25, 1.0])), np.diag([0.5, 1.0]))

    def test_squares_back(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = m @ dagger(m)
            r = sqrt_psd(a)
            assert np.max(np.abs(r @ r - a)) < 1e-8
            assert is_psd(r)

    def test_monotone_on_commuting_diagonals(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d1 = rng.uniform(0, 1, size=5)
            d2 = d1 + rng.uniform(0, 1, size=5)
            r1 = sqrt_psd(np.diag(d1))
            r2 = sqrt_psd(np.diag(d2))
            assert loewner_leq(r1, r2)

    def test_near_degenerate_eigenvalues_keep_their_vectors(self):
        # 0 and 5e-9 fall into one gauge cluster; each root must still sit
        # on its own eigenvector, not on a mixture of the two
        for small in ([0.0, 5e-9], [0.0, 3e-9, 6e-9], [2e-9, 0.0, 9e-9]):
            r = sqrt_psd(np.diag(small))
            assert np.max(np.abs(r - np.diag(np.sqrt(small)))) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(NotPsdError):
            sqrt_psd(np.diag([1.0, -0.5]))

    def test_clamps_tiny_negative(self):
        r = sqrt_psd(np.diag([1.0, -1e-10]))
        assert np.allclose(r, np.diag([1.0, 0.0]), atol=1e-5)


class TestOrderAndKernel:
    def test_zero_below_identity(self):
        assert loewner_leq(np.zeros((3, 3)), np.eye(3))
        assert not loewner_leq(np.eye(3), np.zeros((3, 3)))

    def test_trace_of_rank_one(self):
        v = np.array([[1.0], [0.0]])
        assert trace(v @ dagger(v)) == pytest.approx(1.0)

    def test_kernel_of_diag(self):
        basis = kernel_basis(np.diag([0.0, 1.0]))
        assert basis.shape == (2, 1)
        assert np.allclose(basis[:, 0], [1.0, 0.0])

    def test_trivial_kernel(self):
        assert kernel_basis(np.eye(3)).shape == (3, 0)

    def test_kernel_split_inside_a_gauge_cluster(self):
        # 0.5e-8 and 1.2e-8 are closer than CLUSTER_TOL, but only the first
        # is below KERNEL_TOL
        basis = kernel_basis(np.diag([0.5e-8, 1.2e-8]))
        assert np.max(np.abs(basis - [[1.0], [0.0]])) < 1e-12
        basis = kernel_basis(np.diag([2.0, 0.0, 0.0, 0.5e-8, 1.2e-8]))
        assert basis.shape == (5, 3)
        assert np.max(np.abs(basis - np.eye(5)[:, 1:4])) < 1e-12

    def test_kernel_columns_annihilated(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            m = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
            a = m @ dagger(m)  # rank <= k, kernel dimension >= n - k
            basis = kernel_basis(a)
            assert basis.shape[1] >= n - k
            if basis.shape[1]:
                assert np.max(np.abs(a @ basis)) < 1e-8
                gram = dagger(basis) @ basis
                assert np.max(np.abs(gram - np.eye(basis.shape[1]))) < 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loewner_leq(np.eye(2), np.eye(3))


class TestMatrixLiterals:
    def test_complex_tokens(self):
        assert parse_complex("1.5") == 1.5
        assert parse_complex("-2i") == -2j
        assert parse_complex("i") == 1j
        assert parse_complex("-i") == -1j
        assert parse_complex("0.5-0.25i") == 0.5 - 0.25j
        assert parse_complex("1e-3+2e-4i") == 1e-3 + 2e-4j
        with pytest.raises(ValueError):
            parse_complex("1+2")
        with pytest.raises(ValueError):
            parse_complex("abc")

    def test_format_golden(self):
        a = np.array([[0.25, -0.5j], [0.5j, 1.0]])
        assert format_matrix(a) == "2 2\n0.25+0i 0-0.5i\n0+0.5i 1+0i"

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        back = parse_matrix(format_matrix(a, sig=17))
        assert np.max(np.abs(back - a)) < 1e-15

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_matrix("2 2\n1+0i 0+0i")
        with pytest.raises(ValueError):
            parse_matrix("2\n1 2")
