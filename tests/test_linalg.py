"""Eigensolver, square roots, kernel bases and the matrix text format.

The 2x2 expectations were solved by hand from the characteristic
polynomial.  The library's spectrum also comes from LAPACK (through
numpy's ``eigh``), so the comparison with ``eigvalsh`` checks the
descending order rather than the solver; the solver-independent checks
are reconstruction, orthonormality and the trace and Frobenius
identities.  The solver's vectors carry no gauge; the canonical gauge of
kernel bases is tested on ``kernel_basis``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectlogic import config, linalg
from effectlogic.linalg import (
    HermitianEigen,
    NotPsdError,
    dagger,
    eigen_hermitian,
    format_matrix,
    hermitian_part,
    kernel_basis,
    parse_complex,
    parse_matrix,
    sqrt_psd,
    trace,
)


def is_psd(a) -> bool:
    values = eigen_hermitian(a).eigenvalues
    return bool(values.size == 0 or values[-1] >= -config.EPS)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return hermitian_part(m)


class TestEigenHermitian:
    def test_diagonal(self):
        eig = eigen_hermitian(np.diag([0.25, 1.0]))
        assert np.allclose(eig.eigenvalues, [1.0, 0.25])

    def test_hand_solved_2x2(self):
        # trace 3/4, determinant 1/8 -> eigenvalues 1/2 and 1/4,
        # eigenvectors proportional to (1, 1) and (1, -1); the solver's
        # vectors carry no gauge, so they are compared up to phase
        a = np.array([[3.0, 1.0], [1.0, 3.0]]) / 8.0
        eig = eigen_hermitian(a)
        assert np.allclose(eig.eigenvalues, [0.5, 0.25], atol=1e-12)
        s = 1 / np.sqrt(2)
        assert abs(np.vdot(eig.vectors[:, 0], [s, s])) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(eig.vectors[:, 1], [s, -s])) == pytest.approx(1.0, abs=1e-12)

    def test_unpacks_as_values_and_vectors(self):
        values, vectors = eigen_hermitian(np.diag([0.25, 1.0]))
        assert np.array_equal(values, [1.0, 0.25])
        assert vectors.shape == (2, 2)

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

    def test_descending_order(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            eig = eigen_hermitian(random_hermitian(rng, 6))
            assert np.all(np.diff(eig.eigenvalues) <= 1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigen_hermitian(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigen_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_rejects_entries_that_are_not_finite(self, entry):
        # a - a* is NaN there, which no tolerance admits
        with pytest.raises(ValueError, match="not Hermitian"), np.errstate(invalid="ignore"):
            eigen_hermitian(np.array([[entry, 0.0], [0.0, 0.5]]))

    def test_degenerate_spectrum_keeps_orthonormality(self):
        eig = eigen_hermitian(np.eye(5, dtype=complex))
        assert np.allclose(eig.eigenvalues, 1.0)
        assert np.allclose(dagger(eig.vectors) @ eig.vectors, np.eye(5))


def root(a) -> np.ndarray:
    return sqrt_psd(eigen_hermitian(a))


def kernel(a) -> np.ndarray:
    return kernel_basis(eigen_hermitian(a))


class TestSqrtPsd:
    def test_identity(self):
        assert np.allclose(root(np.eye(3)), np.eye(3))

    def test_projection_is_fixed(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.max(np.abs(root(p) - p)) < 1e-12

    def test_diagonal(self):
        assert np.allclose(root(np.diag([0.25, 1.0])), np.diag([0.5, 1.0]))

    def test_squares_back(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = m @ dagger(m)
            r = root(a)
            assert np.max(np.abs(r @ r - a)) < 1e-8
            assert is_psd(r)

    def test_monotone_on_commuting_diagonals(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d1 = rng.uniform(0, 1, size=5)
            d2 = d1 + rng.uniform(0, 1, size=5)
            r1 = root(np.diag(d1))
            r2 = root(np.diag(d2))
            assert is_psd(r2 - r1)

    def test_near_degenerate_eigenvalues_keep_their_vectors(self):
        # 0 and 5e-9 fall into one gauge cluster; each root must still sit
        # on its own eigenvector, not on a mixture of the two
        for small in ([0.0, 5e-9], [0.0, 3e-9, 6e-9], [2e-9, 0.0, 9e-9]):
            r = root(np.diag(small))
            assert np.max(np.abs(r - np.diag(np.sqrt(small)))) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(NotPsdError):
            root(np.diag([1.0, -0.5]))

    def test_clamps_tiny_negative(self):
        r = root(np.diag([1.0, -1e-10]))
        assert np.allclose(r, np.diag([1.0, 0.0]), atol=1e-5)


class TestOrderAndKernel:
    def test_trace_of_rank_one(self):
        v = np.array([[1.0], [0.0]])
        assert trace(v @ dagger(v)) == pytest.approx(1.0)

    def test_kernel_of_diag(self):
        basis = kernel(np.diag([0.0, 1.0]))
        assert basis.shape == (2, 1)
        assert np.allclose(basis[:, 0], [1.0, 0.0])

    def test_trivial_kernel(self):
        assert kernel(np.eye(3)).shape == (3, 0)

    def test_kernel_split_inside_a_gauge_cluster(self):
        # 0.5e-8 and 1.2e-8 are closer than POST_EPS, but only the first
        # is below it
        basis = kernel(np.diag([0.5e-8, 1.2e-8]))
        assert np.max(np.abs(basis - [[1.0], [0.0]])) < 1e-12
        basis = kernel(np.diag([2.0, 0.0, 0.0, 0.5e-8, 1.2e-8]))
        assert basis.shape == (5, 3)
        assert np.max(np.abs(basis - np.eye(5)[:, 1:4])) < 1e-12

    def test_kernel_columns_annihilated(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            m = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
            a = m @ dagger(m)  # rank <= k, kernel dimension >= n - k
            basis = kernel(a)
            assert basis.shape[1] >= n - k
            if basis.shape[1]:
                assert np.max(np.abs(a @ basis)) < 1e-8
                gram = dagger(basis) @ basis
                assert np.max(np.abs(gram - np.eye(basis.shape[1]))) < 1e-8


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


class TestKernelGauge:
    """Kernel columns depend on the kernel alone, not on the solver's basis."""

    def test_hand_solved_2x2(self):
        # eigenvalues 1/2 and 1/4 with eigenvectors (1, 1) and (1, -1)
        a = np.array([[3.0, 1.0], [1.0, 3.0]]) / 8.0
        s = 1 / np.sqrt(2)
        assert np.allclose(kernel(a - 0.5 * np.eye(2)), [[s], [s]], atol=1e-12)
        assert np.allclose(kernel(a - 0.25 * np.eye(2)), [[s], [-s]], atol=1e-12)

    def test_phase_pivot_is_real_and_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = random_hermitian(rng, 6)
            for value in np.linalg.eigvalsh(a):
                basis = kernel(a - value * np.eye(6))
                assert basis.shape == (6, 1)
                pivot = basis[int(np.argmax(np.abs(basis[:, 0]))), 0]
                assert pivot.imag == pytest.approx(0.0, abs=1e-12)
                assert pivot.real >= 0.0

    def test_phase_pivot_ties_go_to_first_entry(self):
        # Fourier-basis eigenvectors have entries of equal modulus, which
        # the solver returns only equal to rounding.
        for n in (3, 4, 5, 8):
            f = np.exp(2j * np.pi * np.outer(range(n), range(n)) / n) / np.sqrt(n)
            spectrum = np.linspace(0.1, 0.9, n)
            a = f @ np.diag(spectrum) @ dagger(f)
            for value in spectrum:
                basis = kernel(a - value * np.eye(n))
                assert np.max(np.abs(basis[0] - 1 / np.sqrt(n))) < 1e-12

    def test_rotated_degenerate_kernel_gives_the_same_columns(self):
        rng = np.random.default_rng(8)
        for n, k in ((3, 2), (5, 3), (6, 4)):
            u = random_unitary(rng, n)
            spectrum = np.concatenate([rng.uniform(0.5, 2.0, n - k), np.zeros(k)])
            values, vectors = eigen_hermitian(u @ np.diag(spectrum) @ dagger(u))
            expected = kernel_basis(HermitianEigen(values, vectors))
            assert expected.shape == (n, k)
            rotated = vectors.copy()
            rotated[:, n - k:] = vectors[:, n - k:] @ random_unitary(rng, k)
            assert np.max(np.abs(kernel_basis(HermitianEigen(values, rotated)) - expected)) < 1e-12

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
    def test_large_tolerance_never_pivots_on_zero(self, eps, monkeypatch):
        # --eps 0.1 makes POST_EPS 1, past every entry of a unit column: the
        # tie band stays below half the maximum, so no zero entry or zero
        # residual is ever a pivot
        monkeypatch.setattr(linalg.config, "POST_EPS", max(10 * eps, 1e-8))
        assert np.array_equal(kernel(np.diag([5.0, 0.0])), [[0.0], [1.0]])
        assert np.array_equal(kernel(np.diag([5.0, 0.0, 0.0])), np.eye(3)[:, 1:])


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

    @pytest.mark.parametrize("text,message", [
        ("2 2\n1+0i 0+0i", "expected 2 rows, found 1"),
        ("2\n1 2", "matrix literal must start with 'rows cols'"),
        ("1 2\n1", "row 0 has 1 entries, expected 2"),
        ("2 0\n1", "expected 2 rows, found 1"),
        # the header holds two non-negative integer literals
        ("-1 0", "matrix dimensions must be non-negative"),
        ("2.0 1\n1\n1", "matrix size must be two integers 'rows cols', got '2.0 1'"),
        ("1 1e0\n1", "matrix size must be two integers 'rows cols', got '1 1e0'"),
        ("1_0 1", "matrix size must be two integers 'rows cols', got '1_0 1'"),
        # entries overflowing a double read as inf
        ("1 2\n1e999 0", "matrix entries must be finite"),
        ("1 1\n-1e999i", "matrix entries must be finite"),
        # every row is counted before the matrix is allocated
        ("1 1000000000000\n1", "row 0 has 1 entries, expected 1000000000000"),
        ("2 1000000000000\n1\n2", "row 0 has 1 entries, expected 1000000000000"),
    ])
    def test_parse_errors(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_matrix(text)
        assert str(err.value) == message

    def test_no_columns(self):
        # the blank rows of an n x 0 matrix may be written out or left out
        assert format_matrix(np.zeros((2, 0))) == "2 0\n\n"
        for text in ("2 0\n\n", "2 0"):
            assert parse_matrix(text).shape == (2, 0)
        with pytest.raises(ValueError, match="expected 2 rows, found 1"):
            parse_matrix("2 0\n1")


# -- the text layer against entry-wise references -----------------------------


def reference_format_matrix(a, sig: int = 9) -> str:
    """The entry-by-entry formatter that format_matrix replaces."""

    def fmt_real(x: float) -> str:
        if x == 0.0:
            x = 0.0  # normalise -0.0
        return f"{x:.{sig}g}"

    def fmt_complex(z: complex) -> str:
        im = float(z.imag)
        return f"{fmt_real(float(z.real))}{'-' if im < 0 else '+'}{fmt_real(abs(im))}i"

    a = np.asarray(a, dtype=np.complex128)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for i in range(a.shape[0]):
        lines.append(" ".join(fmt_complex(a[i, j]) for j in range(a.shape[1])))
    return "\n".join(lines)


def reference_parse_matrix(text: str) -> np.ndarray:
    """Reads every entry through parse_complex, one token at a time."""
    lines = [ln for ln in (raw.strip() for raw in text.strip().splitlines()) if ln]
    rows, cols = (int(x) for x in lines[0].split())
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, line in enumerate(lines[1:]):
        for j, token in enumerate(line.split()):
            out[i, j] = parse_complex(token)
    return out


SPECIAL_REALS = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e20, -1e20, 0.1, -2.5,
                 np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0)]
reals = st.sampled_from(SPECIAL_REALS) | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def complex_matrices(draw, max_side=6, elements=reals):
    rows = draw(st.integers(min_value=0, max_value=max_side))
    cols = draw(st.integers(min_value=0, max_value=max_side))
    parts = draw(st.lists(elements, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(rows, cols)


@settings(max_examples=120, deadline=None)
@given(a=complex_matrices(), sig=st.sampled_from([0, 1, 9, 17]))
def test_format_matches_entrywise_reference(a, sig):
    # NaN and infinities, of either sign, can reach the formatter through
    # raw matrix literals, which are not validated
    assert format_matrix(a, sig) == reference_format_matrix(a, sig)
    assert format_matrix(a.T, sig) == reference_format_matrix(a.T, sig)


@settings(max_examples=60, deadline=None)
@given(a=complex_matrices(elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_format_parse_round_trip_every_shape(a):
    back = parse_matrix(format_matrix(a, sig=17))
    assert back.shape == a.shape
    assert np.array_equal(back, a)


# entries built from the grammar's parts (a real part, a signed imaginary
# part, the unit), each part valid or not, plus noise with the characters
# that complex() alone would accept (nan, inf, underscores, j, parentheses)
signs = st.sampled_from(["", "+", "-"])
mantissas = st.sampled_from(["", "1", "0", "12.5", "1.", ".5", "\u0663", "."])
exponents = st.sampled_from(["", "", "e5", "E-3", "e+0", "e"])
grammar_entries = st.tuples(signs, mantissas, exponents, signs, mantissas, exponents,
                            st.sampled_from(["", "i"])).map("".join)
NOISE = ["1", "-", "i", "e", "j", "J", "_", "(", ")", "nan", "inf", "."]
noise_entries = st.lists(st.sampled_from(NOISE), min_size=1, max_size=4).map("".join)
entries = st.one_of(grammar_entries, grammar_entries, grammar_entries, noise_entries).filter(bool)


def parse_outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", value.shape, value.tobytes()  # bytes tell signed zeros apart


@settings(max_examples=250, deadline=None)
@given(data=st.data(), rows=st.integers(min_value=1, max_value=2),
       cols=st.integers(min_value=1, max_value=3))
def test_parse_matches_tokenwise_reference(data, rows, cols):
    tokens = data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    sep = data.draw(st.sampled_from([" ", "  ", "\t", " \x1f ", "\u2003"]))
    text = f"{rows} {cols}\n" + "\n".join(
        sep.join(tokens[r * cols:(r + 1) * cols]) for r in range(rows))
    assert parse_outcome(parse_matrix, text) == parse_outcome(reference_parse_matrix, text)
