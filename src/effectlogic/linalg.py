"""Dense complex linear algebra for Hermitian matrices.

The eigendecomposition, operator square roots, traces and kernel bases.
Matrices are numpy arrays of complex128.  Every solve goes through
``eigen_hermitian``: LAPACK's ``numpy.linalg.eigh``, eigenvalues
descending, the solver's own vectors.  It reads its input through one
pass, which checks it Hermitian within ``EPS`` and builds the Hermitian
part the solver is given.  The functions built on a spectrum take a
decomposition, so a caller that keeps one solves once.  Square roots
(functions of the matrix) take the vectors as they come.  Kernel bases
are output, and golden outputs depend on them, so ``kernel_basis`` alone
fixes a gauge, from the kernel itself, in which any correct solver gives
the same columns.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from . import config


class NotPsdError(ValueError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("expected a two-dimensional array")
    return m


def finite_matrix(a) -> np.ndarray:
    """``as_matrix(a)``, refused if an entry is not finite, before any
    arithmetic on it could warn."""
    m = as_matrix(a)
    if np.count_nonzero(np.isfinite(m)) != m.size:  # half the cost of .all() at small sizes
        raise ValueError("matrix entries must be finite")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def hermitian_part(a: np.ndarray) -> np.ndarray:
    a = as_matrix(a)
    return (a + dagger(a)) / 2.0


class HermitianEigen(NamedTuple):
    """Real eigenvalues (descending) and the solver's orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


def _checked_hermitian(a) -> np.ndarray:
    """The Hermitian part of ``a``, which must be square and Hermitian
    within ``config.EPS`` per entry: one pass checks it and builds it."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    skew = a - dagger(a)
    if skew.size and not abs(skew).max() <= config.EPS:  # NaN fails it
        raise ValueError(f"matrix is not Hermitian within {config.EPS}")
    return a - skew / 2.0


def eigen_hermitian(a) -> HermitianEigen:
    """Diagonalise a Hermitian matrix: the package's one solve.

    The input may deviate from Hermitian by at most ``config.EPS`` per
    entry and is symmetrised before the decomposition.  The vectors are
    the solver's own, in no gauge.
    """
    values, vecs = np.linalg.eigh(_checked_hermitian(a))
    return HermitianEigen(values[::-1].copy(), vecs[:, ::-1])


def trace(a) -> complex:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    return complex(np.trace(a))


def sqrt_psd(eig: HermitianEigen) -> np.ndarray:
    """The positive square root of a positive semidefinite matrix, from its
    decomposition ``eigen_hermitian(a)``.

    Eigenvalues below ``EPS`` are treated as exact zeros (the square root
    would amplify eigenvalue dust from 1e-16 to 1e-8); anything below -EPS
    raises ``NotPsdError``.  Projections are reproduced sharply, since
    their spectrum is fixed by the square root.
    """
    values, vecs = eig
    if values.size and values[-1] < -config.EPS:
        raise NotPsdError(f"eigenvalue {values[-1]} below -{config.EPS}")
    return _spectral_sqrt(vecs, np.where(values < config.EPS, 0.0, values))


def complementary_sqrts(eig: HermitianEigen) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(A) and sqrt(I - A) of an effect A, from its decomposition
    ``eigen_hermitian(A)``.

    Eigenvalues within ``EPS`` of 0 or 1 are snapped there, so each pair
    of squared roots sums to exactly 1 and the stacked roots form an
    isometry that loses no probability mass.
    """
    values, vecs = eig
    tol = config.EPS
    values = np.where(values < tol, 0.0, np.where(1.0 - values < tol, 1.0, values))
    both = _spectral_sqrt(vecs, np.stack([values, 1.0 - values])[:, None, :])
    return both[0], both[1]


def _spectral_sqrt(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V sqrt(D) V*, Hermitian part; ``values`` may stack several spectra
    (shape (k, 1, n)), giving k roots from one product."""
    # vectors straight from the solver: each root sits on its own
    # eigenvector, however close its neighbours are
    root = (vectors * np.sqrt(values)) @ dagger(vectors)
    return (root + np.swapaxes(root, -1, -2).conj()) / 2.0


def kernel_band() -> float:
    """Values of magnitude below this count as zero: ``POST_EPS``, capped at
    0.5 so that only a value nearer 0 than 1 does, however large ``--eps``."""
    return min(config.POST_EPS, 0.5)


def kernel_basis(eig: HermitianEigen) -> np.ndarray:
    """Orthonormal columns spanning the eigenspaces with |eigenvalue| < kernel_band(),
    from the decomposition ``eigen_hermitian(a)``.

    The columns are selected on the solver's own vectors, then put in the
    canonical gauge, which depends on the selected subspace alone.
    Returns an n x 0 matrix when the kernel is trivial.
    """
    values, vecs = eig
    kernel = vecs[:, np.abs(values) < kernel_band()]
    return _kernel_gauge(kernel) if kernel.shape[1] else kernel


def _kernel_gauge(block: np.ndarray) -> np.ndarray:
    """Rebuild orthonormal columns from the subspace they span.

    Gram-Schmidt over the columns ``P e_i`` of the projector ``P``, the
    largest residual first; then each column is scaled so that its first
    entry of largest modulus is real and positive.  Both choices take the
    lowest index among the near-ties of ``_first_near_max``.  Real and
    imaginary parts below n * machine epsilon become exact zeros, so the
    printed columns depend on the subspace alone, not on the solve.
    """
    k = block.shape[1]
    if k > 1:
        residual = block @ dagger(block)
        block = np.empty_like(block)
        for j in range(k):
            norms = np.linalg.norm(residual, axis=0)
            pivot = int(_first_near_max(norms))
            q = residual[:, pivot] / norms[pivot]
            residual = residual - np.outer(q, q.conj() @ residual)
            block[:, j] = q
    pivots = block[_first_near_max(np.abs(block)), np.arange(k)]
    block = block * (pivots.conj() / np.abs(pivots))
    for part in (block.real, block.imag):
        part[np.abs(part) < len(block) * np.finfo(float).eps] = 0
    return block


def _first_near_max(values: np.ndarray) -> np.ndarray:
    # the first index on axis 0 within POST_EPS of the maximum, and never within
    # half of it: a large --eps cannot make a zero entry or residual a pivot
    top = values.max(axis=0)
    return np.argmax(values >= top - np.minimum(config.POST_EPS, 0.5 * top), axis=0)


# ---------------------------------------------------------------------------
# Matrix literal text format: a "rows cols" header line, then one line per
# row of whitespace-separated a+bi entries, printed to 9 significant digits.
# A matrix with no columns has blank rows, which a reader may leave out.

# The real-number and integer literals, shared with the scenario grammar.
NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
INT_RE = re.compile(r"[+-]?[0-9]+")
_FULL_RE = re.compile(rf"^(?P<re>{NUM})(?P<im>[+-](?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)i$")
_REAL_RE = re.compile(rf"^(?P<re>{NUM})$")
_IMAG_RE = re.compile(rf"^(?P<im>[+-]?(?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)i$")
# Deletes the characters of plain rows.  Over those, with i read as j,
# complex() accepts exactly the entries that parse_complex accepts and reads
# the same numbers (signed zeros included).  Other text, which complex()
# may read more leniently (nan, inf, underscores, parentheses, j), goes
# through parse_complex.
_PLAIN_CHARS = str.maketrans("", "", "0123456789.eE+-i \t")


def parse_complex(token: str) -> complex:
    token = token.strip()
    m = _FULL_RE.match(token)
    if m:
        im = m.group("im")
        imag = 1.0 if im == "+" else -1.0 if im == "-" else float(im)
        return complex(float(m.group("re")), imag)
    m = _REAL_RE.match(token)
    if m:
        return complex(float(m.group("re")), 0.0)
    m = _IMAG_RE.match(token)
    if m:
        im = m.group("im")
        imag = 1.0 if im in ("", "+") else -1.0 if im == "-" else float(im)
        return complex(0.0, imag)
    raise ValueError(f"bad complex literal {token!r}")


def format_matrix(a, sig: int = 9) -> str:
    a = as_matrix(a)
    rows, cols = a.shape
    # real and imaginary parts interleaved along each row; adding 0.0 turns
    # -0.0 into 0.0, and %+g puts the sign between the two parts
    parts = np.ascontiguousarray(a).view(np.float64) + 0.0
    template = " ".join([f"%.{sig}g%+.{sig}gi"] * cols)
    return "\n".join([f"{rows} {cols}"] + [template % tuple(row) for row in parts.tolist()])


def parse_shape(rows: str, cols: str) -> tuple[int, int]:
    """The "rows cols" header of a matrix literal: non-negative integers."""
    if not (INT_RE.fullmatch(rows) and INT_RE.fullmatch(cols)):
        raise ValueError(f"matrix size must be two integers 'rows cols', got '{rows} {cols}'")
    shape = int(rows), int(cols)
    if min(shape) < 0:
        raise ValueError("matrix dimensions must be non-negative")
    return shape


def parse_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in (raw.strip() for raw in text.strip().splitlines()) if ln]
    if not lines:
        raise ValueError("empty matrix literal")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("matrix literal must start with 'rows cols'")
    rows, cols = parse_shape(*head)
    found = len(lines) - 1
    if found != rows and not (found == 0 and cols == 0 and rows > 0):
        raise ValueError(f"expected {rows} rows, found {found}")
    # every row is counted before the matrix is allocated
    split = [line.split() for line in lines[1:]]
    for i, entries in enumerate(split):
        if len(entries) != cols:
            raise ValueError(f"row {i} has {len(entries)} entries, expected {cols}")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, entries in enumerate(split):
        out[i] = _parse_row(lines[i + 1], entries)
    return finite_matrix(out)


def _parse_row(line: str, entries: list[str]) -> list[complex]:
    """The entries of one row, as parse_complex reads them."""
    if not line.translate(_PLAIN_CHARS):
        try:
            return [complex(token) for token in line.replace("i", "j").split()]
        except ValueError:
            pass
    # parse_complex names the first entry it rejects
    return [parse_complex(token) for token in entries]
