"""The finite-dimensional Hilbert-space instance of branching predicates.

A predicate on C^n is a map C^n -> C^n (+) C^n, with the doubled space
read as C^{2n} and its first n coordinates forming the left summand.
That coordinate convention is normative for every stacked matrix produced
here.  The law [id, id] . p = id makes a predicate a pair (A, I - A) of
effects, 0 <= A <= I, so ``QPredicate`` holds the left part A alone and
checks it once.  Every operation that takes or returns a predicate (sums,
scalings, substitution, the tests "and then" and "then", Born
probabilities, the state functional) works on ``QPredicate``, as the
other two instances work on theirs.

Each value is validated once, and not at all when its bounds follow from
bounds already checked: spec(I - A) is 1 - spec(A) and spec(s A) is
s spec(A).  A measured density matrix is not diagonalised for that
reason, nor are the tests sqrt(A) B sqrt(A) and sqrt(A) B sqrt(A) + I - A
while A <= I, and the classifier, whose stacked roots square to
complementary spectra, is an isometry by construction and gets no Gram
check.  A substitution f* A f is checked, as is a test on an A admitted
above I: their inputs may exceed [0, 1] by EPS, and unchecked results
would drift further at each step of a chain.  A predicate is decomposed
once (``QPredicate.spectrum``), when it is admitted or, built unchecked,
on first use; its square roots, classifier, spectral probability and
comprehension all read that decomposition.

Substitution along an isometry f is conjugation f* A f of the left part;
its scalar case (f a unit column vector) is the probability of the
predicate in that state.  The classifier of a predicate is the stacked
pair of square roots, an isometry into the doubled space, and measurement
is post-composition with it (on unit vectors) or conjugation by it (on
density matrices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import config
from .linalg import (
    HermitianEigen,
    as_matrix,
    complementary_sqrts,
    dagger,
    eigen_hermitian,
    finite_matrix,
    hermitian_part,
    kernel_basis,
    sqrt_psd,
    trace,
)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


def _check_effect_spectrum(vals: np.ndarray) -> None:
    # written so that a NaN eigenvalue fails it
    if vals.size and not -config.EPS <= vals[-1] <= vals[0] <= 1.0 + config.EPS:
        raise ValueError(f"effect spectrum [{vals[-1]}, {vals[0]}] leaves [0, 1]")


@dataclass(frozen=True, eq=False)
class QPredicate:
    """A predicate stored as its left part, an effect 0 <= A <= I; the
    right part is I - A."""

    matrix: np.ndarray

    def __post_init__(self):
        m = finite_matrix(self.matrix)
        eig = eigen_hermitian(m)
        _check_effect_spectrum(eig.eigenvalues)
        object.__setattr__(self, "matrix", _frozen(m))
        self.__dict__["spectrum"] = eig

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> HermitianEigen:
        """The one decomposition of the left part.  A checked predicate takes
        it when it is admitted; one built unchecked takes it on first use."""
        return eigen_hermitian(self.matrix)

    def perp(self) -> "QPredicate":
        """The predicate with left part I - A, an effect because A is one."""
        return _implied(np.eye(self.dim) - self.matrix)

    @classmethod
    def from_effect(cls, a: "QPredicate | np.ndarray") -> "QPredicate":
        """A predicate as it is, or the checked predicate with left part ``a``."""
        return a if isinstance(a, cls) else cls(a)


# the old name, until perfbench/tracing.py stops resolving it
Effect = QPredicate


def _implied(m: np.ndarray, cls=QPredicate):
    """A ``QPredicate`` (or a ``DensityMatrix``, an ``Isometry``) whose
    checks are implied, by checks already made on the values it derives
    from or by its construction, so it is not checked again."""
    value = object.__new__(cls)
    object.__setattr__(value, "matrix", _frozen(m))
    return value


def truth(n: int) -> QPredicate:
    return _implied(np.eye(n))  # spectrum {1}


def falsity(n: int) -> QPredicate:
    return _implied(np.zeros((n, n)))  # spectrum {0}


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit column vector."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=np.complex128).reshape(-1)
        norm = math.hypot(*np.abs(v).tolist())  # scaled, so large entries do not overflow
        if not abs(norm - 1.0) <= config.EPS:  # NaN fails it
            raise ValueError(f"state norm {norm} is not 1")
        out = v.copy()
        out.setflags(write=False)
        object.__setattr__(self, "vector", out)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A positive semidefinite matrix of unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = finite_matrix(self.matrix)
        vals = eigen_hermitian(m).eigenvalues
        if vals.size and not vals[-1] >= -config.EPS:
            raise ValueError("density matrix must be positive semidefinite")
        tr = trace(m).real
        if abs(tr - 1.0) > config.EPS:
            raise ValueError(f"trace {tr} is not 1")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, x: PureState) -> "DensityMatrix":
        v = x.vector.reshape(-1, 1)
        return cls(v @ dagger(v))


@dataclass(frozen=True, eq=False)
class Isometry:
    """A tall matrix V with V*V within ``EPS`` of I in the Frobenius norm,
    so conjugation keeps effects.  V is admitted within ``POST_EPS`` (a
    9-digit print drifts up to 3e-9) and past ``EPS`` is replaced by its
    polar factor V (V*V)^(-1/2), the nearest isometry."""

    matrix: np.ndarray

    def __post_init__(self):
        m = finite_matrix(self.matrix)
        rows, cols = m.shape
        if rows < cols:
            raise ValueError("isometry must have at least as many rows as columns")
        if cols:
            gram = dagger(m) @ m
            deviation = np.linalg.norm(gram - np.eye(cols))
            if not deviation <= config.POST_EPS:
                raise ValueError("columns are not orthonormal")
            if deviation > config.EPS:
                values, vecs = eigen_hermitian(gram)
                m = m @ (vecs / np.sqrt(values)) @ dagger(vecs)
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def target_dim(self) -> int:
        return self.matrix.shape[0]


# -- effect algebra and module structure ------------------------------------

def orthosum(p: QPredicate, q: QPredicate):
    """Pointwise sum of the left parts when it stays below the identity.

    One decomposition of the sum decides definedness and validity; the sum keeps it.
    """
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    s = p.matrix + q.matrix
    eig = eigen_hermitian(s)
    if eig.eigenvalues.size and eig.eigenvalues[0] > 1.0 + config.EPS:
        return None
    _check_effect_spectrum(eig.eigenvalues)
    out = _implied(s)
    out.__dict__["spectrum"] = eig
    return out


def probability_multiply(s: float, p: QPredicate) -> QPredicate:
    """Scale the left part by a probability; s A is an effect as A is."""
    if not -config.EPS <= s <= 1.0 + config.EPS:
        raise ValueError("scalar must lie in [0, 1]")
    s = min(max(s, 0.0), 1.0)
    return _implied(s * p.matrix)


def substitute(f: Isometry, q: QPredicate) -> QPredicate:
    """Pull a predicate back along an isometry by conjugating its left part.

    The right part follows: f* (I - A) f = I - f* A f, because f* f = I.
    The result is checked: f* f may exceed I by EPS, so without a check a
    chain of substitutions would leave [0, 1] a little further each step.
    """
    if f.target_dim != q.dim:
        raise ValueError("predicate dimension must match the isometry target")
    return QPredicate(dagger(f.matrix) @ q.matrix @ f.matrix)


def born_probability(x: PureState, p: QPredicate) -> float:
    """The probability of the predicate in a pure state, by substitution.

    This is the scalar case of ``substitute``: the state is a one-column
    isometry and conjugation lands in the 1x1 effects, i.e. [0, 1].
    """
    if p.dim != x.dim:
        raise ValueError("dimension mismatch")
    val = complex(np.conj(x.vector) @ (p.matrix @ x.vector))
    if abs(val.imag) > config.EPS:
        raise ValueError(f"probability has imaginary part {val.imag}")
    return min(max(val.real, 0.0), 1.0)


def born_spectral(x: PureState, p: QPredicate) -> float:
    """The same probability through the spectral decomposition.

    Independent route for cross-checking: eigenvalues weight the squared
    overlaps with the solver's own eigenvectors, which need no gauge.
    """
    if p.dim != x.dim:
        raise ValueError("dimension mismatch")
    values, vectors = p.spectrum
    overlaps = np.abs(dagger(vectors) @ x.vector) ** 2
    return float(np.real(np.sum(values * overlaps)))


# -- classifiers, tests and measurement --------------------------------------

def char_sqrt(p: QPredicate) -> Isometry:
    """The classifying isometry of a predicate: stacked square roots.

    The 2n x n stack of the two component square roots; pulling the
    canonical left predicate of the doubled space back along it recovers
    the predicate.  Both roots come from the predicate's one decomposition
    A = V L V*, as V sqrt(L) V* and V sqrt(1 - L) V*, whose squares sum
    to V V* = I: an isometry by construction, not checked again.
    """
    return _implied(np.vstack(complementary_sqrts(p.spectrum)), Isometry)


def omega_predicate(n: int) -> QPredicate:
    """The canonical "left half" predicate on the doubled space C^{2n}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    left = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    left[:n, :n] = np.eye(n)
    return _implied(left)  # a projector: spectrum {0, 1}


def _tested(p: QPredicate, m: np.ndarray) -> QPredicate:
    """The result of a test on p, with left part ``m``.

    While A <= I, the spectrum of sqrt(A) B sqrt(A) lies in the hull of
    B's and 0, and that of sqrt(A) B sqrt(A) + I - A in the hull of B's,
    I - A's and 1, so the result is no further outside [0, 1] than its
    inputs and is not diagonalised.  An A admitted above I (by up to EPS)
    would widen those hulls at each step of a chain, so its results are
    checked.  A top eigenvalue within the solver's rounding of 1, dim
    units in the last place, counts as 1.
    """
    values = p.spectrum.eigenvalues
    if values.size and values[0] > 1.0 + p.dim * np.finfo(float).eps:
        return QPredicate(m)
    return _implied(m)


def test_andthen(p: QPredicate, q: QPredicate) -> QPredicate:
    """Sequential test "p and then q": the left part sqrt(A) B sqrt(A)."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    r = sqrt_psd(p.spectrum)
    return _tested(p, hermitian_part(r @ q.matrix @ r))


def test_then(p: QPredicate, q: QPredicate) -> QPredicate:
    """Guarded test "if p then q": the left part sqrt(A) B sqrt(A) + (I - A)."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    r = sqrt_psd(p.spectrum)
    out = r @ q.matrix @ r + np.eye(p.dim) - p.matrix
    return _tested(p, hermitian_part(out))


def measure_pure(p: QPredicate, x: PureState) -> PureState:
    """Send a unit vector through the classifier of p.

    The first n amplitudes carry the "holds" branch, the last n the
    complement branch; the output is again a unit vector because the
    classifier is an isometry.
    """
    if p.dim != x.dim:
        raise ValueError("dimension mismatch")
    return PureState(char_sqrt(p).matrix @ x.vector)


def measure_density(p: QPredicate, rho: DensityMatrix) -> DensityMatrix:
    """Conjugate a density matrix by the classifier of p.

    Trace is preserved (cyclically, the classifier's two sides cancel) and
    so is positivity, so the result is a density matrix on the doubled
    space without a check of its own.
    """
    if p.dim != rho.dim:
        raise ValueError("dimension mismatch")
    v = char_sqrt(p).matrix
    return _implied(v @ rho.matrix @ dagger(v), DensityMatrix)


def xi_state(rho: DensityMatrix) -> Callable[[QPredicate], float]:
    """The predicate-transformer view of a density matrix: p -> tr(rho A),
    with A the left part of p."""

    def functional(p: QPredicate) -> float:
        if p.dim != rho.dim:
            raise ValueError("dimension mismatch")
        val = trace(rho.matrix @ p.matrix)
        if abs(val.imag) > config.POST_EPS:
            raise ValueError("trace pairing has a nonreal value")
        return min(max(val.real, 0.0), 1.0)

    return functional


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """An n-outcome projective measurement decomposed into binary predicates.

    ``components`` are the verified branch predicates in outcome order;
    ``predicates`` are the binary yes/no predicates whose nesting
    reproduces them.
    """

    components: tuple[QPredicate, ...]
    predicates: tuple[QPredicate, ...]


def projective_compose(projections: Sequence[QPredicate | np.ndarray]) -> ProjectiveMeasurement:
    """Fold a complete family of orthogonal projections into binary tests.

    Requires each input to be a projection, pairwise products to vanish
    and the family to sum to the identity (all within ``config.POST_EPS``,
    read at call time).  The nested binary splits "does outcome i hold,
    else continue" compose to exactly the given family; the composition is
    re-derived and verified here before returning.
    """
    mats = [p.matrix if isinstance(p, QPredicate) else as_matrix(p) for p in projections]
    tol = config.POST_EPS
    if len(mats) < 2:
        raise ValueError("need at least two projections")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ValueError("projections must share a dimension")
        if np.max(np.abs(m @ m - m)) > tol or np.max(np.abs(m - dagger(m))) > tol:
            raise ValueError("input is not a projection")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if np.max(np.abs(mats[i] @ mats[j])) > tol:
                raise ValueError(f"projections {i} and {j} are not orthogonal")
    if np.max(np.abs(sum(mats) - np.eye(n))) > tol:
        raise ValueError("projections do not sum to the identity")

    predicates = tuple(QPredicate(m) for m in mats[:-1])
    components = []
    remainder = np.eye(n, dtype=np.complex128)
    for m in mats[:-1]:
        components.append(hermitian_part(m @ remainder))
        remainder = (np.eye(n) - m) @ remainder
    components.append(hermitian_part(remainder))
    for derived, given in zip(components, mats):
        if np.max(np.abs(derived - given)) > config.EPS:
            raise AssertionError("nested binary tests failed to reproduce the family")
    return ProjectiveMeasurement(tuple(QPredicate(c) for c in components), predicates)


def predicate_from_isometry(k: Isometry) -> QPredicate:
    """The sharp predicate spanned by an isometry's image: k k* paired
    with its complement."""
    return QPredicate(hermitian_part(k.matrix @ dagger(k.matrix)))


def comprehension(q: QPredicate) -> Isometry:
    """The subspace where q holds outright: the kernel of the right part I - A.

    Returns the inclusion isometry (possibly with zero columns).  On that
    subspace the left part acts as the identity.  I - A is read off A's
    decomposition: eigenvalues 1 - l on the same vectors.
    """
    values, vectors = q.spectrum
    return Isometry(kernel_basis(HermitianEigen(1.0 - values[::-1], vectors[:, ::-1])))


def bifmrel_substitute(r, n) -> np.ndarray:
    """Substitution for matrix-valued relations: x, x' -> sum over y, y' of
    r(x,y) n(y,y') conj(r(x',y')).

    ``r`` plays the role of a dagger mono from X to Y, which for matrices
    means r r* = identity on X.  The triple sum is exactly r n r*.
    """
    r = as_matrix(r)
    n = as_matrix(n)
    if n.shape[0] != n.shape[1] or r.shape[1] != n.shape[0]:
        raise ValueError("shape mismatch")
    if np.max(np.abs(r @ dagger(r) - np.eye(r.shape[0]))) > config.POST_EPS:
        raise ValueError("relation rows are not orthonormal")
    return r @ n @ dagger(r)


# -- random generators (used by the self test and by property suites) -------

def random_isometry(rng: np.random.Generator, rows: int, cols: int) -> Isometry:
    """A Haar-ish random isometry built by modified Gram-Schmidt."""
    if rows < cols:
        raise ValueError("rows must be >= cols")
    m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q = np.zeros((rows, cols), dtype=np.complex128)
    for j in range(cols):
        v = m[:, j]
        for k in range(j):
            v = v - (q[:, k].conj() @ v) * q[:, k]
        v = v / np.linalg.norm(v)
        q[:, j] = v
    return Isometry(q)


def random_predicate(rng: np.random.Generator, n: int) -> QPredicate:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = hermitian_part(m)
    vals = eigen_hermitian(h).eigenvalues
    lo, hi = float(vals[-1]), float(vals[0])
    span = max(hi - lo, 1.0)
    scaled = (h - lo * np.eye(n)) / span
    return QPredicate(scaled * rng.uniform(0.2, 1.0))


def random_pure_state(rng: np.random.Generator, n: int) -> PureState:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return PureState(v / np.linalg.norm(v))


def random_density(rng: np.random.Generator, n: int) -> DensityMatrix:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ dagger(m)
    return DensityMatrix(rho / np.trace(rho).real)


# -- named constants ---------------------------------------------------------

KET0 = np.array([1.0, 0.0], dtype=np.complex128)
KET1 = np.array([0.0, 1.0], dtype=np.complex128)
KET_NE = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
KET_NW = np.array([1.0, -1.0], dtype=np.complex128) / np.sqrt(2.0)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def projector(x: PureState) -> QPredicate:
    v = x.vector.reshape(-1, 1)
    return QPredicate(v @ dagger(v))
