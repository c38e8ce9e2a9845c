"""Numerical tolerances shared across the package.

All comparisons of probabilities, operator entries and normalisation sums
go through these constants.  ``EPS`` governs structural equality,
definedness of partial sums and normalisation checks; ``POST_EPS`` is the
looser bound used after chains of floating-point arithmetic (spectral
round trips, substitution chains).  The values are read at call time, so
``set_epsilon`` must only be used once, before any evaluation starts (the
command line runner does exactly that).
"""

EPS = 1e-9
POST_EPS = 1e-8

# Eigenvalues of magnitude below this count as kernel directions.  The
# same threshold groups near-degenerate eigenvalues into the clusters whose
# basis the eigenvector gauge rebuilds from the cluster projector, and
# breaks near-ties between pivot candidates in that gauge.
KERNEL_TOL = 1e-8
CLUSTER_TOL = 1e-8

# Matrices with an eigenvalue below -PSD_TOL are rejected as not positive
# semidefinite; eigenvalues in [-PSD_TOL, 0) are clamped to zero.
PSD_TOL = 1e-9


def set_epsilon(eps: float) -> None:
    """Override the global structural tolerance (and scale POST_EPS with it)."""
    global EPS, POST_EPS
    if eps <= 0:
        raise ValueError("tolerance must be positive")
    EPS = eps
    POST_EPS = max(10.0 * eps, 1e-8)
