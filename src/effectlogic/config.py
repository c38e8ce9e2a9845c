"""Numerical tolerances shared across the package: exactly two.

``EPS`` is the structural tolerance.  It governs equality of inputs,
definedness of partial sums, normalisation (a state's norm, a density
matrix's trace, a stochastic row, an isometry's ``V*V``), Hermiticity,
the spectral bounds of effects and positive semidefinite matrices, and
the square root's snap of eigenvalue dust to exact zeros.

``POST_EPS`` is the looser bound used after chains of floating-point
arithmetic: kernel membership (an eigenvalue of ``I - A`` counts as zero,
a fuzzy value as certain; ``linalg.kernel_band`` caps it at 0.5), the
tie-breaks of the kernel-basis gauge, round trips through spectra and
substitution chains, isometry admission.

The values are read at call time, so ``set_epsilon`` reaches every check;
it must only be used once, before any evaluation starts (the command line
runner does exactly that).
"""

import math

EPS = 1e-9
POST_EPS = 1e-8


def set_epsilon(eps: float) -> None:
    """Override the structural tolerance (and scale POST_EPS with it)."""
    global EPS, POST_EPS
    # every check reads "x > EPS", which is false for every x at nan and inf
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"tolerance must be positive and finite, got {eps}")
    EPS = eps
    POST_EPS = max(10.0 * eps, 1e-8)
