"""Branching predicates over finite state spaces.

One predicate shape, three instances: subsets of a finite set, fuzzy
[0, 1]-valued predicates under stochastic maps, and effect pairs on a
finite-dimensional Hilbert space.  Each instance carries the same partial
sum, orthocomplement, scalar multiplication, substitution, sequential
tests and measurement; a table-based effect-algebra checker validates the
shared laws at desk scale.
"""

from . import classical, config, effect_algebra, linalg, quantum, scenario, stochastic

__all__ = ["classical", "config", "effect_algebra", "linalg", "quantum", "scenario", "stochastic"]
