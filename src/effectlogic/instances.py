"""The three instances, each described once; the scenario's shared query
rows, the selftest and the shared-law tests are built from these records,
and ``check_laws`` is the one body of the laws the selftest and the tests
both run.  A record holds what the modules spell differently.  It and the
shared operations, ``record.module.<name>``, reach the library at call
time, so a caller that rebinds a module's functions sees every call."""

from dataclasses import dataclass
from types import ModuleType
from typing import Callable

import numpy as np

from . import classical, quantum, stochastic


def _within(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) < tol


@dataclass(frozen=True)
class Instance:
    """An instance of ``p: X -> X + X`` with ``[id, id] . p = id``."""

    module: ModuleType
    predicate: type
    map: type
    classifier: Callable  # p -> char_p, with char_p*(Omega) = p
    close: Callable  # (p, q, tol) -> equal, exactly (subsets) or within tol
    random_predicate: Callable  # (rng, space) -> a predicate on the space
    space: Callable = lambda n: classical.range_finset(n)  # n points or dimensions
    complement: Callable = lambda p: p.complement()


INSTANCES: dict[str, Instance] = {
    "classical": Instance(
        classical, classical.BoolPredicate, classical.FinMap,
        classifier=lambda p: classical.predicate_as_map(p),
        close=lambda p, q, tol: p == q,
        random_predicate=lambda rng, c: classical.BoolPredicate(
            c, frozenset(np.flatnonzero(rng.random(c.size) < 0.5).tolist())),
    ),
    "stochastic": Instance(
        stochastic, stochastic.FuzzyPredicate, stochastic.StochasticMap,
        classifier=lambda p: stochastic.predicate_as_map(p),
        close=lambda p, q, tol: _within(p.values, q.values, tol),
        random_predicate=lambda rng, c: stochastic.FuzzyPredicate(c, rng.uniform(size=c.size)),
    ),
    "quantum": Instance(
        quantum, quantum.QPredicate, quantum.Isometry,
        classifier=lambda p: quantum.char_sqrt(p),
        close=lambda p, q, tol: _within(p.matrix, q.matrix, tol),
        random_predicate=lambda rng, n: quantum.random_predicate(rng, n),
        space=lambda n: n,
        complement=lambda p: p.perp(),
    ),
}


def check_laws(record: Instance, rng, cases: int, tol: float) -> int:
    """On random predicates: char_p*(Omega) = p; p + p' = 1, p'' = p, and p + 1
    is defined only for p = 0; then(p, q) = (andthen(p, q'))' within 1e-12.
    Where there are pure states, the two routes of the probability rule
    agree.  Returns the number of laws checked."""
    m, close, perp = record.module, record.close, record.complement
    for _ in range(cases):
        space = record.space(int(rng.integers(1, 7)))
        p, q = record.random_predicate(rng, space), record.random_predicate(rng, space)
        assert close(m.substitute(record.classifier(p), m.omega_predicate(space)), p, tol)
        complemented = m.orthosum(p, perp(p))
        assert complemented is not None and close(complemented, m.truth(space), tol)
        assert close(perp(perp(p)), p, tol)
        assert m.orthosum(p, m.truth(space)) is None or close(p, m.falsity(space), tol)
        assert close(m.test_then(p, q), perp(m.test_andthen(p, perp(q))), 1e-12)
        if hasattr(m, "born_spectral"):
            x = m.random_pure_state(rng, space)
            assert abs(m.born_probability(x, p) - m.born_spectral(x, p)) < tol
    return cases * (4 if hasattr(m, "born_spectral") else 3)
