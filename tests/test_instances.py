"""The three instances share one interface.

Every operation on predicates takes and returns the instance's own
predicate type, so any result can be fed back into any operation: a
subset under functions, a fuzzy predicate under stochastic maps, a
``QPredicate`` under isometries.
"""

import numpy as np
import pytest

from effectlogic import classical, quantum, stochastic
from effectlogic.classical import BoolPredicate, FinMap, range_finset
from effectlogic.quantum import Effect, Isometry, QPredicate
from effectlogic.stochastic import FuzzyPredicate, StochasticMap


def classical_operands():
    c = range_finset(3)
    return (FinMap(c, c, (1, 2, 0)),
            BoolPredicate(c, frozenset({0})), BoolPredicate(c, frozenset({1, 2})))


def stochastic_operands():
    c = range_finset(2)
    return (StochasticMap(c, c, np.array([[0.5, 0.5], [0.25, 0.75]])),
            FuzzyPredicate(c, np.array([0.5, 0.25])), FuzzyPredicate(c, np.array([0.25, 0.5])))


def quantum_operands():
    return (Isometry(quantum.HADAMARD),
            QPredicate(Effect(np.diag([0.5, 0.25]))),
            QPredicate(Effect(np.array([[0.25, 0.125], [0.125, 0.25]]))))


def apply_all(module, f, p, q) -> dict:
    """Each predicate operation of an instance, once, on the given operands."""
    out = {
        "test_andthen": module.test_andthen(p, q),
        "test_then": module.test_then(p, q),
        "orthosum": module.orthosum(p, q),
        "substitute": module.substitute(f, q),
    }
    if hasattr(module, "probability_multiply"):
        out["probability_multiply"] = module.probability_multiply(0.5, p)
    return out


@pytest.mark.parametrize("module,predicate_type,operands", [
    (classical, BoolPredicate, classical_operands),
    (stochastic, FuzzyPredicate, stochastic_operands),
    (quantum, QPredicate, quantum_operands),
], ids=["classical", "stochastic", "quantum"])
def test_every_operation_returns_a_predicate_it_accepts(module, predicate_type, operands):
    f, p, q = operands()
    for name, result in apply_all(module, f, p, q).items():
        assert isinstance(result, predicate_type), name
        for again, value in apply_all(module, f, result, result).items():
            # a sum of a predicate with itself may be undefined
            assert isinstance(value, predicate_type) or (again == "orthosum" and value is None), \
                (name, again)
