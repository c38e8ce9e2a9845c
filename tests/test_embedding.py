"""Each instance embeds into the next, and every operation commutes with it.

Classical into stochastic: a subset becomes its 0/1 fuzzy predicate, a
function the deterministic kernel of its table and a point its Dirac
distribution; the images agree exactly.  Stochastic into quantum, along
the diagonal: a fuzzy predicate p becomes diag(p), a distribution the
diagonal density matrix of its weights, and an injective function, as a
kernel, the isometry with columns e_f(x); these agree within the README's
1e-8 contract after chained arithmetic.

``EMBEDDINGS`` describes each pair once, and one check runs every shared
row of the scenario table (``scenario.OPERATIONS``) on both sides, with
comprehension and measurement, in each drawn example.  Two more checks per
pair hold that the embedding is a map of effect algebras (truth, falsity
and the complement) that keeps each state's probabilities (``xi``).
"""

import functools
import itertools
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectlogic import config, quantum, scenario, stochastic
from effectlogic.classical import BoolPredicate, FinMap, range_finset
from effectlogic.instances import INSTANCES
from effectlogic.quantum import DensityMatrix, Isometry, QPredicate
from effectlogic.scenario import Element
from effectlogic.stochastic import Distribution, FuzzyPredicate, StochasticMap
from test_shared_laws import STATES

TOL = 1e-8

# the operands of each shared operation, named as in a drawn case; a shared
# row added to the scenario table needs its operands here
OPERANDS = {"substitute": ("f", "r"), "andthen": ("p", "q"), "then": ("p", "q"),
            "orthosum": ("p", "q"), "multiply": ("s", "p")}

unit = st.floats(0.0, 1.0)


@st.composite
def subsets_case(draw):
    """Subsets p, q of X, a function f: X -> Y, a subset r of Y, a point of X."""
    def subset(c):
        return BoolPredicate(c, frozenset(draw(st.sets(st.integers(0, c.size - 1)))))

    x, y = (range_finset(draw(st.integers(1, 6))) for _ in range(2))
    table = draw(st.lists(st.integers(0, y.size - 1), min_size=x.size, max_size=x.size))
    return dict(p=subset(x), q=subset(x), f=FinMap(x, y, tuple(table)), r=subset(y),
                state=Element(x, draw(st.integers(0, 5)) % x.size))


@st.composite
def fuzzy_case(draw):
    """The same with fuzzy predicates, a scalar s, an injective f as its
    kernel, and a distribution on X (None where the weights vanish)."""
    def fuzzy(c):
        return FuzzyPredicate(c, draw(st.lists(unit, min_size=c.size, max_size=c.size)))

    n = draw(st.integers(1, 5))
    x, y = range_finset(n), range_finset(draw(st.integers(n, 5)))
    f = stochastic.deterministic(draw(st.permutations(range(y.size)))[:n], x, y)
    weights = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    state = Distribution(x, weights / weights.sum()) if weights.sum() > 1e-3 else None
    return dict(p=fuzzy(x), q=fuzzy(x), s=draw(unit), f=f, r=fuzzy(y), state=state)


def exact(a, b) -> bool:
    """Equal stochastic values: the same type, carriers and entries."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(vars(a).values(), vars(b).values()))


# what must agree of each quantum value: a predicate's left part, an
# isometry's image (its basis is free), and a measured state's weights
# (measurement keeps the two branches coherent, a kernel does not)
VIEWS = {QPredicate: lambda v: v.matrix,
         Isometry: lambda v: v.matrix @ v.matrix.conj().T,
         DensityMatrix: lambda v: np.diag(v.matrix)}


def close(a, b) -> bool:
    x, y = VIEWS[type(a)](a), VIEWS[type(b)](b)
    return x.shape == y.shape and float(np.max(np.abs(x - y), initial=0.0)) < TOL


class Embedding(NamedTuple):
    """One instance inside the next: the image of each source type, when two
    target values agree, and whether p + q lies too near the bound of the
    sum for its definedness to be compared."""

    images: dict[type, Callable]
    same: Callable
    undecided: Callable = lambda p, q: False


EMBEDDINGS = {
    ("classical", "stochastic"): Embedding({
        BoolPredicate: lambda p: FuzzyPredicate(p.carrier, [p.holds(i) for i in range(p.carrier.size)]),
        FinMap: lambda f: stochastic.deterministic(f.table, f.source, f.target),
        Element: lambda x: stochastic.dirac(x.carrier, x.index),
    }, exact),
    ("stochastic", "quantum"): Embedding({
        FuzzyPredicate: lambda p: QPredicate(np.diag(p.values)),
        StochasticMap: lambda f: Isometry(f.matrix.T),
        Distribution: lambda m: DensityMatrix(np.diag(m.weights)),
    }, close, lambda p, q: abs(np.max(p.values + q.values) - (1.0 + config.EPS)) <= TOL),
}


def covered(pair) -> list[str]:
    """The shared operations the check runs: those the source answers too."""
    return [kind for kind in OPERANDS if kind in scenario.OPERATIONS[pair[0]]]


def inclusion(name: str, p):
    out = INSTANCES[name].module.comprehension(p)
    return out[1] if isinstance(out, tuple) else out


def embed(pair, value):
    """The image of a value along the pair's embedding; a scalar is itself."""
    images = EMBEDDINGS[pair].images
    return images[type(value)](value) if type(value) in images else value


def check_commutes(pair, case: dict) -> None:
    """Embedding the result of each shared operation, of comprehension and
    of measurement gives the result on the embedded operands."""
    source, target = pair
    e = EMBEDDINGS[pair]
    lift = functools.partial(embed, pair)
    for kind in covered(pair):
        if kind == "orthosum" and e.undecided(case["p"], case["q"]):
            continue  # definedness may go either way within the tolerance
        args = [case[name] for name in OPERANDS[kind]]
        image = scenario.OPERATIONS[source][kind][1](*args)
        direct = scenario.OPERATIONS[target][kind][1](*map(lift, args))
        assert (image is None) == (direct is None), kind
        assert image is None or e.same(lift(image), direct), kind
    p, state = case["p"], case["state"]
    assert e.same(lift(inclusion(source, p)), inclusion(target, lift(p)))
    if state is not None:
        measured = STATES[target][1](lift(p), lift(state))
        assert e.same(lift(STATES[source][1](p, state)), measured)


@settings(max_examples=200, deadline=None)
@given(subsets_case())
def test_classical_into_stochastic(case):
    check_commutes(("classical", "stochastic"), case)


@settings(max_examples=200, deadline=None)
@given(fuzzy_case())
def test_stochastic_into_quantum(case):
    check_commutes(("stochastic", "quantum"), case)


@pytest.mark.parametrize("pair", EMBEDDINGS, ids="-".join)
def test_truth_and_falsity_embed(pair):
    # an embedding is a map of effect algebras: it keeps the unit and the zero
    src, tgt = (INSTANCES[name] for name in pair)
    for n, constant in itertools.product(range(1, 7), ("truth", "falsity")):
        image = embed(pair, getattr(src.module, constant)(src.space(n)))
        assert EMBEDDINGS[pair].same(image, getattr(tgt.module, constant)(tgt.space(n)))


@pytest.mark.parametrize("pair", EMBEDDINGS, ids="-".join)
def test_complement_and_probability_commute(pair):
    # an embedded state gives an embedded predicate the probability the state
    # gives the predicate (exact for points, whose probabilities are 0 or 1)
    (source, target), same = pair, EMBEDDINGS[pair].same
    src, tgt, rng = INSTANCES[source], INSTANCES[target], np.random.default_rng(67)
    for _ in range(200):
        space = src.space(int(rng.integers(1, 7)))
        p, state = src.random_predicate(rng, space), STATES[source][0](rng, space)
        assert same(embed(pair, src.complement(p)), tgt.complement(embed(pair, p)))
        gap = STATES[target][2](embed(pair, state))(embed(pair, p)) - STATES[source][2](state)(p)
        assert abs(gap) <= (0.0 if same is exact else TOL)


@pytest.mark.parametrize("pair", EMBEDDINGS, ids="-".join)
def test_every_shared_operation_is_checked(pair):
    source, target = pair
    shared = scenario._shared_rows(INSTANCES[target])
    assert set(covered(pair)) == set(shared) & set(scenario.OPERATIONS[source])


@pytest.mark.parametrize("value,size", [(1.0, 1), (1.0 - 5e-9, 1), (1.0 - 2e-8, 0)])
def test_comprehension_band_edge(value, size):
    # both instances count a value within POST_EPS of 1 as certain
    p = FuzzyPredicate(range_finset(2), [value, 0.3])
    sub, _ = stochastic.comprehension(p)
    assert sub.size == size
    diagonal = EMBEDDINGS["stochastic", "quantum"].images[FuzzyPredicate]
    assert quantum.comprehension(diagonal(p)).matrix.shape == (2, size)
