"""A carrier indexes its labels once, when it is built.

Looking a label up then compares it with about one other label, so
building a subset or a map over all n points makes O(n) label
comparisons; a scan of the label tuple makes about n^2 / 2.  The count
is taken with a label type that counts its own comparisons, not with a
clock.  The refusals the index must keep are pinned here with their
messages.
"""

import pytest

from effectlogic import scenario
from effectlogic.classical import BoolPredicate, FinMap, FinSet, range_finset


class CountingLabel(str):
    """A label that counts every equality test made on it."""

    comparisons = 0

    def __eq__(self, other):
        CountingLabel.comparisons += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


N = 512
SUBSET = scenario.CONSTRUCTORS["classical"]["subset"][1]
FINMAP = scenario.CONSTRUCTORS["classical"]["finmap"][1]


def counted_carrier(n: int) -> tuple[FinSet, list[CountingLabel]]:
    """A carrier of counting labels, and equal labels that are other objects,
    so that no lookup is settled by identity alone."""
    carrier = FinSet(tuple(CountingLabel(f"x{i}") for i in range(n)))
    return carrier, [CountingLabel(f"x{i}") for i in range(n)]


def test_subset_over_every_point_makes_linearly_many_comparisons():
    carrier, names = counted_carrier(N)
    CountingLabel.comparisons = 0
    p = SUBSET(carrier, *names)
    assert p.members == frozenset(range(N))
    assert CountingLabel.comparisons <= 2 * N  # a scan makes about N * N / 2


def test_finmap_over_every_point_makes_linearly_many_comparisons():
    carrier, names = counted_carrier(N)
    CountingLabel.comparisons = 0
    f = FINMAP(carrier, carrier, *reversed(names))
    assert f.table == tuple(range(N - 1, -1, -1))
    assert CountingLabel.comparisons <= 2 * N


def test_duplicate_labels_are_refused():
    with pytest.raises(ValueError, match="^carrier labels must be distinct$"):
        FinSet(("a", "b", "a"))


def test_unknown_label_is_named():
    c = FinSet(("a", "b"))
    with pytest.raises(ValueError, match="^no element 'c' in carrier$"):
        c.index_of("c")
    with pytest.raises(ValueError, match="^no element 'c' in carrier$"):
        SUBSET(c, "a", "c")


@pytest.mark.parametrize("index", [-1, 4])
def test_members_and_images_outside_the_carrier_are_refused(index):
    c = range_finset(4)
    with pytest.raises(ValueError, match="^member index out of range$"):
        BoolPredicate(c, frozenset({0, index}))
    with pytest.raises(ValueError, match="^image index out of range$"):
        FinMap(c, c, (0, 1, index, 3))


def test_fractional_members_and_images_are_refused():
    c = range_finset(4)
    with pytest.raises(ValueError, match="^member index must be an integer$"):
        BoolPredicate(c, frozenset({0.5}))
    with pytest.raises(ValueError, match="^image index must be an integer$"):
        FinMap(c, c, (0, 1, 1.5, 3))
