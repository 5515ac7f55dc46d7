"""The trust boundary: every tree an internal producer builds without
validation is the tree the validating constructor builds from its edges,
with the same slot table.

A trusted tree with unoriented or unsorted edges compares unequal to its
validated copy, and a slot table filled wrongly on first read differs from
the one validation fills."""
import itertools
import math

import pytest

from clustercomb.bijections import RootedTree, rooted_to_tree
from clustercomb.core import (
    ColouredTree,
    canonical_rooted,
    canonical_unlabelled,
    circular_order,
    maximal_chains,
)
from clustercomb.counting import enumerate_trees, t_count
from clustercomb.induction import apply_L, apply_R, normal_form, orbit


def _orbit_classes():
    for k, m in ((5, 3), (4, 4), (3, 5)):
        reps = {}
        for t in enumerate_trees(k, m):
            reps.setdefault(circular_order(t), t)
        assert len(reps) == math.factorial(k - 1)
        for t in reps.values():
            members = orbit(t)
            assert len(members) == t_count(k, m)
            yield from members


def _steps():
    for t in enumerate_trees(4, 3):
        for i, j in itertools.combinations(range(1, 4), 2):
            for c in maximal_chains(t, i, j):
                if len(c.vertices) > 1:
                    yield apply_R(t, c, i, j)
                    yield apply_L(t, c, i, j)


def _relabellings():
    for t in enumerate_trees(4, 3):
        for root in range(1, 5):
            yield canonical_rooted(t, root)
            yield rooted_to_tree(RootedTree.from_tree(t, root))


PRODUCERS = {
    "orbit": _orbit_classes,
    "enumerate_trees": lambda: enumerate_trees(4, 4),
    "apply_R/apply_L": _steps,
    "canonical_unlabelled": lambda: (canonical_unlabelled(t).tree for t in enumerate_trees(5, 3)),
    "canonical_rooted/rooted_to_tree": _relabellings,
    "normal_form": lambda: (normal_form(t)[0] for t in enumerate_trees(4, 4)),
}


@pytest.mark.parametrize("producer", PRODUCERS)
def test_trusted_trees_equal_their_validated_copies(producer):
    count = 0
    for t in PRODUCERS[producer]():
        assert type(t) is ColouredTree
        checked = ColouredTree(t.k, t.m, t.edges)
        assert checked == t, t.edges
        assert t.nbr == checked.nbr, t.edges
        count += 1
    assert count
