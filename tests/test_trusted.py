"""The trust boundary: every tree an internal producer builds without
validation is the tree the validating constructor builds from its edges,
with the same slot table; every angulation object one builds without
validation is the object its JSON text parses to, field by field.

A trusted tree with unoriented or unsorted edges compares unequal to its
validated copy, and a slot table filled wrongly on first read differs from
the one validation fills; so do trusted angulation fields out of order."""
import dataclasses
import itertools
import math
import random

import pytest

from clustercomb import angulations
from clustercomb.angulations import (
    ColouredAngulation,
    LabelledAngulation,
    RootedAngulation,
    all_colourings,
    canonical_rotation,
    colour_from_seed,
    find_snakes,
    induct_R_on_labelled_angulation,
    shift,
)
from clustercomb.bijections import RootedTree, labelled_tree_to_labelled_angulation, rooted_to_tree
from clustercomb.core import (
    ColouredTree,
    canonical_rooted,
    canonical_unlabelled,
    circular_order,
    maximal_chains,
)
from clustercomb.counting import enumerate_angulations, enumerate_trees, t_count
from clustercomb.induction import apply_L, apply_R, normal_form, orbit
from test_core import random_tree


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


def _angulation_corpus():
    """Every angulation at (<=5,3), (<=4,4) and (<=3,5) with every colouring,
    every root and one labelling, and seeded ones at k = 30..60, shifted."""
    for kmax, m in ((5, 3), (4, 4), (3, 5)):
        for k in range(1, kmax + 1):
            for ang in enumerate_angulations(k, m):
                yield ang
                for cang in all_colourings(ang):
                    yield cang
                    yield from (RootedAngulation(cang, f) for f in ang.faces)
                    yield LabelledAngulation(cang, tuple(zip(ang.faces, range(k, 0, -1))))
    rng = random.Random(30)
    for k, m in ((30, 3), (40, 4), (50, 5), (60, 3)):
        lang = labelled_tree_to_labelled_angulation(random_tree(rng, k, m))
        cang = colour_from_seed(shift(lang.base.ang, rng.randrange(lang.base.ang.n)), (1, 2), 1)
        yield from (cang.ang, cang, RootedAngulation(cang, rng.choice(cang.ang.faces)), lang)


def _colourings():
    rng = random.Random(31)
    for x in _angulation_corpus():
        if not isinstance(x, ColouredAngulation):
            continue
        yield from all_colourings(x.ang)
        yield colour_from_seed(x.ang, rng.choice(x.ang.edges()), rng.randint(1, x.m))


def _nontrivial_inductions():
    """Every snake induction on more than one face of the labelled
    angulations of 20 seeded trees at k = 40, m = 3, with its input's
    neighbour lists already built."""
    rng = random.Random(40)
    for _ in range(20):
        lang = labelled_tree_to_labelled_angulation(random_tree(rng, 40, 3))
        for i in (1, 2):
            for s in find_snakes(lang.base, i, i + 1):
                if len(s.faces) > 1:
                    yield lang, s, i


ANGULATION_PRODUCERS = {
    "canonical_rotation": lambda: map(canonical_rotation, _angulation_corpus()),
    "colour_from_seed/all_colourings": _colourings,
    "snake induction": lambda: (
        induct_R_on_labelled_angulation(*c) for c in _nontrivial_inductions()
    ),
}


def _assert_same_fields(x, y):
    assert type(x) is type(y)
    for f in dataclasses.fields(x):
        a, b = getattr(x, f.name), getattr(y, f.name)
        if dataclasses.is_dataclass(a):
            _assert_same_fields(a, b)
        else:
            assert type(a) is type(b) and a == b, (f.name, a, b)


@pytest.mark.parametrize("producer", ANGULATION_PRODUCERS)
def test_trusted_angulations_equal_their_parsed_copies(producer):
    count = 0
    for x in ANGULATION_PRODUCERS[producer]():
        _assert_same_fields(x, type(x).from_json(x.to_json()))
        count += 1
    assert count


def test_induction_builds_one_dissection(monkeypatch):
    # the result adopts the working copy of the neighbour lists, which reads
    # the same faces as lists built afresh from its parsed JSON
    builds, init = [], angulations._Dissection.__init__
    monkeypatch.setattr(
        angulations._Dissection, "__init__", lambda self, *a: builds.append(1) or init(self, *a)
    )
    count = 0
    for lang, s, i in _nontrivial_inductions():
        builds.clear()
        out = induct_R_on_labelled_angulation(lang, s, i)
        assert len(builds) == 1
        fresh = LabelledAngulation.from_json(out.to_json()).base.ang
        assert out.base.ang.faces == fresh.faces
        assert out.base.ang.diagonal_faces == fresh.diagonal_faces
        count += 1
    assert count >= 300


def test_trusted_angulation_out_of_order_is_unequal():
    cang = all_colourings(next(iter(enumerate_angulations(4, 3))))[0]
    scrambled = angulations._trusted(ColouredAngulation, ang=cang.ang, colours=cang.colours[::-1])
    assert scrambled != ColouredAngulation.from_json(scrambled.to_json()) == cang
