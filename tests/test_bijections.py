import itertools
import random

import pytest

from clustercomb.angulations import MAngulation, canonical_rotation, colour_from_seed
from clustercomb.bijections import (
    PlaneTree,
    RootedTree,
    angulation_to_tree,
    diagram_to_forest,
    family_chain,
    forest_to_diagram,
    labelled_angulation_to_tree,
    labelled_tree_to_labelled_angulation,
    labelled_tree_to_rooted_angulation,
    rooted_to_tree,
    sigma_decompose,
    sigma_recombine,
    tree_to_angulation,
    tree_to_rooted,
    vertex1_decompose,
    vertex1_recombine,
)
from clustercomb.core import (
    CircularOrder,
    ColouredForest,
    ColouredTree,
    canonical_unlabelled,
    circular_order,
    relabel,
    validate_tree,
)
from clustercomb.counting import (
    enumerate_angulations,
    enumerate_diagrams,
    enumerate_trees,
    s_count,
    t_count,
)
from clustercomb.diagrams import RnaDiagram, is_connected, is_noncrossing
from clustercomb.errors import (
    ConditionAViolated,
    ConditionBViolated,
    MalformedJSON,
    NotInFamily,
    WrongCircularOrder,
    WrongObjectType,
)
from clustercomb.verify import bijection_suite


def descending_trees(k, m):
    return enumerate_trees(k, m, CircularOrder.descending(k))


# -- diagrams <-> forests ----------------------------------------------------------


def test_diagram_to_forest_empty():
    d = RnaDiagram(3, 3, ())
    f = diagram_to_forest(d)
    assert f.edges == () and f.k == 3


def test_diagram_to_forest_known_arcs():
    # a diagram whose vertex 10 carries arcs to 9 on S_1 and to 8 on S_4
    d = RnaDiagram(10, 4, (((9, 1), (10, 1)), ((8, 4), (10, 4))))
    assert is_noncrossing(d)
    f = diagram_to_forest(d)
    assert (9, 10, 1) in f.edges and (8, 10, 4) in f.edges


def test_forest_to_diagram_condition_a_violation():
    # components {1,3} and {2,4} interleave: 4 > 3 > 2 > 1
    f = ColouredForest(4, 3, ((1, 3, 1), (2, 4, 1)))
    with pytest.raises(ConditionAViolated):
        forest_to_diagram(f)


def test_forest_to_diagram_condition_b_violation():
    f = ColouredForest(3, 3, ((1, 2, 1), (1, 3, 2)))
    # sigma(1) = 2 but the largest vertex of the component is 3
    with pytest.raises(ConditionBViolated):
        forest_to_diagram(f)


def test_diagram_forest_round_trips():
    # m = 3 and 4 are in the bijection suite; it cannot take m < 3
    for k in range(1, 5):
        for m in (1, 2):
            for d in enumerate_diagrams(k, m, noncrossing_only=True):
                f = diagram_to_forest(d)
                assert forest_to_diagram(f) == d


def test_pi_relabelled_condition_b():
    # arbitrary vertex orders: with positions permuted by pi, sigma maps
    # pi(a) to pi(a') for a' the previous position in the same component
    rng = random.Random(11)
    for _ in range(3):
        pi = list(range(1, 5))
        rng.shuffle(pi)
        pmap = dict(zip(range(1, 5), pi))
        conn = 0
        for d in enumerate_diagrams(4, 3, noncrossing_only=True):
            f = diagram_to_forest(d)
            g = relabel(f, pmap)
            sigma = circular_order(g)
            comp_of = {}
            for comp in g.components():
                for v in comp:
                    comp_of[v] = comp
            for a in range(1, 5):
                comp = comp_of[pmap[a]]
                lower = [b for b in range(1, a) if pmap[b] in comp]
                want = pmap[max(lower)] if lower else pmap[max(b for b in range(1, 5) if pmap[b] in comp)]
                assert sigma(pmap[a]) == want
            if is_connected(d):
                conn += 1
        assert conn == t_count(4, 3)


# -- trees <-> rooted trees ---------------------------------------------------------


def test_tree_rooted_round_trip_small():
    t1 = validate_tree([], 1, 3)
    assert rooted_to_tree(tree_to_rooted(t1)) == t1
    t2 = validate_tree([(1, 2, 1)], 2, 3)
    r = tree_to_rooted(t2)
    assert rooted_to_tree(r) == t2


def test_tree_rooted_requires_descending_order():
    t = validate_tree([(1, 2, 2)], 2, 3)
    assert circular_order(t) == CircularOrder.descending(2)
    tree_to_rooted(t)
    bad = validate_tree([(1, 3, 1), (2, 3, 2)], 3, 3)
    if circular_order(bad) != CircularOrder.descending(3):
        with pytest.raises(WrongCircularOrder):
            tree_to_rooted(bad)


def test_tree_rooted_round_trips_exhaustive():
    # k <= 4 is in the bijection suite
    for t in descending_trees(5, 3):
        assert rooted_to_tree(tree_to_rooted(t)) == t


def test_rooted_count_matches_t():
    # rooted m-edge-coloured trees are equinumerous with descending-order trees
    for k in range(1, 5):
        rooted = {tree_to_rooted(t) for t in descending_trees(k, 3)}
        assert len(rooted) == t_count(k, 3)


# -- trees <-> angulations -----------------------------------------------------------


def test_tree_angulation_small():
    single = canonical_unlabelled(validate_tree([], 1, 4))
    cang = tree_to_angulation(single)
    assert cang.ang.k == 1 and cang.ang.n == 4
    pair = canonical_unlabelled(validate_tree([(1, 2, 1)], 2, 3))
    cang = tree_to_angulation(pair)
    assert cang.ang.k == 2
    d = cang.ang.diagonals[0]
    assert cang.colour[d] == 1  # the shared diagonal keeps the edge colour


def test_angulation_tree_round_trips():
    for k in range(1, 5):
        for ang in enumerate_angulations(k, 3):
            for c in (1, 2, 3):
                cang = canonical_rotation(colour_from_seed(ang, (1, 2), c))
                assert tree_to_angulation(angulation_to_tree(cang)) == cang


def test_unlabelled_trees_equinumerous_with_rotation_classes():
    # two completely independent canonicalizations count the same classes:
    # unlabelled trees on one side, coloured angulations up to rotation on
    # the other
    for k, m in ((1, 3), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4)):
        shapes = {canonical_unlabelled(t) for t in enumerate_trees(k, m)}
        orbits = {
            canonical_rotation(colour_from_seed(ang, (1, 2), c)).to_json()
            for ang in enumerate_angulations(k, m)
            for c in range(1, m + 1)
        }
        assert len(shapes) == len(orbits)
        # and the bijection matches them one-to-one
        assert {tree_to_angulation(u).to_json() for u in shapes} == orbits


def test_labelled_tree_rooted_angulation_sizes():
    # a 10-vertex 4-coloured tree maps to a rooted 4-angulation of a 22-gon
    line = [(v, v + 1, 1 if v % 2 else 2) for v in range(1, 10)]
    rooted = RootedTree.from_tree(ColouredTree(10, 4, tuple(line)), 1)
    t = rooted_to_tree(rooted)
    ra = labelled_tree_to_rooted_angulation(t)
    assert ra.base.ang.n == 22 and ra.base.ang.k == 10


def test_labelled_tree_labelled_angulation_round_trips():
    for k in range(1, 4):
        for t in enumerate_trees(k, 3):
            la = labelled_tree_to_labelled_angulation(t)
            assert labelled_angulation_to_tree(la) == t


# -- the six families -----------------------------------------------------------------


def family2_members(k, m):
    out = []
    for t in enumerate_trees(k + 1, m, CircularOrder.descending(k + 1)):
        top = t.adjacency[k + 1]
        if len(top) == 1 and 1 in top:
            out.append(t)
    return out


def plane_trees(k, m):
    """Independent generator of the Łukasiewicz words of the complete
    (m-1)-ary plane trees with k internal vertices: the root's arity m-1,
    then its children's words in order."""
    if k == 0:
        yield (0,)
        return
    for split in itertools.product(range(k), repeat=m - 1):
        if sum(split) != k - 1:
            continue
        for children in itertools.product(*(list(plane_trees(s, m)) for s in split)):
            yield (m - 1,) + sum(children, ())


def test_family_chain_k1_full_cycle():
    t = family2_members(1, 3)[0]
    d = family_chain(t, 2, 1)
    assert family_chain(d, 1, 2) == t
    ang = family_chain(t, 2, 4)
    assert ang.k == 1
    p = family_chain(t, 2, 6)
    assert p.internal_count() == 1
    assert family_chain(p, 6, 2) == t


def test_family_sizes_agree_with_independent_generators():
    for m, kmax in ((3, 4), (4, 4), (5, 2)):
        for k in range(1, kmax + 1):
            f2 = family2_members(k, m)
            f4 = list(enumerate_angulations(k, m))
            # the image of family (2) is all of family (6), not just as many
            f6 = {family_chain(t, 2, 6) for t in f2}
            assert f6 == {PlaneTree(m, w) for w in plane_trees(k, m)}
            assert len(f2) == len(f4) == len(f6) == s_count(k, m)


def test_family_chain_deep_fan_round_trip():
    # the 10 000-face m = 3 fan: its plane tree is a 10 000-deep right comb
    k = 10_000
    fan = MAngulation(3, k, tuple((1, v) for v in range(3, k + 2)))
    plane = family_chain(fan, 4, 6)
    assert plane.word == (2,) * k + (0,) * (k + 1)
    assert family_chain(plane, 6, 4) == fan


_NOT_A_PLANE_TREE = "object is not in family (6): not a complete (m-1)-ary plane tree"
PLANE_WORDS = [
    ("empty word", '{"m":3,"word":[]}', NotInFamily, _NOT_A_PLANE_TREE),
    ("entry outside 0, m-1", '{"m":3,"word":[2,1,0,0]}', NotInFamily, _NOT_A_PLANE_TREE),
    ("closes early", '{"m":3,"word":[2,0,0,0]}', NotInFamily, _NOT_A_PLANE_TREE),
    ("closes early, count back at 0", '{"m":3,"word":[2,0,0,2,0]}', NotInFamily,
     _NOT_A_PLANE_TREE),
    ("never closes", '{"m":3,"word":[2,0]}', NotInFamily, _NOT_A_PLANE_TREE),
    ("leaf root", '{"m":3,"word":[0]}', NotInFamily, _NOT_A_PLANE_TREE),
    ("m = 0", '{"m":0,"word":[-1]}', NotInFamily, _NOT_A_PLANE_TREE),
    ("m = -1", '{"m":-1,"word":[-2,0]}', NotInFamily, _NOT_A_PLANE_TREE),
    ("bool entry", '{"m":3,"word":[2,true,0]}', MalformedJSON,
     '"word" must be a list of integers, got [2, True, 0]'),
    ("float entry", '{"m":3,"word":[2,2.5,0]}', MalformedJSON,
     '"word" must be a list of integers, got [2, 2.5, 0]'),
    ("string entry", '{"m":3,"word":["2",0,0]}', MalformedJSON,
     "\"word\" must be a list of integers, got ['2', 0, 0]"),
    ("word not a list", '{"m":3,"word":2}', MalformedJSON,
     '"word" must be a list of integers, got 2'),
    ("string m", '{"m":"3","word":[2,0,0]}', MalformedJSON, '"m" must be an integer, got \'3\''),
]


@pytest.mark.parametrize("name,text,error,message", PLANE_WORDS, ids=[c[0] for c in PLANE_WORDS])
def test_plane_word_error_class_and_message(name, text, error, message):
    with pytest.raises(error) as err:
        PlaneTree.from_json(text)
    assert type(err.value) is error and str(err.value) == message


def test_plane_word_m1_and_json_round_trip():
    # at m = 1 every node is internal with no children: the one member is (0,)
    assert PlaneTree(1, (0,)).internal_count() == 1
    with pytest.raises(NotInFamily):
        PlaneTree(1, (0, 0))
    p = PlaneTree(3, [2, 2, 0, 0, 0])
    assert p.word == (2, 2, 0, 0, 0) and PlaneTree.from_json(p.to_json()) == p


def test_family_m3_k3_has_five_members():
    members = family2_members(3, 3)
    assert len(members) == s_count(3, 3) == 5
    angs = {family_chain(t, 2, 4).to_json() for t in members}
    assert len(angs) == 5


def test_family_validators_reject():
    t = validate_tree([(1, 2, 2)], 2, 3)  # leaf edge coloured S_2, not S_1
    with pytest.raises(NotInFamily):
        family_chain(t, 2, 3)


@pytest.mark.parametrize("k,m", [(2, 5), (2, 6), (2, 7)])
def test_bijection_suite_generic_m(k, m):
    # the generic-m code paths: (m-2)-ary plane trees, m-gon faces; the
    # acceptance tests take m = 3, 4
    for name, ok, detail in bijection_suite(k, m):
        assert ok, f"{name}: {detail}"


# -- recursion bijections ---------------------------------------------------------------


def test_vertex1_decompose_examples():
    single = RnaDiagram(1, 3, ())
    tag, ext = vertex1_decompose(single)
    assert tag == "extend" and ext.k == 2
    assert vertex1_recombine((tag, ext)) == single

    pair = RnaDiagram(2, 3, (((1, 1), (2, 1)),))
    tag, parts = vertex1_decompose(pair)
    assert tag == "split"
    left, right = parts
    assert left.k == 2 and right.k == 2
    assert vertex1_recombine((tag, parts)) == pair


def test_vertex1_decompose_round_trips_and_counts():
    import collections

    for k in range(1, 6):
        by_v = collections.Counter()
        for d in enumerate_diagrams(k, 3, connected_only=True, noncrossing_only=True):
            val = vertex1_decompose(d)
            assert vertex1_recombine(val) == d
            by_v[1 if val[0] == "extend" else val[1][0].k] += 1
        # each branch reproduces one term of T_k = sum_v S_{v-1} S_{k+1-v}
        for v in range(1, k + 1):
            assert by_v[v] == s_count(v - 1, 3) * s_count(k + 1 - v, 3)
        assert sum(by_v.values()) == t_count(k, 3)


_ONE, _TWO = RnaDiagram(1, 3, ()), RnaDiagram(2, 3, (((1, 1), (2, 1)),))


@pytest.mark.parametrize("value", [("x", 1), ("extend", 1), ("extend", (_TWO,)), ("split", _TWO),
                                   ("split", (_TWO,)), ("split", (_TWO, _TWO, _TWO)),
                                   ("split", (_TWO, "x")), ("extend",), 5, None, "ab"])
def test_vertex1_recombine_refuses_what_decompose_never_returns(value):
    # ("x", 1) raised a bare TypeError while unpacking the payload
    with pytest.raises(WrongObjectType, match="^need"):
        vertex1_recombine(value)
    assert vertex1_recombine(["split", [_TWO, _TWO]]) == vertex1_recombine(("split", (_TWO, _TWO)))


@pytest.mark.parametrize("parts", [[], (), 3, None, "abc", [_ONE], [_ONE, _ONE], (_ONE, "x", _ONE)])
def test_sigma_recombine_refuses_what_decompose_never_returns(parts):
    # [] raised VertexOutOfRange about "m", a field the caller never gave;
    # the windows are m diagrams on m bases each
    with pytest.raises(WrongObjectType, match="^need m >= 1 diagrams"):
        sigma_recombine(parts)
    assert sigma_recombine([_ONE, _ONE, _ONE]) == _ONE


@pytest.mark.parametrize("decompose", [vertex1_decompose, sigma_decompose])
def test_decompositions_refuse_diagrams_outside_family_1(decompose):
    # every diagram at (3, 3) but the 9 connected noncrossing ones is
    # refused before any work as NotInFamily(1), not an InvariantBroken or
    # a result: 45 crossing ones, 33 of them connected, and 10 disconnected
    # noncrossing ones
    reasons = []
    for d in enumerate_diagrams(3, 3):
        if is_connected(d) and is_noncrossing(d):
            continue
        with pytest.raises(NotInFamily) as err:
            decompose(d)
        assert err.value.family == 1
        reasons.append((err.value.reason, is_connected(d)))
    assert reasons.count(("diagram is crossing", True)) == 33
    assert reasons.count(("diagram is crossing", False)) == 12
    assert reasons.count(("diagram is not connected", False)) == 10
    assert len(reasons) == 64 - 9


def test_sigma_decompose_examples():
    single = RnaDiagram(1, 3, ())
    parts = sigma_decompose(single)
    assert len(parts) == 3 and all(p.k == 1 for p in parts)

    pair = RnaDiagram(2, 2, (((1, 1), (2, 1)),))
    parts = sigma_decompose(pair)
    degrees = tuple(p.k for p in parts)
    assert sorted(degrees) == [1, 2]
    assert sigma_recombine(parts) == pair


def test_sigma_decompose_round_trips_and_histogram():
    import collections

    for k in range(1, 6):
        hist = collections.Counter()
        for d in enumerate_diagrams(k, 3, connected_only=True, noncrossing_only=True):
            parts = sigma_decompose(d)
            assert sigma_recombine(parts) == d
            for j, p in enumerate(parts, start=1):
                assert is_connected(p) and is_noncrossing(p)
                if p.k >= 2:
                    assert ((1, j), (p.k, j)) in p.arcs
            hist[tuple(p.k - 1 for p in parts)] += 1
        # every composition occurs once per product of the S counts
        total = 0
        for comp, cnt in hist.items():
            assert sum(comp) == k - 1
            expect = 1
            for kj in comp:
                expect *= s_count(kj, 3)
            assert cnt == expect
            total += cnt
        assert total == t_count(k, 3)
