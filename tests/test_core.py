import random

import pytest

from clustercomb.core import (
    CircularOrder,
    ColouredForest,
    ColouredTree,
    canonical_unlabelled,
    circular_order,
    is_k_cycle,
    maximal_chains,
    relabel,
    symbol_action,
    tree_to_dot,
    validate_forest,
    validate_tree,
)
from clustercomb.counting import enumerate_trees
from clustercomb.errors import (
    CycleDetected,
    DuplicateColourAtVertex,
    DuplicateEdge,
    NotConnected,
    VertexOutOfRange,
)


def test_validate_single_vertex():
    f = validate_forest([], 1, 3)
    assert f.k == 1 and f.edges == ()


def test_validate_duplicate_colour_at_vertex():
    with pytest.raises(DuplicateColourAtVertex) as err:
        validate_forest([(1, 2, 1), (1, 3, 1)], 3, 3)
    assert err.value.vertex == 1 and err.value.colour == 1
    with pytest.raises(DuplicateColourAtVertex) as err:
        validate_forest([(1, 2, 1), (2, 3, 1)], 3, 3)
    assert err.value.vertex == 2


def test_validate_cycle_vertex_range_duplicates():
    with pytest.raises(CycleDetected):
        validate_forest([(1, 2, 1), (2, 3, 2), (1, 3, 3)], 3, 3)
    with pytest.raises(VertexOutOfRange):
        validate_forest([(1, 4, 1)], 3, 3)
    with pytest.raises(DuplicateEdge):
        validate_forest([(1, 2, 1), (2, 1, 2)], 2, 3)
    with pytest.raises(NotConnected):
        validate_tree([(1, 2, 1)], 3, 3)


def test_symbol_action_examples():
    t = validate_tree([(1, 2, 1)], 2, 3)
    assert symbol_action(t, 1, 1) == 2
    assert symbol_action(t, 2, 1) == 1
    path = validate_tree([(1, 2, 1), (2, 3, 2)], 3, 3)
    assert symbol_action(path, 2, 2) == 3


def test_symbol_action_is_involution():
    for t in enumerate_trees(4, 3):
        for r in (1, 2, 3):
            for v in (1, 2, 3, 4):
                assert symbol_action(t, r, symbol_action(t, r, v)) == v


def test_circular_order_examples():
    single = validate_tree([], 1, 3)
    assert circular_order(single).perm == (1,)
    pair = validate_tree([(1, 2, 1)], 2, 3)
    assert circular_order(pair).perm == (2, 1)
    path = validate_tree([(1, 2, 1), (2, 3, 2)], 3, 3)
    sigma = circular_order(path)
    # composing the three symbol involutions by hand gives the cycle (1 3 2)
    assert sigma(1) == 3 and sigma(3) == 2 and sigma(2) == 1
    assert sigma == CircularOrder.descending(3)


def test_is_k_cycle():
    assert is_k_cycle(CircularOrder((1,)))
    assert not is_k_cycle(CircularOrder((2, 1, 4, 3)))
    for k in range(1, 5):
        for m in (2, 3, 4):
            for t in enumerate_trees(k, m):
                assert is_k_cycle(circular_order(t))


def test_maximal_chains_examples():
    path = validate_tree([(1, 2, 1), (2, 3, 2)], 3, 3)
    assert [c.vertices for c in maximal_chains(path, 1, 2)] == [(1, 2, 3)]
    assert sorted(c.vertices for c in maximal_chains(path, 1, 3)) == [(1, 2), (3,)]
    star = validate_tree([(1, 2, 1), (1, 3, 2), (1, 4, 3)], 4, 3)
    chains = {c.vertices for c in maximal_chains(star, 1, 2)}
    assert chains == {(2, 1, 3), (4,)}


def test_maximal_chains_partition():
    for t in enumerate_trees(5, 3):
        for i, j in ((1, 2), (1, 3), (2, 3)):
            chains = maximal_chains(t, i, j)
            verts = [v for c in chains for v in c.vertices]
            assert sorted(verts) == list(range(1, 6))


def _component_walk_chains(tree, i, j):
    """Reference: maximal chains found by collecting each component of the
    S_i/S_j subgraph and walking it from its smaller end."""
    nbrs = {v: [w for c in (i, j) if (w := tree.adjacency[v].get(c)) is not None]
            for v in range(1, tree.k + 1)}
    chains, seen = [], set()
    for v in range(1, tree.k + 1):
        if v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            for y in nbrs[stack.pop()]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        prev, cur = None, min(x for x in comp if len(nbrs[x]) <= 1)
        path = [cur]
        while nxt := [y for y in nbrs[cur] if y != prev]:
            prev, cur = cur, nxt[0]
            path.append(cur)
        chains.append(tuple(path))
    return sorted(chains)


@pytest.mark.parametrize("k,m", [(5, 3), (4, 4)])
def test_maximal_chains_match_component_walk(k, m):
    for t in enumerate_trees(k, m):
        for i in range(1, m):
            for j in range(i + 1, m + 1):
                got = maximal_chains(t, i, j)
                assert all((c.i, c.j) == (i, j) for c in got)
                assert [c.vertices for c in got] == _component_walk_chains(t, i, j)


def test_canonical_unlabelled():
    single = validate_tree([], 1, 3)
    assert canonical_unlabelled(single).tree == single
    a = validate_tree([(1, 2, 1)], 2, 3)
    b = validate_tree([(2, 1, 1)], 2, 3)
    assert canonical_unlabelled(a) == canonical_unlabelled(b)
    p = validate_tree([(1, 2, 1), (2, 3, 2)], 3, 3)
    q = validate_tree([(3, 2, 1), (2, 1, 2)], 3, 3)  # labels reversed
    assert canonical_unlabelled(p) == canonical_unlabelled(q)


def test_canonical_unlabelled_relabel_invariance():
    rng = random.Random(7)
    for t in list(enumerate_trees(5, 3))[::97]:
        u = canonical_unlabelled(t)
        assert canonical_unlabelled(u.tree) == u  # idempotent
        for _ in range(3):
            perm = list(range(1, 6))
            rng.shuffle(perm)
            mapped = relabel(t, dict(zip(range(1, 6), perm)))
            assert canonical_unlabelled(ColouredTree(t.k, t.m, mapped.edges)) == u


def test_canonical_unlabelled_separates_iso_classes():
    # brute-force isomorphism search agrees with the canonical form at k=4
    import itertools

    trees = list(enumerate_trees(4, 3))

    def isomorphic(a, b):
        for perm in itertools.permutations(range(1, 5)):
            mp = dict(zip(range(1, 5), perm))
            if sorted((min(mp[u], mp[v]), max(mp[u], mp[v]), c) for u, v, c in a.edges) == list(b.edges):
                return True
        return False

    sample = trees[::23]
    for a in sample:
        for b in sample:
            same = canonical_unlabelled(a) == canonical_unlabelled(b)
            assert same == isomorphic(a, b)


def test_json_round_trip():
    t = validate_tree([(1, 2, 1), (2, 3, 2)], 3, 3)
    assert ColouredTree.from_json(t.to_json()) == t
    f = validate_forest([(1, 2, 1)], 3, 3)
    assert ColouredForest.from_json(f.to_json()) == f


def test_tree_to_dot():
    t = validate_tree([(1, 2, 1)], 2, 3)
    dot = tree_to_dot(t)
    assert 'label="S1"' in dot and dot.startswith("graph")
