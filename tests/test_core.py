import dataclasses
import math
import random
from fractions import Fraction

import pytest

from clustercomb.core import (
    Chain,
    CircularOrder,
    ColouredForest,
    ColouredTree,
    _canonical_walk,
    _centroids,
    canonical_rooted,
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
from clustercomb.counting import enumerate_trees, u_count
from clustercomb.errors import (
    CycleDetected,
    DuplicateColourAtVertex,
    DuplicateEdge,
    MalformedJSON,
    NotConnected,
    VertexOutOfRange,
)


def random_tree(rng, k, m):
    """A seeded properly m-coloured tree on 1..k: each vertex attaches to a
    random earlier one through a colour still free there, then the labels
    are shuffled."""
    used = [set() for _ in range(k + 1)]
    edges = []
    for v in range(2, k + 1):
        while True:
            u = rng.randrange(1, v)
            free = [c for c in range(1, m + 1) if c not in used[u]]
            if free:
                break
        c = rng.choice(free)
        used[u].add(c)
        used[v].add(c)
        edges.append((u, v, c))
    perm = list(range(1, k + 1))
    rng.shuffle(perm)
    return ColouredTree(k, m, tuple((perm[u - 1], perm[v - 1], c) for u, v, c in edges))


# Each malformed input with the error class and message that validation
# gives it; the checks run in a fixed order over the sorted edges.
MALFORMED = [
    ("loop", 3, 3, [(2, 2, 1)], DuplicateEdge, "loop at vertex 2"),
    ("vertex above k", 3, 3, [(1, 4, 1)], VertexOutOfRange, "edge (1,4) outside 1..3"),
    ("vertex 0", 3, 3, [(0, 2, 1)], VertexOutOfRange, "edge (0,2) outside 1..3"),
    ("colour above m", 3, 3, [(1, 2, 4)], VertexOutOfRange, "colour S_4 outside S_1..S_3"),
    ("colour 0", 3, 3, [(1, 2, 0)], VertexOutOfRange, "colour S_0 outside S_1..S_3"),
    ("k below 1", 0, 3, [], VertexOutOfRange, "k must be >= 1, got 0"),
    ("m below 1", 2, 0, [(1, 2, 1)], VertexOutOfRange, "m must be >= 1, got 0"),
    # refused before a slot table of m + 1 slots per vertex is allocated
    ("m above the palette bound", 3, 2_000_000, [(1, 2, 1), (2, 3, 2)], VertexOutOfRange,
     "m must be <= 1000, got 2000000"),
    # and so is a table of (k + 1)(m + 1) slots above the slot bound
    ("k above the slot bound", 2_000_000, 3, [], VertexOutOfRange,
     "k = 2000000 at m = 3 needs 8000004 slots, more than 1000000"),
    ("m above the palette bound with k also too large", 2_000_000, 1001, [], VertexOutOfRange,
     "m must be <= 1000, got 1001"),
    ("pair twice, two colours", 3, 3, [(1, 2, 1), (2, 1, 2)], DuplicateEdge,
     "edge (1,2) appears twice"),
    ("pair twice, one colour", 3, 3, [(1, 2, 1), (1, 2, 1)], DuplicateEdge,
     "edge (1,2) appears twice"),
    ("pair three times", 3, 3, [(1, 2, 1), (1, 2, 3), (1, 2, 2)], DuplicateEdge,
     "edge (1,2) appears twice"),
    ("twin pair apart in input order", 5, 3, [(4, 5, 1), (1, 2, 3), (3, 4, 2), (2, 1, 2)],
     DuplicateEdge, "edge (1,2) appears twice"),
    ("colour twice at u", 3, 3, [(1, 2, 1), (1, 3, 1)], DuplicateColourAtVertex,
     "vertex 1 has two edges coloured S_1"),
    ("colour twice at v", 3, 3, [(1, 3, 1), (2, 3, 1)], DuplicateColourAtVertex,
     "vertex 3 has two edges coloured S_1"),
    ("cycle", 3, 3, [(1, 2, 1), (2, 3, 2), (1, 3, 3)], CycleDetected,
     "edge (2,3) closes a cycle"),
    ("too few edges for a tree", 4, 3, [(1, 2, 1), (3, 4, 1)], NotConnected,
     "tree on 4 vertices needs 3 edges, got 2"),
    # several faults: the first in sorted edge order, then check order, wins
    ("loop and colour out of range", 4, 3, [(3, 3, 7), (1, 2, 1)], DuplicateEdge,
     "loop at vertex 3"),
    ("twin of a pair with its colour out of range", 3, 3, [(1, 2, 1), (1, 2, 9)],
     VertexOutOfRange, "colour S_9 outside S_1..S_3"),
    ("pair twice after a colour clash", 4, 3, [(2, 3, 1), (1, 2, 1), (2, 3, 2)],
     DuplicateColourAtVertex, "vertex 2 has two edges coloured S_1"),
    ("colour clash before a cycle", 4, 3, [(1, 2, 1), (2, 3, 2), (1, 3, 2), (3, 4, 5)],
     DuplicateColourAtVertex, "vertex 3 has two edges coloured S_2"),
    ("cycle before an out-of-range vertex", 5, 3, [(1, 2, 1), (2, 3, 2), (1, 3, 3), (4, 9, 1)],
     CycleDetected, "edge (2,3) closes a cycle"),
    # not integers: refused as at the JSON boundary, not truncated by int()
    ("float vertex", 2, 3, [(1, 2.7, 1)], MalformedJSON,
     "edge (1, 2.7, 1) is not a triple of integers"),
    ("bool vertex", 2, 3, [(True, 2, 1)], MalformedJSON,
     "edge (True, 2, 1) is not a triple of integers"),
    ("float colour", 2, 3, [[1, 2, 1.0]], MalformedJSON,
     "edge [1, 2, 1.0] is not a triple of integers"),
    ("string vertex", 2, 3, [("1", 2, 1)], MalformedJSON,
     "edge ('1', 2, 1) is not a triple of integers"),
    ("edge of two values", 2, 3, [(1, 2)], MalformedJSON,
     "edge (1, 2) is not a (u, v, colour) triple"),
    ("edge of four values", 2, 3, [(1, 2, 1, 5)], MalformedJSON,
     "edge (1, 2, 1, 5) is not a (u, v, colour) triple"),
    ("edge that is a number", 2, 3, [7], MalformedJSON, "edge 7 is not a (u, v, colour) triple"),
]


@pytest.mark.parametrize("name,k,m,edges,error,message", MALFORMED, ids=[c[0] for c in MALFORMED])
def test_validation_error_class_and_message(name, k, m, edges, error, message):
    with pytest.raises(error) as err:
        validate_tree(edges, k, m)
    assert type(err.value) is error and str(err.value) == message


def test_slot_table_holds_each_edge_at_both_ends():
    t = validate_tree([(2, 1, 3), (2, 3, 1)], 3, 3)
    assert t.nbr == [[0, 0, 0, 0], [0, 0, 0, 2], [0, 3, 0, 1], [0, 2, 0, 0]]
    assert t.adjacency == {1: {3: 2}, 2: {1: 3, 3: 1}, 3: {1: 2}}


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
    assert sigma.cycle_of(2) == (2, 1, 3)


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


# -- references: the dict-based kernel, on an adjacency built from the edges --

def _ref_adjacency(tree):
    adj = {v: {} for v in range(1, tree.k + 1)}
    for u, v, c in tree.edges:
        adj[u][c] = v
        adj[v][c] = u
    return adj


def _ref_circular_order(tree):
    adj = _ref_adjacency(tree)
    perm = []
    for v in range(1, tree.k + 1):
        w = v
        for r in range(1, tree.m + 1):
            w = adj[w].get(r, w)
        perm.append(w)
    return tuple(perm)


def _ref_maximal_chains(tree, i, j):
    adj = _ref_adjacency(tree)
    chains, seen = [], set()
    for v in range(1, tree.k + 1):
        if v in seen:
            continue
        halves = []
        for c in (i, j):
            half, w = [], v
            while c in adj[w]:
                w = adj[w][c]
                half.append(w)
                c = i + j - c
            halves.append(half)
        path = halves[0][::-1] + [v] + halves[1]
        path = tuple(path if path[0] <= path[-1] else reversed(path))
        seen.update(path)
        chains.append(path)
    return sorted(chains, key=lambda path: path[0])


def _ref_centroids(tree):
    adj = _ref_adjacency(tree)
    if tree.k == 1:
        return [1]
    size, order, parent, stack = {}, [], {1: 0}, [1]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v].values():
            if w != parent[v]:
                parent[w] = v
                stack.append(w)
    for v in reversed(order):
        size[v] = 1 + sum(size[w] for w in adj[v].values() if parent[w] == v)
    best, cands = None, []
    for v in order:
        heavy = max([tree.k - size[v]] + [size[w] for w in adj[v].values() if parent[w] == v])
        if best is None or heavy < best:
            best, cands = heavy, [v]
        elif heavy == best:
            cands.append(v)
    return sorted(cands)


def _ref_serialise(adj, v, parent):
    return "(" + ",".join(
        f"{c}{_ref_serialise(adj, adj[v][c], v)}" for c in sorted(adj[v]) if adj[v][c] != parent
    ) + ")"


def _ref_canonical_edges(tree):
    """Edges of the canonical representative: the least recursive colour-sorted
    serialisation over the centroids, labels in its DFS preorder."""
    adj = _ref_adjacency(tree)
    label = {}

    def walk(v, parent):
        label[v] = len(label) + 1
        for c in sorted(adj[v]):
            if adj[v][c] != parent:
                walk(adj[v][c], v)

    walk(min(_ref_centroids(tree), key=lambda v: _ref_serialise(adj, v, 0)), 0)
    return tuple(sorted((min(label[u], label[v]), max(label[u], label[v]), c)
                        for u, v, c in tree.edges))


def _kernel_corpus():
    """Every tree at (5,3), (4,4) and (3,5), and seeded trees at k = 30..60."""
    for k, m in ((5, 3), (4, 4), (3, 5)):
        yield from enumerate_trees(k, m)
    rng = random.Random(3032)
    for k, m in ((30, 3), (40, 4), (45, 5), (60, 3), (60, 6)):
        for _ in range(4):
            yield random_tree(rng, k, m)


def test_kernel_matches_dict_references():
    for t in _kernel_corpus():
        assert circular_order(t).perm == _ref_circular_order(t)
        for i in range(1, t.m):
            for j in range(i + 1, t.m + 1):
                got = maximal_chains(t, i, j)
                assert all((c.i, c.j) == (i, j) for c in got)
                assert [c.vertices for c in got] == _ref_maximal_chains(t, i, j)
        centroids = sorted(v for v in _centroids(t) if v)
        assert centroids == _ref_centroids(t)
        adj = _ref_adjacency(t)
        assert all(_canonical_walk(t, v, True)[1] == _ref_serialise(adj, v, 0) for v in centroids)
        assert canonical_unlabelled(t).tree.edges == _ref_canonical_edges(t)


def test_chains_equal_checked_chains():
    # maximal_chains fills its chains without the constructor; they are the
    # same values as constructed ones, and as frozen
    path = validate_tree([(1, 2, 1), (2, 3, 2), (3, 4, 1)], 4, 3)
    for i, j in ((1, 2), (1, 3), (2, 3)):
        for got in maximal_chains(path, i, j):
            built = Chain(i, j, got.vertices)
            assert got == built and hash(got) == hash(built) and repr(got) == repr(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                got.vertices = ()
    assert maximal_chains(path, 1, 2) == [Chain(1, 2, (1, 2, 3, 4))]


def test_canonical_forms_refuse_a_forest():
    forest = validate_forest([(1, 2, 1), (3, 4, 2)], 4, 3)
    with pytest.raises(NotConnected):
        canonical_unlabelled(forest)
    with pytest.raises(NotConnected):
        canonical_rooted(forest, 1)


def test_canonical_keys_compare_as_strings():
    # at m >= 10 a two-digit colour sorts before a greater one-digit colour
    # as a string ("10" < "2"), so comparing keys by (depth, colour) instead
    # picks another centroid on some two-centroid trees
    for t in enumerate_trees(4, 11):
        assert canonical_unlabelled(t).tree.edges == _ref_canonical_edges(t)


def _v_count(k, m):
    """V(k, m), the number of unlabelled m-edge-coloured trees on k vertices:
    U(k, m)/k!, plus at even k = 2j half the number
    U(j, m)((m - 2)j + 2)/j! of trees that a half-turn about the central edge
    maps to themselves, since each of those has only k!/2 labellings."""
    v = Fraction(u_count(k, m), math.factorial(k))
    if k % 2 == 0:
        j = k // 2
        v += Fraction(u_count(j, m) * ((m - 2) * j + 2), 2 * math.factorial(j))
    assert v.denominator == 1
    return int(v)


@pytest.mark.parametrize("m,top", [(3, 6), (4, 5), (5, 4), (6, 4), (11, 3)])
def test_canonical_forms_count_the_unlabelled_classes(m, top):
    for k in range(1, top + 1):
        forms = {canonical_unlabelled(t).tree.edges for t in enumerate_trees(k, m)}
        assert len(forms) == _v_count(k, m)


def test_v_count_values():
    # k <= 4 by hand: one colour per edge, and at k = 4 nine paths and one star
    assert [_v_count(k, 3) for k in range(1, 7)] == [1, 3, 3, 10, 18, 57]
    assert _v_count(5, 4) == 91


def test_canonical_forms_of_a_deep_path():
    # a 2500-vertex path is 2500 levels deep from an end and 1250 from its
    # centroid, past the interpreter's recursion limit
    k = 2500
    path = validate_tree([(v, v + 1, 1 if v % 2 else 2) for v in range(1, k)], k, 3)
    rng = random.Random(2500)
    perm = list(range(1, k + 1))
    rng.shuffle(perm)
    moved = relabel(path, dict(zip(range(1, k + 1), perm)))
    u = canonical_unlabelled(path)
    rooted = canonical_rooted(path, 1)
    for t in (u.tree, rooted):
        assert isinstance(t, ColouredTree) and ColouredTree(k, 3, t.edges) == t
    assert rooted.edges == path.edges  # the preorder from vertex 1 keeps every label
    assert canonical_unlabelled(moved) == u
    assert canonical_rooted(moved, perm[0]) == rooted


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
