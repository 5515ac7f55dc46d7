"""Constructive, invertible maps between the object families.

The central constructions:

* noncrossing diagrams <-> labelled coloured forests satisfying the two
  ordering conditions (arcs become equally coloured edges);
* labelled trees with descending circular order <-> rooted unlabelled trees
  (the root remembers which vertex was labelled k; the circular order
  restores the rest);
* unlabelled trees <-> diagonal-coloured m-angulations up to rotation
  (dual tree one way, clockwise slot embedding of the completed tree back);
* the chain of six equinumerous families around the set of m-angulations of
  a fixed polygon (family_chain);
* the two recursion bijections on connected noncrossing diagrams used for
  the quadratic and the m-fold convolution counting identities.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .angulations import (
    ColouredAngulation,
    Face,
    LabelledAngulation,
    MAngulation,
    RootedAngulation,
    canonical_rotation,
    colour_from_seed,
    labelled_dual,
)
from .core import (
    CircularOrder,
    ColouredForest,
    ColouredTree,
    UnlabelledTree,
    _check_ints,
    _FromJson,
    _is_int,
    _relabelled,
    canonical_rooted,
    canonical_unlabelled,
    circular_order,
)
from .diagrams import RnaDiagram, is_connected, is_noncrossing
from .errors import (
    ConditionAViolated,
    ConditionBViolated,
    InvariantBroken,
    MalformedJSON,
    NotInFamily,
    WrongCircularOrder,
    WrongObjectType,
)

# -- diagrams <-> forests -----------------------------------------------------------

def diagram_to_forest(diagram: RnaDiagram) -> ColouredForest:
    """Arcs become edges coloured by their base; noncrossing inputs always
    yield a forest satisfying the two ordering conditions."""
    edges = tuple((a[0], b[0], a[1]) for a, b in diagram.arcs)
    return ColouredForest(diagram.k, diagram.m, edges)


def _check_condition_a(forest: ColouredForest) -> None:
    comps = forest.components()
    for x in range(len(comps)):
        for y in range(x + 1, len(comps)):
            merged = sorted(comps[x] | comps[y], reverse=True)
            blocks = 1
            for a, b in zip(merged, merged[1:]):
                if (a in comps[x]) != (b in comps[x]):
                    blocks += 1
            if blocks >= 4:
                raise ConditionAViolated(
                    f"components {sorted(comps[x])} and {sorted(comps[y])} interleave"
                )


def _check_condition_b(forest: ColouredForest) -> None:
    sigma = circular_order(forest)
    for comp in forest.components():
        for a in comp:
            lower = [x for x in comp if x < a]
            want = max(lower) if lower else max(comp)
            if sigma(a) != want:
                raise ConditionBViolated(
                    f"sigma({a}) = {sigma(a)}, expected {want} in component {sorted(comp)}"
                )


def forest_to_diagram(forest: ColouredForest) -> RnaDiagram:
    """Inverse of diagram_to_forest on forests satisfying both ordering
    conditions (checked)."""
    _check_condition_a(forest)
    _check_condition_b(forest)
    arcs = tuple(((u, c), (v, c)) for u, v, c in forest.edges)
    return RnaDiagram(forest.k, forest.m, arcs)


# -- rooted trees --------------------------------------------------------------------

@dataclass(frozen=True)
class RootedTree:
    """A rooted m-edge-coloured tree without labelling, stored canonically:
    the root is vertex 1 and the other labels follow the colour-sorted DFS
    preorder (unique because sibling edges have distinct colours)."""

    tree: ColouredTree

    @classmethod
    def from_tree(cls, tree: ColouredTree, root: int) -> "RootedTree":
        return cls(canonical_rooted(tree, root))

    @property
    def root(self) -> int:
        return 1

    @property
    def k(self) -> int:
        return self.tree.k

    @property
    def m(self) -> int:
        return self.tree.m

    def root_edges(self) -> dict[int, int]:
        """colour -> neighbour at the root"""
        return dict(self.tree.adjacency[1])

    def to_json(self) -> str:  # the tree's JSON object with "root" added
        return self.tree.to_json()[:-1] + f',"root":{self.root}}}'


def _is_descending(tree: ColouredTree) -> bool:
    """True iff the tree's circular order is (k k-1 ... 1)."""
    return circular_order(tree) == CircularOrder.descending(tree.k)


def tree_to_rooted(tree: ColouredTree) -> RootedTree:
    """Forget the labels of a tree with circular order (k k-1 ... 1) but
    remember vertex k as the root."""
    if not _is_descending(tree):
        raise WrongCircularOrder("tree's circular order is not (k k-1 ... 1)")
    return RootedTree.from_tree(tree, tree.k)


def _descending_relabel(t: ColouredTree, root: int) -> ColouredTree:
    """Label the root k and sigma^i(root) with k-i; the result has circular
    order (k k-1 ... 1)."""
    sigma = circular_order(t)
    label, v = {}, root
    for i in range(t.k):
        label[v] = t.k - i
        v = sigma(v)
    # sigma of a tree is one k-cycle, so the labels are a bijection of 1..k
    out = _relabelled(t, label)
    if not _is_descending(out):
        raise InvariantBroken("relabelled tree is not descending")
    return out


def rooted_to_tree(rooted: RootedTree) -> ColouredTree:
    """Label the root k and sigma^i(root) with k-i."""
    return _descending_relabel(rooted.tree, rooted.root)


# -- trees <-> coloured angulations ---------------------------------------------------

def _embed(
    tree: ColouredTree, start_vertex: int, polygon_start: int
) -> tuple[ColouredAngulation, dict[int, Face]]:
    """Plane embedding of the completed tree: walk the contour exiting each
    vertex one colour slot clockwise of the entering slot; boundary stubs
    become polygon sides in clockwise order, tree edges become diagonals.
    Returns the coloured angulation and the face of each tree vertex."""
    k, m = tree.k, tree.m
    n = (m - 2) * k + 2
    colours: dict[tuple[int, int], int] = {}
    touch: dict[int, set[int]] = {v: set() for v in range(1, k + 1)}
    crossings: dict[frozenset, list[int]] = {}

    def norm(a: int, b: int) -> tuple[int, int]:
        a = (a - 1) % n + 1
        b = (b - 1) % n + 1
        return (a, b) if a < b else (b, a)

    cur, slot = start_vertex, m
    p = polygon_start
    for _ in range(k * m):
        slot = slot % m + 1
        w = tree.adjacency[cur].get(slot)
        if w is None:
            colours[norm(p, p + 1)] = slot
            touch[cur].update(norm(p, p + 1))
            p += 1
        else:
            crossings.setdefault(frozenset((cur, w)), []).append((p - 1) % n + 1)
            cur = w
    diagonals = []
    for e, pts in crossings.items():
        if len(pts) != 2:
            raise InvariantBroken(f"contour crosses edge {sorted(e)} {len(pts)} times")
        d = norm(pts[0], pts[1])
        diagonals.append(d)
        u, v = tuple(e)
        colours[d] = tree.colour_of(u, v)
        touch[u].update(d)
        touch[v].update(d)
    ang = MAngulation(m, k, tuple(sorted(diagonals)))
    cang = ColouredAngulation(ang, tuple(colours.items()))
    face_of = {v: tuple(sorted(pts)) for v, pts in touch.items()}
    if set(face_of.values()) != set(ang.faces):
        raise InvariantBroken("embedding faces disagree with the angulation")
    return cang, face_of


def tree_to_angulation(utree: UnlabelledTree | ColouredTree) -> ColouredAngulation:
    """The diagonal-coloured m-angulation of an unlabelled tree, canonical up
    to rotation."""
    tree = utree.tree if isinstance(utree, UnlabelledTree) else utree
    cang, _ = _embed(tree, 1, 1)
    return canonical_rotation(cang)


def angulation_to_tree(cang: ColouredAngulation) -> UnlabelledTree:
    """The dual tree with edge colours taken from the shared diagonals."""
    tree, _ = labelled_dual(cang)
    return canonical_unlabelled(tree)


def labelled_tree_to_rooted_angulation(tree: ColouredTree) -> RootedAngulation:
    """A labelled tree with circular order (k k-1 ... 1) maps to its coloured
    angulation rooted at the face of the vertex labelled k."""
    if not _is_descending(tree):
        raise WrongCircularOrder("tree's circular order is not (k k-1 ... 1)")
    cang, face_of = _embed(tree, 1, 1)
    return canonical_rotation(RootedAngulation(cang, face_of[tree.k]))


def rooted_angulation_to_tree(rang: RootedAngulation) -> ColouredTree:
    """Inverse: the root face is labelled k, and sigma^i(root) gets k-i."""
    t0, labels = labelled_dual(rang.base)
    return _descending_relabel(t0, labels[tuple(rang.root)])


def labelled_tree_to_labelled_angulation(tree: ColouredTree) -> LabelledAngulation:
    """Any labelled tree maps to the m-gon-labelled coloured angulation whose
    face labels are the vertex labels, canonical up to rotation."""
    cang, face_of = _embed(tree, 1, 1)
    labels = tuple((f, v) for v, f in face_of.items())
    return canonical_rotation(LabelledAngulation(cang, labels))


def labelled_angulation_to_tree(lang: LabelledAngulation) -> ColouredTree:
    tree, _ = labelled_dual(lang.base, dict(lang.labels))
    return tree


# -- rooted complete plane trees -------------------------------------------------------

@dataclass(frozen=True)
class PlaneTree(_FromJson):
    """A rooted complete (m-1)-ary plane tree as its Łukasiewicz word: the
    node arities in preorder, m-1 for an internal node and 0 for a leaf.

    A word is one iff it starts with m-1, every entry is 0 or m-1, and the
    count 1 + sum(a - 1) of subtrees still to read first reaches 0 at its
    last entry. At m = 1 every node is internal, so the only member is
    (0,). Construction checks this and raises NotInFamily(6) otherwise."""

    m: int
    word: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_ints(m=self.m)
        if not _is_int(self.word, None):
            raise MalformedJSON(f'"word" must be a list of integers, got {self.word!r}')
        object.__setattr__(self, "word", tuple(self.word))
        m, word = self.m, self.word
        ok = m >= 1 and word[:1] == (m - 1,)
        need = 1  # subtrees still to read
        for a in word if ok else ():
            if need == 0 or a not in (0, m - 1):
                ok = False
                break
            need += a - 1
        if not ok or need != 0:
            raise NotInFamily(6, "not a complete (m-1)-ary plane tree")

    def internal_count(self) -> int:
        return self.word.count(self.m - 1)

    def to_json(self) -> str:
        return json.dumps({"m": self.m, "word": list(self.word)}, separators=(",", ":"))


# -- the six-family chain ---------------------------------------------------------------

def _check_connected_noncrossing(x: RnaDiagram) -> None:
    if not is_noncrossing(x):
        raise NotInFamily(1, "diagram is crossing")
    if not is_connected(x):
        raise NotInFamily(1, "diagram is not connected")


def _family1_check(x: RnaDiagram) -> None:
    _check_connected_noncrossing(x)
    for (v1, r1), (v2, r2) in x.arcs:
        if (v1 == x.k and r1 != 1) or (v2 == x.k and r2 != 1):
            raise NotInFamily(1, f"last vertex carries an arc on S_{max(r1, r2)}")


def _family2_check(x: ColouredTree) -> None:
    if not _is_descending(x):
        raise NotInFamily(2, "circular order is not (k+1 k ... 1)")
    top = x.adjacency[x.k]
    if x.k >= 2 and (len(top) != 1 or 1 not in top):
        raise NotInFamily(2, "last vertex is not a leaf on an S_1 edge")


def _family3_check(x: RootedTree) -> None:
    edges = x.root_edges()
    if x.k >= 2 and (len(edges) != 1 or 1 not in edges):
        raise NotInFamily(3, "root must have exactly one edge, coloured S_1")


def _family5_check(x: RootedTree) -> None:
    if 1 in x.root_edges():
        raise NotInFamily(5, "root has an S_1 edge")


def family1_to_2(x: RnaDiagram) -> ColouredTree:
    _family1_check(x)
    forest = diagram_to_forest(x)
    tree = ColouredTree(forest.k, forest.m, forest.edges)
    _family2_check(tree)
    return tree


def family2_to_1(x: ColouredTree) -> RnaDiagram:
    _family2_check(x)
    d = forest_to_diagram(x)
    _family1_check(d)
    return d


def family2_to_3(x: ColouredTree) -> RootedTree:
    _family2_check(x)
    r = RootedTree.from_tree(x, x.k)
    _family3_check(r)
    return r


def family3_to_2(x: RootedTree) -> ColouredTree:
    _family3_check(x)
    return rooted_to_tree(x)


def _delete_root(x: RootedTree) -> tuple[ColouredTree, int]:
    """Delete the root of a family (3) tree: the other vertices relabelled
    1..k-1 in order, and the new label of the root's S_1 neighbour."""
    _family3_check(x)
    t = x.tree
    if t.k == 1:
        raise NotInFamily(3, "need at least one non-root vertex")
    keep = [v for v in range(1, t.k + 1) if v != x.root]
    relab = {v: idx + 1 for idx, v in enumerate(keep)}
    inner = ColouredTree(
        t.k - 1,
        t.m,
        tuple((relab[u], relab[w], c) for u, w, c in t.edges if x.root not in (u, w)),
    )
    return inner, relab[t.adjacency[x.root][1]]


def family3_to_4(x: RootedTree) -> MAngulation:
    """Delete the root m-gon and anchor the marked (formerly S_1) edge at the
    polygon side [n, 1]."""
    inner, child = _delete_root(x)
    cang, _ = _embed(inner, child, (inner.m - 2) * inner.k + 2)
    return cang.ang


def family4_to_3(x: MAngulation) -> RootedTree:
    """Colour the marked edge [n, 1] with S_1, take the dual, and hang a new
    root off the marked face by an S_1 edge."""
    cang = colour_from_seed(x, (1, x.n), 1)
    t0, labels = labelled_dual(cang)
    marked_face = cang.ang.face_with_edge((1, x.n))
    c0 = labels[marked_face]
    root = t0.k + 1
    big = ColouredTree(root, t0.m, t0.edges + ((c0, root, 1),))
    return RootedTree.from_tree(big, root)


def family3_to_5(x: RootedTree) -> RootedTree:
    inner, child = _delete_root(x)
    out = RootedTree.from_tree(inner, child)
    _family5_check(out)
    return out


def family5_to_3(x: RootedTree) -> RootedTree:
    _family5_check(x)
    t = x.tree
    root = t.k + 1
    big = ColouredTree(root, t.m, t.edges + ((x.root, root, 1),))
    return RootedTree.from_tree(big, root)


def family5_to_6(x: RootedTree) -> PlaneTree:
    """Complete the tree, order each vertex's children clockwise from its
    parental edge colour, and drop the colours: a preorder walk whose
    stack holds (vertex, parental colour), vertex 0 being a leaf."""
    _family5_check(x)
    nbr, m = x.tree.nbr, x.m
    word = []
    stack = [(x.root, 1)]
    while stack:
        v, parental = stack.pop()
        word.append(m - 1 if v else 0)
        if v:  # children pushed last-first, so they pop in clockwise order
            for off in range(m - 1, 0, -1):
                col = (parental - 1 + off) % m + 1
                stack.append((nbr[v][col], col))
    return PlaneTree(m, tuple(word))


def family6_to_5(x: PlaneTree) -> RootedTree:
    """Recolour edges from the parental colours (root parental = S_1) and
    prune the leaves: one pass over the word, with a stack of the open
    internal nodes as [vertex, parental colour, children seen]."""
    m, k = x.m, 1
    edges = []
    stack = [[1, 1, 0]]
    for a in x.word[1:]:
        while stack[-1][2] == m - 1:
            stack.pop()
        top = stack[-1]
        top[2] += 1
        col = (top[1] - 1 + top[2]) % m + 1
        if a:
            k += 1
            edges.append((top[0], k, col))
            stack.append([k, col, 0])
    out = RootedTree.from_tree(ColouredTree(k, m, tuple(edges)), 1)
    _family5_check(out)
    return out


_FAMILY_EDGES = {1: (2,), 2: (1, 3), 3: (2, 4, 5), 4: (3,), 5: (3, 6), 6: (5,)}
_FAMILY_TYPES = {
    1: RnaDiagram,
    2: ColouredTree,
    3: RootedTree,
    4: MAngulation,
    5: RootedTree,
    6: PlaneTree,
}
_FAMILY_MAPS = {
    (1, 2): family1_to_2,
    (2, 1): family2_to_1,
    (2, 3): family2_to_3,
    (3, 2): family3_to_2,
    (3, 4): family3_to_4,
    (4, 3): family4_to_3,
    (3, 5): family3_to_5,
    (5, 3): family5_to_3,
    (5, 6): family5_to_6,
    (6, 5): family6_to_5,
}


def family_chain(x, from_item: int, to_item: int):
    """Compose the pairwise bijections along the family graph
    1 - 2 - 3 - 4 with 3 - 5 - 6."""
    if from_item not in _FAMILY_EDGES or to_item not in _FAMILY_EDGES:
        raise NotInFamily(from_item, "family index must be in 1..6")
    if not isinstance(x, _FAMILY_TYPES[from_item]):
        raise WrongObjectType(
            f"family ({from_item}) holds {_FAMILY_TYPES[from_item].__name__}s, "
            f"got a {type(x).__name__}"
        )
    # BFS route in the small family graph
    prev = {from_item: None}
    queue = [from_item]
    while queue:
        a = queue.pop(0)
        for b in _FAMILY_EDGES[a]:
            if b not in prev:
                prev[b] = a
                queue.append(b)
    path = [to_item]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    path.reverse()
    for a, b in zip(path, path[1:]):
        x = _FAMILY_MAPS[(a, b)](x)
    return x


# -- recursion bijections on connected noncrossing diagrams ------------------------------

def vertex1_decompose(diagram: RnaDiagram):
    """Split a connected noncrossing diagram by the arc at slot (1, S_1):
    ("extend", bigger) when the slot is free, else ("split", (left, right))
    cutting at the arc's far vertex.  Any other diagram is refused as
    NotInFamily(1)."""
    _check_connected_noncrossing(diagram)
    arc_at = next(
        (arc for arc in diagram.arcs if (1, 1) in arc),
        None,
    )
    k, m = diagram.k, diagram.m
    if arc_at is None:
        ext = RnaDiagram(k + 1, m, diagram.arcs + (((1, 1), (k + 1, 1)),))
        return ("extend", ext)
    v = arc_at[1][0]
    left_arcs = tuple(
        a for a in diagram.arcs if a[0][0] <= v - 1 and a[1][0] <= v - 1
    ) + (((1, 1), (v, 1)),)
    left = RnaDiagram(v, m, left_arcs)
    right_raw = [
        a
        for a in diagram.arcs
        if a[0][0] >= v and a[1][0] >= v and a != ((1, 1), (v, 1)) and (1, 1) not in a
    ]
    shifted = tuple(
        (((a[0][0] - v + 1), a[0][1]), ((a[1][0] - v + 1), a[1][1])) for a in right_raw
    )
    w = k - v + 2
    right = RnaDiagram(w, m, shifted + (((1, 1), (w, 1)),))
    return ("split", (left, right))


def vertex1_recombine(value) -> RnaDiagram:
    tag, payload = value
    if tag == "extend":
        ext: RnaDiagram = payload
        arcs = tuple(a for a in ext.arcs if a[1][0] != ext.k)
        return RnaDiagram(ext.k - 1, ext.m, arcs)
    left, right = payload
    v, w = left.k, right.k
    k = v + w - 2
    arcs = list(left.arcs)  # includes the (1,S_1)-(v,S_1) arc
    for a, b in right.arcs:
        if b[0] == w and b[1] == 1 and a == (1, 1):
            continue  # the extension arc added during the split
        arcs.append(((a[0] + v - 1, a[1]), (b[0] + v - 1, b[1])))
    return RnaDiagram(k, left.m, tuple(arcs))


def sigma_decompose(diagram: RnaDiagram) -> tuple[RnaDiagram, ...]:
    """Cut a connected noncrossing diagram into the m windows traced by
    applying S_1, ..., S_m to vertex 1; window j becomes a connected
    noncrossing diagram of degree k_j + 1 whose first and last vertices are
    joined by an arc on S_j (degree 1 when S_j fixes the walk).  Any other
    diagram is refused as NotInFamily(1)."""
    _check_connected_noncrossing(diagram)
    k, m = diagram.k, diagram.m
    slot_arc = {s: arc for arc in diagram.arcs for s in arc}
    marks = [1]
    v = 1
    for r in range(1, m + 1):
        arc = slot_arc.get((v, r))
        if arc is not None:
            v = arc[0][0] if arc[1][0] == v else arc[1][0]
        marks.append(v)
    if marks[-1] != k and k != 1:
        raise InvariantBroken("walk must end at vertex k")

    def pos(v: int, r: int) -> int:
        return (v - 1) * m + r

    ranges = [(pos(marks[j - 1], j), pos(marks[j], j)) for j in range(1, m + 1)]
    parts = []
    for j in range(1, m + 1):
        lo, hi = ranges[j - 1]
        start = marks[j - 1]
        arcs = []
        for arc in diagram.arcs:
            p1, p2 = (pos(*arc[0]), pos(*arc[1]))
            if lo <= p1 <= hi:
                if not lo <= p2 <= hi:
                    raise InvariantBroken("arc straddles a window boundary")
                arcs.append(
                    (
                        (arc[0][0] - start + 1, arc[0][1]),
                        (arc[1][0] - start + 1, arc[1][1]),
                    )
                )
        parts.append(RnaDiagram(marks[j] - marks[j - 1] + 1, m, tuple(arcs)))
    return tuple(parts)


def sigma_recombine(parts: Sequence[RnaDiagram]) -> RnaDiagram:
    m = len(parts)
    k = sum(p.k - 1 for p in parts) + 1
    arcs = []
    offset = 0
    for p in parts:
        for a, b in p.arcs:
            arcs.append(((a[0] + offset, a[1]), (b[0] + offset, b[1])))
        offset += p.k - 1
    return RnaDiagram(k, m, tuple(arcs))
