"""Labelled and unlabelled m-edge-coloured trees and forests.

A coloured forest has vertices 1..k and edges coloured with symbols S_1..S_m
such that no two edges at a vertex share a colour (so every vertex has at most
one edge of each colour).  Each symbol S_r therefore acts on the vertices as
an involution: a vertex is fixed unless it has an S_r-edge, in which case it
is swapped with the other endpoint.  The composite S_m o ... o S_1 is the
*circular order* of the forest; on a tree it is always a single k-cycle.

Vertices and symbols are 1-based throughout, matching the usual notation.

Validation happens once, at the boundary.  The constructors
`ColouredForest(k, m, edges)` and `ColouredTree(k, m, edges)`, and with them
`validate_forest`, `validate_tree`, `relabel` and every `from_json`, check
all invariants of edges that come from a caller.  Every constructor of the
package checks its own field types with the one predicate `_is_int`, so a
bool, float, numeric string or None is `MalformedJSON` naming the field,
never coerced; JSON loading only parses.  Internal producers whose output
is proper by a stated argument build their trees with
`ColouredForest._trusted` instead, which runs no check: the members of
the circular-order classes that `enumerate_trees` and `induction.orbit`
read from `counting`'s class generator, the R/L successors, the canonical
relabellings here and the descending relabelling in `bijections`.  Each
call site states its argument.  `_trusted` does the same for the frozen
objects of the other modules: the colourings and canonical rotations of
angulations, and the diagrams `counting.enumerate_diagrams` builds unless
both of its flags are set.
The slot table `nbr` is filled by validation, or from the edges on its first
read, so a tree whose table nobody reads never builds one.

The canonical unlabelled form is rooted at a centroid, found by one pass for
the subtree sizes and a descent from vertex 1 into the child holding more
than k/2 vertices.  Only a tree with two centroids (never at odd k) builds
their nested keys and keeps the walk with the least key as a string; the
walk numbers the vertices in colour-sorted preorder and emits the canonical
edges as it goes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

from .errors import (
    CycleDetected,
    DuplicateColourAtVertex,
    DuplicateEdge,
    MalformedJSON,
    NotConnected,
    VertexOutOfRange,
    WrongCircularOrder,
)

Edge = tuple[int, int, int]  # (u, v, colour) with u < v

# The slot table holds (k + 1)(m + 1) slots whatever the edges, so a larger palette
# or table is refused before it is allocated; k = 10^4 is admitted at every m <= 98.
MAX_COLOURS = 1000
MAX_SLOTS = 1_000_000


def _is_int(x, *widths: int | None) -> bool:
    """The one type rule of the constructors' integer fields: x is an int and
    no bool, or given widths a list or tuple of widths[0] entries (any number
    for None) that pass with widths[1:], as edges pass with None, 3."""
    if not widths:
        return type(x) is int
    level = (x,)
    for width in widths:
        entries = []
        for e in level:
            if not isinstance(e, (list, tuple)) or width is not None and len(e) != width:
                return False
            entries += e
        level = entries
    for v in level:
        if type(v) is not int:
            return False
    return True


def _check_ints(**fields) -> None:
    """Refuse the first named field that is no int, naming it."""
    for name, value in fields.items():
        if not _is_int(value):
            raise MalformedJSON(f'"{name}" must be an integer, got {value!r}')


def _trusted(cls, **fields):
    """A `cls` with these fields, stored as its constructor stores them, unchecked."""
    self = object.__new__(cls)
    self.__dict__.update(fields)
    return self


def _checked_object(d) -> dict:
    """d, when it is a JSON object (a dict); any other value raises
    MalformedJSON."""
    if not isinstance(d, dict):
        raise MalformedJSON(f"expected a JSON object, got {type(d).__name__}")
    return d


def _json_loads(text: str):
    """json.loads, refusing a document nested too deeply to parse with
    MalformedJSON instead of letting RecursionError escape."""
    try:
        return json.loads(text)
    except RecursionError:
        raise MalformedJSON("JSON document is nested too deeply") from None


class _FromJson:
    """JSON loading for a dataclass whose JSON object holds its fields by name."""

    @classmethod
    def from_dict(cls, d):
        d = _checked_object(d)
        return cls(*(d.get(f.name) for f in fields(cls)))

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(_json_loads(text))


def _normalise_edges(raw_edges) -> tuple[Edge, ...]:
    """The edges as sorted (u, v, colour) triples with u <= v.  An edge that
    is not three integers (a bool is none) raises MalformedJSON naming it
    rather than being truncated to one."""
    if not _is_int(raw_edges, None, 3):
        if not isinstance(raw_edges, (list, tuple)):
            raise MalformedJSON('"edges" must be a list of [u, v, colour] integer lists')
        e = next(e for e in raw_edges if not _is_int(e, 3))
        three = isinstance(e, (list, tuple)) and len(e) == 3
        shape = "triple of integers" if three else "(u, v, colour) triple"
        raise MalformedJSON(f"edge {e!r} is not a {shape}")
    out = [(u, v, c) if u < v else (v, u, c) for u, v, c in raw_edges]
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class ColouredForest(_FromJson):
    """A properly m-edge-coloured forest on vertices 1..k.

    ``edges`` is kept sorted with u < v per edge, so equal forests compare and
    hash equal.  Construction validates all invariants and fills the slot
    table ``nbr``: ``nbr[v][c]`` is the S_c-neighbour of vertex v, or 0 when
    v has no S_c-edge (row 0 and column 0 are unused).  This is the slot
    layout of an RNA m-diagram, one partner per (vertex, colour) slot.  A
    forest from `_trusted` fills ``nbr`` on its first read.
    """

    k: int
    m: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        k, m = self.k, self.m
        _check_ints(k=k, m=m)
        object.__setattr__(self, "edges", _normalise_edges(self.edges))
        _check_size(k, m)
        nbr = [[0] * (m + 1) for _ in range(k + 1)]
        parent = list(range(k + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        pu = pv = 0  # the previous edge's pair: sorted edges put twins side by side
        for u, v, c in self.edges:
            if not (1 <= u <= k and 1 <= v <= k):
                raise VertexOutOfRange(f"edge ({u},{v}) outside 1..{k}")
            if u == v:
                raise DuplicateEdge(f"loop at vertex {u}")
            if not (1 <= c <= m):
                raise VertexOutOfRange(f"colour S_{c} outside S_1..S_{m}")
            if u == pu and v == pv:
                raise DuplicateEdge(f"edge ({u},{v}) appears twice")
            pu, pv = u, v
            nu, nv = nbr[u], nbr[v]
            if nu[c]:
                raise DuplicateColourAtVertex(u, c)
            if nv[c]:
                raise DuplicateColourAtVertex(v, c)
            nu[c], nv[c] = v, u
            ru, rv = find(u), find(v)
            if ru == rv:
                raise CycleDetected(f"edge ({u},{v}) closes a cycle")
            parent[ru] = rv
        object.__setattr__(self, "nbr", nbr)

    @classmethod
    def _trusted(cls, k: int, m: int, edges: tuple[Edge, ...]):
        """A `cls` with these fields and no check: `edges` must already be
        sorted, with u < v in each edge, and form a proper forest (a proper
        tree for ColouredTree) on 1..k with colours 1..m, of a size that
        `_check_size` admits.  Only internal producers whose output is
        proper by a stated argument call this."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["k"], fields["m"], fields["edges"] = k, m, edges
        return self

    @cached_property
    def nbr(self) -> list[list[int]]:
        """The slot table, filled from the edges on first read when
        validation did not fill it."""
        nbr = [[0] * (self.m + 1) for _ in range(self.k + 1)]
        for u, v, c in self.edges:
            nbr[u][c] = v
            nbr[v][c] = u
        return nbr

    @cached_property
    def adjacency(self) -> dict[int, dict[int, int]]:
        """vertex -> {colour: neighbour}, read off the slot table"""
        return {v: {c: w for c, w in enumerate(self.nbr[v]) if w} for v in range(1, self.k + 1)}

    @property
    def is_tree(self) -> bool:
        return len(self.edges) == self.k - 1

    def components(self) -> list[frozenset[int]]:
        comp: dict[int, int] = {}
        nxt = 0
        for v in range(1, self.k + 1):
            if v in comp:
                continue
            stack = [v]
            comp[v] = nxt
            while stack:
                x = stack.pop()
                for y in self.nbr[x]:
                    if y and y not in comp:
                        comp[y] = nxt
                        stack.append(y)
            nxt += 1
        groups: dict[int, set[int]] = {}
        for v, i in comp.items():
            groups.setdefault(i, set()).add(v)
        return [frozenset(g) for g in groups.values()]

    def colour_of(self, u: int, v: int) -> int:
        for c, w in self.adjacency[u].items():
            if w == v:
                return c
        raise KeyError(f"no edge {u}-{v}")

    def to_json(self) -> str:
        return json.dumps(
            {"k": self.k, "m": self.m, "edges": [list(e) for e in self.edges]},
            separators=(",", ":"),
        )


@dataclass(frozen=True)
class ColouredTree(ColouredForest):
    """A connected coloured forest (exactly k-1 edges)."""

    def __post_init__(self):
        super().__post_init__()
        _check_connected(self)


def _check_connected(forest: ColouredForest) -> None:
    """Refuse a proper forest that is no tree: it has fewer than k - 1 edges."""
    if len(forest.edges) != forest.k - 1:
        raise NotConnected(
            f"tree on {forest.k} vertices needs {forest.k - 1} edges, got {len(forest.edges)}"
        )


def _check_size(k: int, m: int) -> None:
    """Refuse k < 1, m outside 1..MAX_COLOURS, then a slot table of more
    than MAX_SLOTS slots, before a table is allocated."""
    if k < 1:
        raise VertexOutOfRange(f"k must be >= 1, got {k}")
    if m < 1:
        raise VertexOutOfRange(f"m must be >= 1, got {m}")
    if m > MAX_COLOURS:
        raise VertexOutOfRange(f"m must be <= {MAX_COLOURS}, got {m}")
    if (k + 1) * (m + 1) > MAX_SLOTS:
        slots = (k + 1) * (m + 1)
        raise VertexOutOfRange(f"k = {k} at m = {m} needs {slots} slots, more than {MAX_SLOTS}")


def validate_forest(raw_edges: Sequence[Sequence[int]], k: int, m: int) -> ColouredForest:
    """Validate raw (u, v, colour) triples into a ColouredForest."""
    return ColouredForest(k, m, raw_edges)


def validate_tree(raw_edges: Sequence[Sequence[int]], k: int, m: int) -> ColouredTree:
    return ColouredTree(k, m, raw_edges)


def _check_permutation(entries, k: int, what: str) -> None:
    """Refuse entries unless they are k ints listing 1..k once each; an
    entry that is no int (a bool, a float) is MalformedJSON, since in a set
    True and 1.0 equal 1."""
    if not _is_int(entries, None):
        raise MalformedJSON(f"{what} {entries} has an entry that is no integer")
    if len(entries) != k or set(entries) != set(range(1, k + 1)):
        raise WrongCircularOrder(f"{what} {entries} is not a permutation of 1..{k}")


@dataclass(frozen=True)
class CircularOrder:
    """The permutation S_m o S_{m-1} o ... o S_1 of the vertices, as a tuple
    perm with perm[v-1] = sigma(v)."""

    perm: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.perm)

    def __call__(self, v: int) -> int:
        return self.perm[v - 1]

    def cycle_of(self, v: int) -> tuple[int, ...]:
        """The cycle through v, from v.  The constructor checks nothing, so a
        walk that leaves 1..k or does not close in k steps refuses perm."""
        perm, k = self.perm, len(self.perm)
        _check_ints(v=v)
        if not 1 <= v <= k:
            raise VertexOutOfRange(f"vertex {v} is not in 1..{k}")
        out = [v]
        w = perm[v - 1]
        while w != v:
            if len(out) == k or not (_is_int(w) and 1 <= w <= k):
                raise WrongCircularOrder(f"{perm} is not a permutation of 1..{k}")
            out.append(w)
            w = perm[w - 1]
        return tuple(out)

    @classmethod
    def from_cycle(cls, cycle: Sequence[int]) -> "CircularOrder":
        """Build the permutation that is the given cycle (fixing nothing else);
        the cycle must use every vertex 1..k exactly once, each an int, and
        k >= 1."""
        cycle = tuple(cycle)
        if not cycle:  # no vertex, so no tree has this order
            raise VertexOutOfRange("a cycle needs at least one vertex, got ()")
        _check_permutation(cycle, len(cycle), "cycle")
        perm = [0] * len(cycle)
        for a, b in zip(cycle, cycle[1:] + (cycle[0],)):
            perm[a - 1] = b
        return cls(tuple(perm))

    @classmethod
    def descending(cls, k: int) -> "CircularOrder":
        """The k-cycle (k k-1 ... 1), i.e. sigma(v) = v-1 with sigma(1) = k."""
        return cls(tuple(k if v == 1 else v - 1 for v in range(1, k + 1)))


def symbol_action(forest: ColouredForest, r: int, v: int) -> int:
    """Apply the involution S_r to vertex v."""
    _check_ints(r=r, v=v)
    if not (1 <= r <= forest.m and 1 <= v <= forest.k):
        raise VertexOutOfRange(f"S_{r} on {v} is outside S_1..S_{forest.m} on 1..{forest.k}")
    return forest.nbr[v][r] or v


def circular_order(forest: ColouredForest) -> CircularOrder:
    nbr, colours = forest.nbr, range(1, forest.m + 1)
    perm = []
    for v in range(1, forest.k + 1):
        w = v
        for r in colours:
            w = nbr[w][r] or w
        perm.append(w)
    return CircularOrder(tuple(perm))


def is_k_cycle(order: CircularOrder) -> bool:
    """True iff the permutation is a single cycle through all k vertices."""
    return len(order.cycle_of(1)) == order.k


@dataclass(frozen=True)
class Chain:
    """A maximal S_i-S_j chain: a path whose edges alternate between the two
    colours, with no other S_i/S_j edge of the tree incident to it.  A single
    vertex with no incident S_i/S_j edge is a valid edgeless chain."""

    i: int
    j: int
    vertices: tuple[int, ...]

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


def _chain_path(nbr: list[list[int]], v: int, i: int, j: int) -> tuple[int, ...]:
    """The maximal S_i-S_j chain through v, as a vertex path from its smaller
    end.  Each vertex has at most one edge of each colour, so walking from v
    along S_i and alternating colours reaches the chain's end on that side;
    the walk back from there alternating colours traces the whole chain.
    The cost is the chain's length, and nothing when v has no S_i-edge."""
    c, w = i, v
    while nbr[w][c]:
        w = nbr[w][c]
        c = i + j - c
    path = [w]
    c = i + j - c
    while nbr[w][c]:
        w = nbr[w][c]
        path.append(w)
        c = i + j - c
    return tuple(path if path[0] <= path[-1] else reversed(path))


def maximal_chains(tree: ColouredForest, i: int, j: int) -> list[Chain]:
    """All maximal S_i-S_j chains; their vertex sets partition 1..k."""
    if not (1 <= i < j <= tree.m):
        raise VertexOutOfRange(f"need 1 <= i < j <= m, got ({i},{j})")
    nbr = tree.nbr
    chains = []
    seen = [False] * (tree.k + 1)  # the far ends of the chains walked so far
    for v in range(1, tree.k + 1):
        row = nbr[v]
        if seen[v] or row[i] and row[j]:
            continue
        # v lacks an S_i- or S_j-edge, so it ends its chain, and in increasing
        # order each chain is met first at its smaller end: walk it from there
        c = i if row[i] else j
        path = [v]
        w = row[c]
        while w:
            path.append(w)
            c = i + j - c
            w = nbr[w][c]
        seen[path[-1]] = True
        chain = object.__new__(Chain)  # Chain checks nothing; fill its fields
        fields = chain.__dict__
        fields["i"], fields["j"], fields["vertices"] = i, j, tuple(path)
        chains.append(chain)
    return chains


# -- canonical unlabelled form -------------------------------------------------

def _centroids(tree: ColouredTree) -> tuple[int, int]:
    """The centroid reached from vertex 1 by entering a child of more than
    k/2 vertices while there is one, and the other centroid or 0: a tree has
    one or two adjacent ones (Jordan), two when an edge leaves k/2 a side."""
    k, nbr = tree.k, tree.nbr
    parent = [0] * (k + 1)
    order = [1]
    for v in order:  # breadth-first; order grows while it is read
        p = parent[v]
        for w in nbr[v]:
            if w and w != p:
                parent[w] = v
                order.append(w)
    size = [1] * (k + 1)
    for v in reversed(order):
        size[parent[v]] += size[v]
    c = 1
    while True:  # two children of c cannot both hold k/2 or more vertices
        for w in nbr[c]:
            if w and parent[w] == c and 2 * size[w] >= k:
                break
        else:
            return c, 0
        if 2 * size[w] == k:
            return c, w
        c = w


def _canonical_walk(tree: ColouredTree, root: int, keyed: bool = False):
    """The sorted edges of the tree numbered in its colour-sorted DFS
    preorder from root, each emitted as (parent's number, own number, colour)
    on the visit, and if keyed the nested key "(c1(...),c2(...))" from root,
    in which a vertex at depth d after one at depth prev first closes the
    prev + 1 - d subtrees it leaves, else None.  A stack, so deep trees need
    no recursion."""
    nbr, colours = tree.nbr, range(tree.m, 0, -1)
    edges, parts = [], ["("]
    n = prev = 0
    stack = [(root, 0, 0, 0, 0)]  # vertex, parent, its colour and number, depth
    while stack:
        v, par, col, up, depth = stack.pop()
        n += 1
        if up:
            edges.append((up, n, col))
            if keyed:
                parts.append(")" * (prev + 1 - depth) + "," * (depth <= prev) + f"{col}(")
                prev = depth
        row = nbr[v]
        for c in colours:
            w = row[c]
            if w and w != par:
                stack.append((w, v, c, n, depth + 1))
    edges.sort()
    return edges, "".join(parts) + ")" * (prev + 1) if keyed else None


@dataclass(frozen=True)
class UnlabelledTree:
    """An m-edge-coloured tree without labelling, stored as the canonical
    labelled representative: the vertex labels follow the colour-sorted DFS
    preorder from the centroid, which the descent from vertex 1 finds; of
    two centroids, from the one whose nested key is the least string."""

    tree: ColouredTree

    @property
    def k(self) -> int:
        return self.tree.k

    @property
    def m(self) -> int:
        return self.tree.m

    def to_json(self) -> str:
        return self.tree.to_json()


def _relabelled(tree: ColouredTree, label) -> ColouredTree:
    """The tree with each vertex v renamed label[v], for a bijection `label`
    of 1..k.  Renaming the vertices of a proper tree bijectively keeps it a
    proper tree, so it is built trusted; only the edges are oriented and
    sorted again.  A forest that is no tree is refused, as the constructor
    refuses it."""
    _check_connected(tree)
    edges = [(label[u], label[v], c) for u, v, c in tree.edges]
    edges = [(a, b, c) if a < b else (b, a, c) for a, b, c in edges]
    edges.sort()
    return ColouredTree._trusted(tree.k, tree.m, tuple(edges))


def canonical_rooted(tree: ColouredTree, root: int) -> ColouredTree:
    """Canonical labelling of a rooted coloured tree: the root becomes 1 and
    the rest follow the colour-sorted DFS preorder.  Sibling edges carry
    distinct colours, so this is unique per rooted isomorphism class."""
    _check_ints(root=root)
    if not 1 <= root <= tree.k:
        raise VertexOutOfRange(f"root {root!r} is not a vertex of 1..{tree.k}")
    _check_connected(tree)
    # the preorder of a tree numbers each vertex once, a bijection of 1..k,
    # so the relabelled tree is proper
    edges, _ = _canonical_walk(tree, root)
    return ColouredTree._trusted(tree.k, tree.m, tuple(edges))


def canonical_unlabelled(tree: ColouredTree) -> UnlabelledTree:
    """Canonical representative modulo colour-preserving isomorphism: the
    canonical rooted form at the centroid, or at the one of two centroids
    whose key is the least string.  Equal keys give equal forms."""
    _check_connected(tree)
    root, twin = _centroids(tree)
    if twin:
        edges = min(_canonical_walk(tree, root, True), _canonical_walk(tree, twin, True),
                    key=lambda walk: walk[1])[0]
    else:
        edges, _ = _canonical_walk(tree, root)
    return UnlabelledTree(ColouredTree._trusted(tree.k, tree.m, tuple(edges)))


def relabel(tree: ColouredForest, perm: dict[int, int]) -> ColouredForest:
    """Apply a vertex relabelling (a bijection 1..k -> 1..k)."""
    edges = tuple((perm[u], perm[v], c) for u, v, c in tree.edges)
    cls = ColouredTree if isinstance(tree, ColouredTree) else ColouredForest
    return cls(tree.k, tree.m, edges)


def tree_to_dot(tree: ColouredForest) -> str:
    """DOT text with edges labelled by their colour."""
    lines = ["graph coloured_tree {"]
    for v in range(1, tree.k + 1):
        lines.append(f'  "{v}";')
    for u, v, c in tree.edges:
        lines.append(f'  "{u}" -- "{v}" [label="S{c}"];')
    lines.append("}")
    return "\n".join(lines)
