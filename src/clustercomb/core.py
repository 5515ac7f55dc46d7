"""Labelled and unlabelled m-edge-coloured trees and forests.

A coloured forest has vertices 1..k and edges coloured with symbols S_1..S_m
such that no two edges at a vertex share a colour (so every vertex has at most
one edge of each colour).  Each symbol S_r therefore acts on the vertices as
an involution: a vertex is fixed unless it has an S_r-edge, in which case it
is swapped with the other endpoint.  The composite S_m o ... o S_1 is the
*circular order* of the forest; on a tree it is always a single k-cycle.

Vertices and symbols are 1-based throughout, matching the usual notation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    CycleDetected,
    DuplicateColourAtVertex,
    DuplicateEdge,
    MalformedJSON,
    NotConnected,
    VertexOutOfRange,
)

Edge = tuple[int, int, int]  # (u, v, colour) with u < v


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _checked_object(d, *int_keys: str) -> dict:
    """d, when it is a JSON object (a dict) whose `int_keys` hold integers;
    a value of another shape raises MalformedJSON."""
    if not isinstance(d, dict):
        raise MalformedJSON(f"expected a JSON object, got {type(d).__name__}")
    for key in int_keys:
        if not _is_int(d.get(key)):
            raise MalformedJSON(f'"{key}" must be an integer, got {d.get(key)!r}')
    return d


def _int_tuples(d: dict, key: str, width: int, form: str) -> tuple[tuple[int, ...], ...]:
    """d[key] as a tuple of integer tuples, when it is a list of `width`-long
    integer lists; otherwise MalformedJSON naming the expected `form`."""
    items = d.get(key)
    if not isinstance(items, list) or not all(
        isinstance(x, list) and len(x) == width and all(map(_is_int, x)) for x in items
    ):
        raise MalformedJSON(f'"{key}" must be a list of {form} integer lists')
    return tuple(tuple(x) for x in items)


def _normalise_edges(raw_edges: Iterable[Sequence[int]]) -> tuple[Edge, ...]:
    out = []
    for e in raw_edges:
        u, v, c = int(e[0]), int(e[1]), int(e[2])
        if u > v:
            u, v = v, u
        out.append((u, v, c))
    return tuple(sorted(out))


@dataclass(frozen=True)
class ColouredForest:
    """A properly m-edge-coloured forest on vertices 1..k.

    ``edges`` is kept sorted with u < v per edge, so equal forests compare and
    hash equal.  Construction validates all invariants.
    """

    k: int
    m: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", _normalise_edges(self.edges))
        if self.k < 1:
            raise VertexOutOfRange(f"k must be >= 1, got {self.k}")
        if self.m < 1:
            raise VertexOutOfRange(f"m must be >= 1, got {self.m}")
        seen_pairs = set()
        colours_at: dict[tuple[int, int], None] = {}
        parent = list(range(self.k + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, c in self.edges:
            if not (1 <= u <= self.k and 1 <= v <= self.k):
                raise VertexOutOfRange(f"edge ({u},{v}) outside 1..{self.k}")
            if u == v:
                raise DuplicateEdge(f"loop at vertex {u}")
            if not (1 <= c <= self.m):
                raise VertexOutOfRange(f"colour S_{c} outside S_1..S_{self.m}")
            if (u, v) in seen_pairs:
                raise DuplicateEdge(f"edge ({u},{v}) appears twice")
            seen_pairs.add((u, v))
            for w in (u, v):
                if (w, c) in colours_at:
                    raise DuplicateColourAtVertex(w, c)
                colours_at[(w, c)] = None
            ru, rv = find(u), find(v)
            if ru == rv:
                raise CycleDetected(f"edge ({u},{v}) closes a cycle")
            parent[ru] = rv

    @cached_property
    def adjacency(self) -> dict[int, dict[int, int]]:
        """vertex -> {colour: neighbour}"""
        adj: dict[int, dict[int, int]] = {v: {} for v in range(1, self.k + 1)}
        for u, v, c in self.edges:
            adj[u][c] = v
            adj[v][c] = u
        return adj

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
                for y in self.adjacency[x].values():
                    if y not in comp:
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

    @classmethod
    def from_json(cls, text: str) -> "ColouredForest":
        """Parse {"k": int, "m": int, "edges": [[u, v, colour], ...]} and
        validate it as `cls`; a document of another shape raises
        MalformedJSON."""
        d = _checked_object(json.loads(text), "k", "m")
        return cls(d["k"], d["m"], _int_tuples(d, "edges", 3, "[u, v, colour]"))


@dataclass(frozen=True)
class ColouredTree(ColouredForest):
    """A connected coloured forest (exactly k-1 edges)."""

    def __post_init__(self):
        super().__post_init__()
        if len(self.edges) != self.k - 1:
            raise NotConnected(
                f"tree on {self.k} vertices needs {self.k - 1} edges, got {len(self.edges)}"
            )


def validate_forest(raw_edges: Iterable[Sequence[int]], k: int, m: int) -> ColouredForest:
    """Validate raw (u, v, colour) triples into a ColouredForest."""
    return ColouredForest(k, m, _normalise_edges(raw_edges))


def validate_tree(raw_edges: Iterable[Sequence[int]], k: int, m: int) -> ColouredTree:
    return ColouredTree(k, m, _normalise_edges(raw_edges))


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
        out = [v]
        w = self(v)
        while w != v:
            out.append(w)
            w = self(w)
        return tuple(out)

    @classmethod
    def from_cycle(cls, cycle: Sequence[int]) -> "CircularOrder":
        """Build the permutation that is the given cycle (fixing nothing else);
        the cycle must use every vertex 1..k exactly once."""
        k = len(cycle)
        perm = [0] * k
        for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
            perm[a - 1] = b
        return cls(tuple(perm))

    @classmethod
    def descending(cls, k: int) -> "CircularOrder":
        """The k-cycle (k k-1 ... 1), i.e. sigma(v) = v-1 with sigma(1) = k."""
        return cls(tuple(k if v == 1 else v - 1 for v in range(1, k + 1)))


def symbol_action(forest: ColouredForest, r: int, v: int) -> int:
    """Apply the involution S_r to vertex v."""
    return forest.adjacency[v].get(r, v)


def circular_order(forest: ColouredForest) -> CircularOrder:
    perm = []
    for v in range(1, forest.k + 1):
        w = v
        for r in range(1, forest.m + 1):
            w = forest.adjacency[w].get(r, w)
        perm.append(w)
    return CircularOrder(tuple(perm))


def is_k_cycle(order: CircularOrder) -> bool:
    """True iff the permutation is a single cycle through all k vertices."""
    k = order.k
    seen = 1
    w = order(1)
    while w != 1:
        seen += 1
        w = order(w)
        if seen > k:
            return False
    return seen == k


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


def _chain_path(adj: dict[int, dict[int, int]], v: int, i: int, j: int) -> tuple[int, ...]:
    """The maximal S_i-S_j chain through v, as a vertex path from its smaller
    end.  Each vertex has at most one edge of each colour, so walking away
    from v along S_i (or S_j) and alternating colours traces one half of the
    chain; the cost is the chain's length."""
    halves = []
    for c in (i, j):
        half, w = [], v
        while c in adj[w]:
            w = adj[w][c]
            half.append(w)
            c = i + j - c
        halves.append(half)
    path = halves[0][::-1] + [v] + halves[1]
    return tuple(path if path[0] <= path[-1] else reversed(path))


def maximal_chains(tree: ColouredForest, i: int, j: int) -> list[Chain]:
    """All maximal S_i-S_j chains; their vertex sets partition 1..k."""
    if not (1 <= i < j <= tree.m):
        raise VertexOutOfRange(f"need 1 <= i < j <= m, got ({i},{j})")
    chains = []
    seen: set[int] = set()
    for v in range(1, tree.k + 1):
        if v not in seen:
            path = _chain_path(tree.adjacency, v, i, j)
            seen.update(path)
            chains.append(Chain(i, j, path))
    chains.sort(key=lambda ch: ch.vertices[0])
    return chains


# -- canonical unlabelled form -------------------------------------------------

def _centroids(tree: ColouredTree) -> list[int]:
    if tree.k == 1:
        return [1]
    size = {}
    order = []
    parent = {1: 0}
    stack = [1]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in tree.adjacency[v].values():
            if w != parent[v]:
                parent[w] = v
                stack.append(w)
    for v in reversed(order):
        size[v] = 1 + sum(size[w] for w in tree.adjacency[v].values() if parent[w] == v)
    best, cands = None, []
    for v in order:
        heavy = max(
            [tree.k - size[v]]
            + [size[w] for w in tree.adjacency[v].values() if parent[w] == v]
        )
        if best is None or heavy < best:
            best, cands = heavy, [v]
        elif heavy == best:
            cands.append(v)
    return sorted(cands)


def _serialise(tree: ColouredForest, v: int, parent: int) -> str:
    parts = []
    for c in sorted(tree.adjacency[v]):
        w = tree.adjacency[v][c]
        if w != parent:
            parts.append(f"{c}{_serialise(tree, w, v)}")
    return "(" + ",".join(parts) + ")"


@dataclass(frozen=True)
class UnlabelledTree:
    """An m-edge-coloured tree without labelling, stored as the canonical
    labelled representative (least colour-sorted serialisation over centroid
    roots, vertex labels assigned in that serialisation's DFS order)."""

    tree: ColouredTree

    @property
    def k(self) -> int:
        return self.tree.k

    @property
    def m(self) -> int:
        return self.tree.m

    def to_json(self) -> str:
        return self.tree.to_json()


def _preorder_relabel(tree: ColouredForest, root: int) -> ColouredTree:
    label = {}
    nxt = 1

    def walk(v: int, par: int):
        nonlocal nxt
        label[v] = nxt
        nxt += 1
        for c in sorted(tree.adjacency[v]):
            w = tree.adjacency[v][c]
            if w != par:
                walk(w, v)

    walk(root, 0)
    edges = tuple((label[u], label[v], c) for u, v, c in tree.edges)
    return ColouredTree(tree.k, tree.m, edges)


def canonical_rooted(tree: ColouredTree, root: int) -> ColouredTree:
    """Canonical labelling of a rooted coloured tree: the root becomes 1 and
    the rest follow the colour-sorted DFS preorder.  Sibling edges carry
    distinct colours, so this is unique per rooted isomorphism class."""
    return _preorder_relabel(tree, root)


def canonical_unlabelled(tree: ColouredTree) -> UnlabelledTree:
    """Canonical representative modulo colour-preserving isomorphism."""
    best_key = None
    best_root = None
    for v in _centroids(tree):
        key = _serialise(tree, v, 0)
        if best_key is None or key < best_key:
            best_key, best_root = key, v
    return UnlabelledTree(_preorder_relabel(tree, best_root))


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
