"""The R/L induction calculus on labelled m-edge-coloured trees.

R_{i,j} acts on a maximal S_i-S_j chain by swapping the two vertex labels
across every S_j-coloured chain edge simultaneously (proper colouring gives
each vertex at most one such edge), exchanging the colours S_i and S_j on the
chain edges, and leaving every other edge untouched, so detached subtrees
end up reattached at the vertex carrying the same label as before.  L_{i,j}
swaps across the S_i-coloured edges instead; the two maps are mutually
inverse.  R_i and L_i abbreviate the adjacent case j = i+1, the only
inductions that preserve the circular order in general.

Induction equivalence is the closure under adjacent R_i/L_i steps; the
equivalence class of a tree is exactly the set of trees sharing its circular
order, so orbits have size T_{k,m}.  `orbit` builds that class from the
rooted tree shapes rather than searching it by steps; the verify suite
checks it against the R_i closure.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import (
    Chain,
    CircularOrder,
    ColouredTree,
    Edge,
    _chain_path,
    _check_connected,
    _check_ints,
    _FromJson,
    _is_int,
    circular_order,
    maximal_chains,
)
from .counting import _guard, _order_class, enumerate_trees
from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    InvariantBroken,
    MalformedJSON,
    NotMaximalChain,
    SymbolMismatch,
    ValidationError,
    VertexOutOfRange,
    WrongColourSet,
)


@dataclass(frozen=True)
class InductionStep(_FromJson):
    """In JSON {"kind": "R" | "L", "i": int, "j": int or null (i+1), "chain": [...]}."""

    kind: str  # "R" or "L"
    i: int
    j: int | None  # None means i+1
    chain: tuple[int, ...]  # vertex set identifying the maximal chain

    def __post_init__(self):
        _check_ints(i=self.i)
        if self.j is not None and not _is_int(self.j):
            raise MalformedJSON(f'"j" must be an integer or null, got {self.j!r}')
        if not isinstance(self.chain, (list, tuple)):
            raise NotMaximalChain(f"chain {self.chain!r} is not a list of vertices")
        object.__setattr__(self, "chain", tuple(self.chain))
        if self.kind not in ("R", "L"):
            raise ValidationError(f'step kind must be "R" or "L", got {self.kind!r}')


def _resolve_chain(tree: ColouredTree, chain, i: int, j: int) -> Chain:
    """The maximal S_i-S_j chain with the given vertex set, walked from any
    one of its vertices (a maximal chain is determined by each of them)."""
    if isinstance(chain, Chain):
        if (chain.i, chain.j) != (i, j):
            raise SymbolMismatch(f"chain is for colours ({chain.i},{chain.j}), not ({i},{j})")
        want = chain.vertex_set
    else:
        try:
            want = frozenset(chain)
        except TypeError:
            raise NotMaximalChain(f"chain {chain!r} is not a list of vertices") from None
    if not (1 <= i < j <= tree.m):
        raise VertexOutOfRange(f"need 1 <= i < j <= m, got ({i},{j})")
    v = next(iter(want), None)
    if _is_int(v) and 1 <= v <= tree.k:
        path = _chain_path(tree.nbr, v, i, j)
        if frozenset(path) == want:
            return Chain(i, j, path)
    raise NotMaximalChain(f"{sorted(want)} is not a maximal S_{i}-S_{j} chain")


def _successor_edges(
    tree: ColouredTree, path: tuple[int, ...], i: int, j: int, swap_colour: int
) -> tuple[Edge, ...]:
    """The sorted edge tuple of R_{i,j} (swap_colour = j) or L_{i,j}
    (swap_colour = i) on the maximal S_i-S_j chain `path` of `tree`, which
    has at least one edge.  Only the chain edges change.  Their colours
    alternate, so the slot table at the first vertex gives them all.  The
    labels are swapped simultaneously across the chain edges of the swapped
    colour, every other edge, so the swaps are disjoint.  By maximality, the
    S_i and S_j edges at the chain's vertices are exactly its edges."""
    c = i if tree.nbr[path[0]][i] == path[1] else j
    lab = list(path)  # lab[t]: the label that moves to path[t]'s place
    for t in range(0 if c == swap_colour else 1, len(lab) - 1, 2):
        lab[t], lab[t + 1] = lab[t + 1], lab[t]
    inside = set(path)
    new = [e for e in tree.edges if e[0] not in inside or (e[2] != i and e[2] != j)]
    for x, y in zip(lab, lab[1:]):
        c = i + j - c  # each chain edge exchanges S_i and S_j
        new.append((x, y, c) if x < y else (y, x, c))
    new.sort()
    return tuple(new)


def _apply(tree: ColouredTree, chain, i: int, j: int, swap_colour: int) -> ColouredTree:
    path = _resolve_chain(tree, chain, i, j).vertices
    if len(path) == 1:
        return tree
    # _successor_edges is sorted and proper (see its docstring), with as
    # many edges as the input, so the successor of a tree is a tree
    _check_connected(tree)
    return ColouredTree._trusted(tree.k, tree.m, _successor_edges(tree, path, i, j, swap_colour))


def apply_R(tree: ColouredTree, chain, i: int, j: int | None = None) -> ColouredTree:
    """R_{i,j} on a maximal chain (j defaults to i+1)."""
    j = i + 1 if j is None else j
    return _apply(tree, chain, i, j, swap_colour=j)


def apply_L(tree: ColouredTree, chain, i: int, j: int | None = None) -> ColouredTree:
    """L_{i,j} on a maximal chain (j defaults to i+1); inverse of apply_R."""
    j = i + 1 if j is None else j
    return _apply(tree, chain, i, j, swap_colour=i)


def apply_step(tree: ColouredTree, step: InductionStep) -> ColouredTree:
    fn = apply_R if step.kind == "R" else apply_L
    return fn(tree, step.chain, step.i, step.j)


def apply_steps(tree: ColouredTree, steps: Iterable[InductionStep]) -> ColouredTree:
    for s in steps:
        tree = apply_step(tree, s)
    return tree


def _chains_within(tree: ColouredTree, i: int, j: int, inside: frozenset[int]) -> list[Chain]:
    return [
        c
        for c in maximal_chains(tree, i, j)
        if len(c.vertices) > 1 and c.vertex_set <= inside
    ]


def _middle_edge(tree: ColouredTree, chain: Chain) -> tuple[int, int] | None:
    """The first (vertex, colour), in path and colour order, of an edge
    coloured S_{i+1}..S_{j-1} at the chain; None if there is none.  Each such
    edge leaves the chain: one inside would close a cycle with its path."""
    nbr, middle = tree.nbr, range(chain.i + 1, chain.j)
    return next(((v, c) for v in chain.vertices for c in middle if nbr[v][c]), None)


def decompose_Rij(
    tree: ColouredTree, chain, i: int, j: int
) -> list[InductionStep]:
    """Write R_{i,j} on a chain with no incident S_{i+1}..S_{j-1} edges as a
    sequence of adjacent steps: R_l ascending on the subchains, R_{j-1} on the
    whole chain, then R_l descending.  The composition is checked against
    apply_R before returning."""
    c = _resolve_chain(tree, chain, i, j)
    if hit := _middle_edge(tree, c):
        v, col = hit
        raise HypothesisViolated(f"edge of colour S_{col} at vertex {v} touches the chain")
    inside = c.vertex_set
    steps: list[InductionStep] = []
    cur = tree
    for l in range(i, j - 1):
        for sub in _chains_within(cur, l, l + 1, inside):
            steps.append(InductionStep("R", l, l + 1, sub.vertices))
            cur = apply_R(cur, sub, l, l + 1)
    whole = _resolve_chain(cur, inside, j - 1, j)
    steps.append(InductionStep("R", j - 1, j, whole.vertices))
    cur = apply_R(cur, whole, j - 1, j)
    for l in range(j - 2, i - 1, -1):
        for sub in _chains_within(cur, l, l + 1, inside):
            steps.append(InductionStep("R", l, l + 1, sub.vertices))
            cur = apply_R(cur, sub, l, l + 1)
    direct = apply_R(tree, c, i, j)
    if cur != direct:
        raise InvariantBroken("adjacent decomposition disagrees with R_{i,j}")
    return steps


def normal_form(tree: ColouredTree) -> tuple[ColouredTree, list[InductionStep]]:
    """An induction-equivalent tree coloured only by S_1 and S_m, together
    with the adjacent R/L steps reaching it.  Stage l = 2..m-1 eliminates
    colour S_l by a breadth-first search over R_{1,l} and L_{l,l+1} moves
    (the R_{1,l} moves recorded through their adjacent decompositions).
    The searches stay inside the tree's class of T_{k,m} trees, so it is
    refused before any step when that exceeds the CLUSTERCOMB_MAX_WORK work
    limit."""
    _guard("normal_form", ("T", tree.k, tree.m))
    m = tree.m
    steps: list[InductionStep] = []
    cur = tree
    for l in range(2, m):
        cur, stage_steps = _eliminate_colour(cur, l)
        steps.extend(stage_steps)
    if any(c not in (1, m) for _, _, c in cur.edges):
        raise InvariantBroken("normal form keeps a colour other than S_1 and S_m")
    if apply_steps(tree, steps) != cur:
        raise InvariantBroken("normal form steps do not replay")
    return cur, steps


def _eliminate_colour(tree: ColouredTree, l: int) -> tuple[ColouredTree, list[InductionStep]]:
    """BFS over R_{1,l} and L_{l,l+1} moves until no edge is coloured S_l.
    The input must have no colours S_2..S_{l-1}; the moves never reintroduce
    them, and a result is guaranteed to exist.  Successors are compared on
    their edge tuples, and only a tree not reached before is built."""

    def done(t: ColouredTree) -> bool:
        return all(c != l for _, _, c in t.edges)

    if done(tree):
        return tree, []
    _check_connected(tree)
    k, m = tree.k, tree.m
    frontier = [tree]
    parents: dict[tuple[Edge, ...], tuple[ColouredTree, str, Chain] | None] = {tree.edges: None}
    while frontier:
        nxt = []
        for t in frontier:
            moves: list[tuple[str, Chain]] = []
            for c in maximal_chains(t, 1, l):
                if len(c.vertices) > 1:
                    moves.append(("R1l", c))
            for c in maximal_chains(t, l, l + 1):
                if len(c.vertices) > 1:
                    moves.append(("Lll1", c))
            for kind, c in moves:
                # R_{1,l} and L_{l,l+1} both swap labels across the S_l edges
                i, j = (1, l) if kind == "R1l" else (l, l + 1)
                edges = _successor_edges(t, c.vertices, i, j, swap_colour=l)
                if edges in parents:
                    continue
                parents[edges] = (t, kind, c)
                t2 = ColouredTree._trusted(k, m, edges)  # a tree, as in _apply
                if done(t2):
                    return t2, _unwind(edges, parents, l)
                nxt.append(t2)
        frontier = nxt
    raise InvariantBroken(f"no S_{l}-free tree reachable; this should be impossible")


def _unwind(target, parents, l):
    rev = []
    node = target
    while parents[node] is not None:
        prev, kind, c = parents[node]
        rev.append((prev, kind, c))
        node = prev.edges
    rev.reverse()
    steps: list[InductionStep] = []
    for prev, kind, c in rev:
        if kind == "R1l":
            steps.extend(decompose_Rij(prev, c, 1, l))
        else:
            steps.append(InductionStep("L", l, l + 1, c.vertices))
    return steps


def _class_members(tree: ColouredTree) -> Iterator[ColouredTree]:
    """A generator of each member of the induction equivalence class of a
    tree once: the trees sharing its circular order, built shape by shape
    by `counting._order_class`, with no R/L step taken.  The class has
    T_{k,m} members and is refused, at this call, when that exceeds the
    CLUSTERCOMB_MAX_WORK work limit, or their T(k-1) edges ten times it."""
    _guard("orbit", ("T", tree.k, tree.m), tree.k - 1)
    return _order_class(tree.m, circular_order(tree))


def orbit(tree: ColouredTree) -> frozenset[ColouredTree]:
    """`_class_members` as a set, which the verify suite's induction check
    compares with the R_i closure of the tree."""
    return frozenset(_class_members(tree))


def equivalent(g: ColouredTree, g2: ColouredTree) -> bool:
    """Two trees are induction equivalent iff their circular orders agree."""
    if (g.k, g.m) != (g2.k, g2.m):
        raise DimensionMismatch(f"({g.k},{g.m}) vs ({g2.k},{g2.m})")
    return circular_order(g) == circular_order(g2)


def sigma_invariance_witness(
    k: int, m: int, i: int, j: int
) -> tuple[ColouredTree, Chain] | None:
    """Search the trees on (k, m) for a maximal S_i-S_j chain on which R_{i,j}
    changes the circular order; returns the first witness or None.

    Only the class of (1 2 ... k) is scanned, sorted by edges, which is the
    first class `enumerate_trees(k, m)` yields, and it decides for all
    trees.  A relabelling lambda maps the maximal chains of a tree t onto
    those of lambda(t), commutes with R_{i,j} and conjugates the circular
    order: sigma(lambda(t)) = lambda sigma(t) lambda^-1.  So R_{i,j} on c
    changes sigma(t) exactly when R_{i,j} on lambda(c) changes
    sigma(lambda(t)).  Every tree is a relabelling of one in the class,
    since all k-cycles are conjugate, so a class with no witness means no
    tree has one.  The scan is guarded by T_{k,m}, not U_{k,m}."""
    for tree in enumerate_trees(k, m, CircularOrder.from_cycle(range(1, k + 1))):
        for c in maximal_chains(tree, i, j):
            if len(c.vertices) == 1:
                continue
            t2 = apply_R(tree, c, i, j)
            if circular_order(t2) != circular_order(tree):
                return tree, c
    return None


def chain_order(tree: ColouredTree, i: int, j: int) -> int:
    """Least p >= 1 with R_{i,j}^p = identity on a tree coloured only by S_i
    and S_j (a line); equals k."""
    if any(c not in (i, j) for _, _, c in tree.edges):
        raise WrongColourSet(f"tree uses colours outside {{S_{i}, S_{j}}}")
    whole = frozenset(range(1, tree.k + 1))
    cur = apply_R(tree, whole, i, j)
    p = 1
    while cur != tree:
        cur = apply_R(cur, whole, i, j)
        p += 1
        if p > 4 * tree.k + 4:
            raise InvariantBroken("R_{i,j} order exceeded 4k; broken involution")
    return p
