"""Independent checks of the package's outputs, written from the
definitions and using none of the package's code."""
from __future__ import annotations


def adjacency(k: int, edges) -> list[dict[int, int]]:
    adj: list[dict[int, int]] = [{} for _ in range(k + 1)]
    for u, v, c in edges:
        adj[u][c] = v
        adj[v][c] = u
    return adj


def sigma(k: int, m: int, edges) -> tuple[int, ...]:
    """The circular order S_m o ... o S_1 as the tuple (sigma(1), ..., sigma(k))."""
    adj = adjacency(k, edges)
    out = []
    for v in range(1, k + 1):
        w = v
        for r in range(1, m + 1):
            w = adj[w].get(r, w)
        out.append(w)
    return tuple(out)


def is_k_cycle(perm) -> bool:
    k = len(perm)
    seen, w = 1, perm[0]
    while w != 1 and seen <= k:
        seen, w = seen + 1, perm[w - 1]
    return seen == k and w == 1


def is_proper_tree(k: int, m: int, edges) -> bool:
    """k-1 edges on 1..k, colours in 1..m, no colour twice at a vertex, and
    connected (so acyclic)."""
    if len(edges) != k - 1:
        return False
    seen = set()
    for u, v, c in edges:
        if not (1 <= u <= k and 1 <= v <= k and u != v and 1 <= c <= m):
            return False
        if (u, c) in seen or (v, c) in seen:
            return False
        seen.update(((u, c), (v, c)))
    adj = adjacency(k, edges)
    reached, stack = {1}, [1]
    while stack:
        for w in adj[stack.pop()].values():
            if w not in reached:
                reached.add(w)
                stack.append(w)
    return len(reached) == k


def normalised(edges) -> tuple[tuple[int, int, int], ...]:
    return tuple(sorted((min(u, v), max(u, v), c) for u, v, c in edges))


def unlabelled_key(k: int, edges) -> str:
    """The least colour-sorted serialisation over all roots: equal exactly
    when two trees are isomorphic by a colour-preserving relabelling
    (sibling edges carry distinct colours, so a rooted serialisation is
    canonical)."""
    adj = adjacency(k, edges)

    def ser(v: int, parent: int) -> str:
        return "(" + ",".join(
            f"{c}{ser(w, v)}" for c, w in sorted(adj[v].items()) if w != parent
        ) + ")"

    return min(ser(v, 0) for v in range(1, k + 1))


def shifted_diagonals(diagonals, n: int, t: int) -> tuple[tuple[int, int], ...]:
    """Every diagonal moved t vertex steps clockwise around the n-gon."""
    out = []
    for a, b in diagonals:
        a, b = (a - 1 + t) % n + 1, (b - 1 + t) % n + 1
        out.append((min(a, b), max(a, b)))
    return tuple(sorted(out))


def arcs_noncrossing(positions) -> bool:
    """Chords (p, q), p < q, on a circle: no two interleave."""
    pos = sorted(positions)
    open_ends: list[int] = []
    for p, q in pos:
        while open_ends and open_ends[-1] < p:
            open_ends.pop()
        if open_ends and open_ends[-1] < q:
            return False
        open_ends.append(q)
    return True
