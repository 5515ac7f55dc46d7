"""Seeded inputs made by the benchmark itself.

Nothing here calls the package under test: trees come out as raw
(u, v, colour) triples and angulations as JSON text, and the workloads hand
them to the package's validating constructors.  The same seed gives the same
inputs.
"""
from __future__ import annotations

import json
import random


def random_tree_edges(rng: random.Random, k: int, m: int) -> list[tuple[int, int, int]]:
    """A properly m-edge-coloured tree on 1..k: vertex v attaches to a random
    earlier vertex through a colour still free there, then the labels are
    shuffled.  Needs m >= 2 (a leaf always has a free colour)."""
    used: list[set[int]] = [set() for _ in range(k + 1)]
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
    return [(perm[u - 1], perm[v - 1], c) for u, v, c in edges]


def raw_presentation(rng: random.Random, edges) -> list[list[int]]:
    """The same edge set as a JSON-style list in random order with random
    endpoint orientation, so validation has to normalise it."""
    out = [[v, u, c] if rng.random() < 0.5 else [u, v, c] for u, v, c in edges]
    rng.shuffle(out)
    return out


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def random_labelled_angulation(rng: random.Random, k: int, m: int) -> tuple[str, list]:
    """A random m-angulation of the ((m-2)k+2)-gon with its diagonal
    colouring and a random face labelling, as the package's
    LabelledAngulation JSON, together with the dual tree's (u, v, colour)
    triples in the same labels.

    Each region is an ascending vertex run lo..hi whose wrap edge (lo, hi) is
    already coloured; its face takes the anchor plus m-2 cut points that
    split the remaining faces between the m-1 gaps.  A face reads S_1..S_m
    clockwise, so the colour of edge t of the face follows from the wrap
    colour."""
    n = (m - 2) * k + 2
    labels = list(range(1, k + 1))
    rng.shuffle(labels)
    colour = {(1, n): rng.randint(1, m)}
    faces: list[tuple[int, ...]] = []
    dual = []
    stack = [(1, n, k, None)]  # (lo, hi, faces in region, parent face index)
    while stack:
        lo, hi, count, parent = stack.pop()
        me = len(faces)
        if parent is not None:
            dual.append((labels[parent], labels[me], colour[(lo, hi)]))
        parts = _composition(rng, count - 1, m - 1)
        verts = [lo]
        for p in parts:
            verts.append(verts[-1] + (m - 2) * p + 1)
        faces.append(tuple(verts))
        wrap = colour[(lo, hi)]
        for t, p in enumerate(parts):
            a, b = verts[t], verts[t + 1]
            colour[(a, b)] = (wrap + t) % m + 1
            if p:
                stack.append((a, b, p, me))
    diagonals = sorted(e for e in colour if e[1] - e[0] > 1 and e != (1, n))
    text = json.dumps(
        {
            "m": m,
            "k": k,
            "diagonals": [list(d) for d in diagonals],
            "colours": {f"{a}-{b}": c for (a, b), c in colour.items()},
            "labels": {"-".join(map(str, f)): labels[idx] for idx, f in enumerate(faces)},
        },
        separators=(",", ":"),
    )
    return text, dual
