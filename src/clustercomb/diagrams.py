"""RNA m-diagrams of degree k.

A diagram has k vertices arranged clockwise on a circle, each carrying the
bases S_1..S_m clockwise, and a set of arcs joining equal bases at distinct
vertices, with every base slot incident to at most one arc.  Slot (v, r)
occupies linear position (v-1)*m + r on a circle of k*m slots; an arc is
stored as its two (vertex, base) endpoints, lower position first.

Noncrossing means no two arcs interleave as chords of the slot circle.
Connected means the graph on vertices induced by the arcs is connected
(all bases at a vertex count as a single point).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .core import _check_ints, _check_size, _FromJson, _is_int
from .errors import (
    MalformedJSON,
    SelfArc,
    ShiftCollision,
    SlotReused,
    UnequalBases,
    VertexOutOfRange,
)

Slot = tuple[int, int]  # (vertex, base)
Arc = tuple[Slot, Slot]


def _normalise_arcs(m: int, raw) -> tuple[Arc, ...]:
    """The arcs as ((vertex, base), (vertex, base)) tuples, lower position
    first, sorted by position; arcs that are not pairs of integer pairs
    raise MalformedJSON rather than being coerced."""
    if not _is_int(raw, None, 2, 2):
        raise MalformedJSON('"arcs" must be a list of [[vertex, base], [vertex, base]] '
                            "integer pairs")
    arcs = []
    for (v1, r1), (v2, r2) in raw:
        if (v1 - 1) * m + r1 > (v2 - 1) * m + r2:
            (v1, r1), (v2, r2) = (v2, r2), (v1, r1)
        arcs.append(((v1, r1), (v2, r2)))
    return tuple(sorted(arcs, key=lambda a: (a[0][0] - 1) * m + a[0][1]))


@dataclass(frozen=True)
class RnaDiagram(_FromJson):
    k: int
    m: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        _check_ints(k=self.k, m=self.m)
        object.__setattr__(self, "arcs", _normalise_arcs(self.m, self.arcs))
        _check_size(self.k, self.m)
        used: set[Slot] = set()
        for (v1, r1), (v2, r2) in self.arcs:
            for v, r in ((v1, r1), (v2, r2)):
                if not (1 <= v <= self.k and 1 <= r <= self.m):
                    raise VertexOutOfRange(f"slot ({v},S_{r}) out of range")
            if v1 == v2:
                raise SelfArc(f"arc at vertex {v1} joins a vertex to itself")
            if r1 != r2:
                raise UnequalBases(f"arc ({v1},S_{r1})-({v2},S_{r2}) joins unequal bases")
            for s in ((v1, r1), (v2, r2)):
                if s in used:
                    raise SlotReused(f"slot ({s[0]},S_{s[1]}) used by two arcs")
                used.add(s)

    def position(self, slot: Slot) -> int:
        return (slot[0] - 1) * self.m + slot[1]

    @cached_property
    def arc_positions(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.position(a), self.position(b)) for a, b in self.arcs)

    def used_slots(self) -> set[Slot]:
        return {s for arc in self.arcs for s in arc}

    def to_json(self) -> str:
        return json.dumps(
            {"k": self.k, "m": self.m, "arcs": [[list(a), list(b)] for a, b in self.arcs]},
            separators=(",", ":"),
        )


# {"k": int, "m": int, "arcs": [[[v1, r], [v2, r]], ...]} as an RnaDiagram
validate_diagram = RnaDiagram.from_dict


def is_noncrossing(diagram: RnaDiagram) -> bool:
    pos = diagram.arc_positions
    for i in range(len(pos)):
        p1, p2 = pos[i]
        for j in range(i + 1, len(pos)):
            q1, q2 = pos[j]
            if (p1 < q1 < p2 < q2) or (q1 < p1 < q2 < p2):
                return False
    return True


def is_connected(diagram: RnaDiagram) -> bool:
    parent = list(range(diagram.k + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (v1, _), (v2, _) in diagram.arcs:
        parent[find(v1)] = find(v2)
    return len({find(v) for v in range(1, diagram.k + 1)}) == 1


def arc_shift(diagram: RnaDiagram, steps: int) -> RnaDiagram:
    """Move every arc endpoint `steps` slots anticlockwise (clockwise for
    negative steps) on the slot circle.  Both endpoints of an arc move by the
    same amount, so equal bases stay equal; ShiftCollision guards the
    invariant anyway."""
    n = diagram.k * diagram.m
    new_arcs = []
    for a, b in diagram.arcs:
        moved = []
        for s in (a, b):
            p = (diagram.position(s) - 1 - steps) % n + 1
            moved.append(((p - 1) // diagram.m + 1, (p - 1) % diagram.m + 1))
        if moved[0][1] != moved[1][1]:
            raise ShiftCollision(f"shift by {steps} breaks arc {a}-{b}")
        new_arcs.append(tuple(moved))
    return RnaDiagram(diagram.k, diagram.m, tuple(new_arcs))


def addable_arcs(diagram: RnaDiagram) -> list[Arc]:
    """Arcs on free equal-base slots whose addition keeps the diagram
    noncrossing (the diagram itself is assumed noncrossing)."""
    used = diagram.used_slots()
    pos = diagram.arc_positions
    out = []
    for r in range(1, diagram.m + 1):
        free = [v for v in range(1, diagram.k + 1) if (v, r) not in used]
        for i in range(len(free)):
            for j in range(i + 1, len(free)):
                a: Arc = ((free[i], r), (free[j], r))
                p1, p2 = diagram.position(a[0]), diagram.position(a[1])
                if all(not (p1 < q1 < p2 < q2 or q1 < p1 < q2 < p2) for q1, q2 in pos):
                    out.append(a)
    return out


def is_saturated(diagram: RnaDiagram) -> bool:
    """No single arc can be added without creating a crossing."""
    return not addable_arcs(diagram)
