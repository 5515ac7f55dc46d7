"""m-angulations of an ((m-2)k+2)-gon.

Polygon vertices are 1..n clockwise.  A valid m-angulation has exactly k-1
pairwise noncrossing diagonals cutting the polygon into k m-gon faces; every
diagonal cuts off arcs of length 1 mod (m-2).  One structure reads faces,
_Dissection: each vertex's neighbours in clockwise order, a face walked by
stepping to the neighbour after the one it came from.  Faces are stored as
ascending vertex tuples, which is their clockwise order.

A diagonal-coloured angulation colours every edge (boundary sides and
diagonals) so that each face reads S_1, S_2, ..., S_m in clockwise order;
a colouring is fixed by any one edge's colour, vertex by vertex.  Rooted and
m-gon-labelled variants carry a distinguished face, respectively a bijection
faces -> 1..k.  `_trusted` builds, unchecked, what `colour_from_seed` and
`all_colourings` (the vertex rule the colour check compares with) and
`canonical_rotation` (a rotation of a valid object) produce.

Mutation is diagonal rotation: remove a diagonal, merge its two faces into a
(2m-2)-gon, and re-split one vertex step anticlockwise.  More generally a
turn of a region (a union of faces) moves every vertex of the region's
internal diagonals and faces to its predecessor in the region's cycle; a
diagonal rotation is the turn of its (2m-2)-gon.  rotate_one_step realizes
the turn of the whole polygon as an explicit sequence of diagonal rotations;
induct_R_on_angulation implements chain induction on a snake (a maximal
S_i-S_{i+1} chain of the dual tree, read as faces) as region turns: first
the (2m-2)-gon of every S_{i+1}-coloured snake diagonal, which is a diagonal
rotation; then each subpolygon hanging off a non-rotated snake end, with
that end's face, which is the whole-polygon turn of a smaller angulation.
So induction is a composition of mutations.
"""
from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .core import ColouredTree, _check_ints, _FromJson, _is_int, maximal_chains
from .errors import (
    BadDiagonalModulus,
    DiagonalsCross,
    InvariantBroken,
    MalformedJSON,
    NotADiagonal,
    NotASnake,
    SymbolOutOfRange,
    VertexOutOfRange,
    WrongDiagonalCount,
    WrongFaceShape,
)

Diagonal = tuple[int, int]
Face = tuple[int, ...]


def _norm_edge(a: int, b: int) -> Diagonal:
    return (a, b) if a < b else (b, a)


def _checked_edge(name: str, edge) -> Sequence[int]:
    """An [a, b] edge argument, refused rather than coerced when it is not
    a pair of ints."""
    if not _is_int(edge, 2):
        raise MalformedJSON(f'"{name}" must be an [a, b] integer pair, got {edge!r}')
    return edge


def _trusted(cls, **fields):
    """A `cls` with these fields, stored as its constructor stores them, unchecked."""
    self = object.__new__(cls)
    self.__dict__.update(fields)
    return self


@dataclass(frozen=True)
class MAngulation(_FromJson):
    """k-1 noncrossing diagonals of the n-gon, each cutting off arcs of
    length 1 mod (m-2).  No face is read to check that every face is an
    m-gon, since these checks imply it: a face with s vertices has s
    clockwise gaps, each 1 mod (m-2) (a side, or a diagonal's arc), summing
    to n = 2 mod (m-2), so s = 2 mod (m-2) and s >= m; and the k faces'
    sizes sum to n + 2(k-1) = mk, so each has exactly m vertices."""

    m: int
    k: int
    diagonals: tuple[Diagonal, ...]

    def __post_init__(self):
        _check_ints(m=self.m, k=self.k)
        if not _is_int(self.diagonals, None, 2):
            raise MalformedJSON('"diagonals" must be a list of [a, b] integer lists')
        object.__setattr__(
            self, "diagonals", tuple(sorted(_norm_edge(*d) for d in self.diagonals))
        )
        if self.m < 3 or self.k < 1:
            raise VertexOutOfRange("need m >= 3 and k >= 1")
        n = self.n
        if len(self.diagonals) != self.k - 1:
            raise WrongDiagonalCount(
                f"expected {self.k - 1} diagonals, got {len(self.diagonals)}"
            )
        seen = set()
        for a, b in self.diagonals:
            if not (1 <= a < b <= n):
                raise VertexOutOfRange(f"diagonal [{a},{b}] out of range")
            if b - a < 2 or b - a > n - 2:
                raise BadDiagonalModulus(f"[{a},{b}] is a polygon side, not a diagonal")
            if (b - a) % (self.m - 2) != 1 % (self.m - 2):
                raise BadDiagonalModulus(
                    f"[{a},{b}] does not cut off arcs of length 1 mod {self.m - 2}"
                )
            if (a, b) in seen:
                raise WrongDiagonalCount(f"diagonal [{a},{b}] repeated")
            seen.add((a, b))
        # nesting pass: the stack holds the diagonals enclosing the current
        # start a; one ending strictly between a and b crosses [a,b]
        enclosing: list[Diagonal] = []
        for a, b in sorted(self.diagonals, key=lambda d: (d[0], -d[1])):
            while enclosing and enclosing[-1][1] <= a:
                enclosing.pop()
            if enclosing and enclosing[-1][1] < b:
                c, d = enclosing[-1]
                raise DiagonalsCross(f"[{c},{d}] crosses [{a},{b}]")
            enclosing.append((a, b))

    @property
    def n(self) -> int:
        return (self.m - 2) * self.k + 2

    @cached_property
    def _dissection(self) -> _Dissection:
        """Read-only: the face lookups, the colourings and canonical_rotation read it."""
        return _Dissection(self.n, self.diagonals)

    @cached_property
    def _face_of(self) -> dict[Diagonal, Face]:
        return self._dissection.trace()

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        return tuple(sorted(self._face_of.values()))

    def is_boundary(self, edge: Diagonal) -> bool:
        a, b = edge
        return b - a == 1 or (a == 1 and b == self.n)

    def edges(self) -> list[Diagonal]:
        n = self.n
        sides = [(v, v + 1) for v in range(1, n)] + [(1, n)]
        return sides + list(self.diagonals)

    @cached_property
    def diagonal_faces(self) -> dict[Diagonal, tuple[Face, Face]]:
        """The face each diagonal keys in the trace, and that of the tightest
        key around it, which the trace lists earlier: one stack finds it."""
        f, outer, stack = self._face_of, {}, []
        for a, b in f:
            while stack and stack[-1][1] <= a:
                stack.pop()
            if stack:
                outer[a, b] = f[stack[-1]]
            stack.append((a, b))
        return {d: (f[d], outer[d]) if f[d] < outer[d] else (outer[d], f[d])
                for d in self.diagonals}

    def face_with_edge(self, edge: Diagonal) -> Face:
        """The least face on an edge: the first face holding both its ends."""
        a, b = _norm_edge(*_checked_edge("edge", edge))
        side = 1 <= a < b <= self.n and self.is_boundary((a, b))
        if not (side or (a, b) in self._dissection.diags):
            raise NotADiagonal(f"{(a, b)} is not an edge of the dissection")
        return next(f for f in self.faces if a in f and b in f)

    def to_json(self) -> str:
        return _encode(self.m, self.k, self.diagonals)


# the fields every angulation format shares, {"m": int, "k": int,
# "diagonals": [[a, b], ...]}, as an MAngulation
validate_angulation = MAngulation.from_dict


def _encode(m: int, k: int, diagonals, colours=None, root=None, labels=None) -> str:
    """The JSON text of an angulation's fields, the one format behind every
    to_json and the ranking in canonical_rotation."""
    d = {"m": m, "k": k, "diagonals": [list(x) for x in diagonals]}
    if colours is not None:
        d["colours"] = {_edge_key(e): c for e, c in colours}
    if root is not None:
        d["root"] = _face_key(root)
    if labels is not None:
        d["labels"] = {_face_key(f): l for f, l in labels}
    return json.dumps(d, separators=(",", ":"))


def _edge_key(e: Diagonal) -> str:
    return f"{e[0]}-{e[1]}"


def _face_key(f: Face) -> str:
    return "-".join(str(v) for v in f)


def _parse_key(s, field: str) -> tuple[int, ...]:
    parts = s.split("-") if isinstance(s, str) else []
    if not parts or not all(p.isascii() and p.isdigit() for p in parts):
        raise MalformedJSON(f'"{field}" has {s!r} where "a-b-..." is expected')
    return tuple(int(p) for p in parts)


def _keyed(d: dict, field: str) -> tuple[tuple[tuple[int, ...], object], ...]:
    """The entries of the JSON object d[field], their "a-b-..." keys parsed."""
    items = d.get(field)
    if not isinstance(items, dict):
        raise MalformedJSON(f'"{field}" must map "a-b-..." keys to integers')
    return tuple((_parse_key(key, field), v) for key, v in items.items())


def _int_map(entries, field: str, width: int | None) -> dict[tuple[int, ...], int]:
    """`entries`, pairs of a key of `width` integers and an integer, as a
    dict in key order; another shape raises MalformedJSON naming the field."""
    try:
        d = dict(sorted(entries)) if isinstance(entries, (list, tuple)) else None
    except (TypeError, ValueError):  # entries that are no pairs, or list keys
        d = None
    if d is None or not (_is_int(list(d), None, width) and _is_int(list(d.values()), None)):
        raise MalformedJSON(f'"{field}" must map "a-b-..." keys to integers')
    return d


@dataclass(frozen=True)
class ColouredAngulation(_FromJson):
    """A diagonal-coloured m-angulation; ``colours`` maps every edge of the
    dissection (sides and diagonals) to a symbol so that each face reads
    S_1..S_m clockwise.  Such a colouring is _vertex_rule of its side
    (1, 2), which the check compares it with: each face at v enters v on
    the earlier of two consecutive edges in v's clockwise order and leaves
    on the later, so the later one carries the next colour."""

    ang: MAngulation
    colours: tuple[tuple[Diagonal, int], ...]

    def __post_init__(self):
        cmap = _int_map(self.colours, "colours", 2)
        object.__setattr__(self, "colours", tuple(cmap.items()))
        if set(cmap) != set(self.ang.edges()):
            raise WrongFaceShape("colouring must cover exactly the dissection's edges")
        rule = _vertex_rule(self.ang, cmap[1, 2])
        if rule != cmap:
            e = min(e for e in cmap if rule[e] != cmap[e])
            raise WrongFaceShape(f"faces do not read S_1..S_m clockwise: edge {e} has "
                                 f"S_{cmap[e]}, side (1, 2) forces S_{rule[e]}")

    @cached_property
    def colour(self) -> dict[Diagonal, int]:
        return dict(self.colours)

    @property
    def m(self) -> int:
        return self.ang.m

    @property
    def k(self) -> int:
        return self.ang.k

    def to_json(self) -> str:
        return _encode(self.m, self.k, self.ang.diagonals, self.colours)

    @classmethod
    def from_dict(cls, d) -> "ColouredAngulation":
        return cls(MAngulation.from_dict(d), _keyed(d, "colours"))


@dataclass(frozen=True)
class RootedAngulation(_FromJson):
    base: ColouredAngulation
    root: Face

    def __post_init__(self):
        if not _is_int(self.root, None):
            raise MalformedJSON(f'"root" must be a face, a list of integers, got {self.root!r}')
        object.__setattr__(self, "root", tuple(self.root))
        if self.root not in self.base.ang.faces:
            raise WrongFaceShape(f"root {self.root} is not a face")

    def to_json(self) -> str:
        b = self.base
        return _encode(b.m, b.k, b.ang.diagonals, b.colours, root=self.root)

    @classmethod
    def from_dict(cls, d) -> "RootedAngulation":
        return cls(ColouredAngulation.from_dict(d), _parse_key(d.get("root"), "root"))


@dataclass(frozen=True)
class LabelledAngulation(_FromJson):
    base: ColouredAngulation
    labels: tuple[tuple[Face, int], ...]  # face -> 1..k, a bijection

    def __post_init__(self):
        lmap = _int_map(self.labels, "labels", None)
        object.__setattr__(self, "labels", tuple(lmap.items()))
        faces = set(self.base.ang.faces)
        if set(lmap) != faces or sorted(lmap.values()) != list(
            range(1, self.base.ang.k + 1)
        ):
            raise WrongFaceShape("labels must biject faces onto 1..k")

    @cached_property
    def label(self) -> dict[Face, int]:
        return dict(self.labels)

    def to_json(self) -> str:
        b = self.base
        return _encode(b.m, b.k, b.ang.diagonals, b.colours, labels=self.labels)

    @classmethod
    def from_dict(cls, d) -> "LabelledAngulation":
        return cls(ColouredAngulation.from_dict(d), _keyed(d, "labels"))


# -- colouring -------------------------------------------------------------------

def colour_from_seed(
    ang: MAngulation, seed_edge: Sequence[int], seed_colour: int
) -> ColouredAngulation:
    """The unique colouring extending seed_edge -> seed_colour under the
    clockwise S_1..S_m rule: the vertex rule, every colour shifted by one
    offset."""
    _check_ints(seed_colour=seed_colour)
    if not (1 <= seed_colour <= ang.m):
        raise SymbolOutOfRange(f"seed colour S_{seed_colour} out of range")
    seed = _norm_edge(*_checked_edge("seed_edge", seed_edge))
    rule = _vertex_rule(ang, 1)
    if seed not in rule:
        raise NotADiagonal(f"{seed} is not an edge of the dissection")
    off = seed_colour - rule[seed]
    colours = tuple(sorted((e, (c + off - 1) % ang.m + 1) for e, c in rule.items()))
    return _trusted(ColouredAngulation, ang=ang, colours=colours)


def all_colourings(ang: MAngulation) -> list[ColouredAngulation]:
    """The m colourings of an angulation, one per colour of side (1, 2)."""
    return [colour_from_seed(ang, (1, 2), c) for c in range(1, ang.m + 1)]


def _vertex_rule(ang: MAngulation, c: int) -> dict[Diagonal, int]:
    """The colouring with side (1, 2) coloured c.  Take v = 2, ..., n, 1 in
    turn: the diagonals at v, in decreasing (w - v) mod n, take the colours
    after side (v-1, v), and side (v, v+1) the one after those (a diagonal
    is coloured at both ends, alike when the colouring exists)."""
    m, n, gaps = ang.m, ang.n, ang._dissection.gaps
    out: dict[Diagonal, int] = {}
    for v in (*range(2, n + 1), 1):
        for i, g in enumerate(gaps[v]):
            w = (v - g - 1) % n + 1
            out[(v, w) if v < w else (w, v)] = (c + i - 1) % m + 1
        c = (c + len(gaps[v]) - 2) % m + 1
    return out


# -- rotation machinery ------------------------------------------------------------

class _Dissection:
    """A mutable set of noncrossing diagonals of the n-gon, the one
    structure that reads faces.  gaps[v] holds, ascending, the distances
    (v - w) mod n of v's neighbours w, polygon sides included: its
    neighbours in clockwise order, from v-1 (gap 1) through the diagonals
    to v+1 (gap n-1).  A face is walked clockwise by one rule: at a,
    entered from p, step to the neighbour after p."""

    def __init__(self, n: int, diagonals: Iterable[Diagonal]):
        self.n = n
        self.diags: set[Diagonal] = set()
        self.gaps: list[list[int]] = [[]] + [[1, n - 1] for _ in range(n)]
        for d in diagonals:
            self.add(d)

    def add(self, d: Diagonal) -> None:
        self.diags.add(d)
        for a, b in (d, d[::-1]):
            insort(self.gaps[a], (a - b) % self.n)

    def remove(self, d: Diagonal) -> None:
        self.diags.remove(d)
        for a, b in (d, d[::-1]):
            self.gaps[a].remove((a - b) % self.n)

    def turn(self, a: int, p: int, step: int = 1) -> int:
        """The neighbour of a `step` places after its neighbour p."""
        gs = self.gaps[a]
        return (a - gs[bisect_left(gs, (a - p) % self.n) + step] - 1) % self.n + 1

    def trace(self) -> dict[Diagonal, Face]:
        """The faces, each keyed by its least and greatest vertex v < w: the
        diagonal (v, w) it closes, or the side (1, n).  Each face is walked
        once, in ascending order from v, where its angle p, v, q is the one
        with p, q > v (both gaps at least v).  The keys come by ascending v,
        and at each v by descending w."""
        n, face_of = self.n, {}
        for v, gs in enumerate(self.gaps):
            for g in gs[bisect_left(gs, v) + 1 :]:
                walk, a, w = [v], v, (v - g - 1) % n + 1
                while w != v:
                    walk.append(w)
                    a, w = w, self.turn(w, a)
                face_of[v, a] = tuple(walk)
        return face_of

    def sector(self, v: int, p: int, q: int, region: set[int] | dict[int, int]) -> list[Diagonal]:
        """The region's diagonals at v, clockwise: v's neighbours in the
        region (p before v and q after it in its cycle) strictly after p and
        before q, where every region vertex but v, p, q lies."""
        n, gs = self.n, self.gaps[v]
        ws = ((v - g - 1) % n + 1
              for g in gs[bisect_right(gs, (v - p) % n) : bisect_left(gs, (v - q) % n)])
        return [(v, w) if v < w else (w, v) for w in ws if w in region]


def _primitive_rotate(dis: _Dissection, d: Diagonal) -> Diagonal:
    """Rotate diagonal d one step anticlockwise inside the (2m-2)-gon obtained
    by removing it, mutating dis; returns the new diagonal."""
    d = _norm_edge(*d)
    if d not in dis.diags:
        raise NotADiagonal(f"{d} is not a diagonal of the dissection")
    a, b = d
    # clockwise, the merged (2m-2)-gon reads the face on the arc a..b, then
    # the face on the arc b..a; each end of d moves to its predecessor
    # there, its neighbour before the other end
    new_d = _norm_edge(dis.turn(a, b, -1), dis.turn(b, a, -1))
    dis.remove(d)
    dis.add(new_d)
    return new_d


def diagonal_rotate(ang: MAngulation, diag: Sequence[int]) -> MAngulation:
    """One anticlockwise rotation of a single diagonal (a mutation step)."""
    dis = _Dissection(ang.n, ang.diagonals)
    _primitive_rotate(dis, _norm_edge(*_checked_edge("diag", diag)))
    return MAngulation(ang.m, ang.k, tuple(sorted(dis.diags)))


def _turned(face: Face, region: Sequence[int], pos: dict[int, int]) -> Face:
    """A face after one anticlockwise turn of a region (a union of faces, its
    vertices listed clockwise at positions pos): each vertex moves to its
    predecessor in the region's cycle."""
    return tuple(sorted(region[pos[v] - 1] for v in face))


def _rotate_region(dis: _Dissection, m: int, seq: list[Diagonal]) -> None:
    """Rotate the dissection one vertex step anticlockwise as primitive
    diagonal rotations, appended to seq.

    Peel a region R (a union of faces, linked clockwise by nxt, prv): at its
    ear, the least run v_0..v_{m-1} (as a sorted tuple; a heap holds them,
    checked when popped) closed by a diagonal e, rotate R's fan at v_0
    farthest first (ascending gap) onto p = prv[v_0], then all but e back one
    step clockwise, nearest p first; unlink v_0..v_{m-3}, so R' has the side
    (p, v_{m-2}).

    A level is right if R's diagonals I end as t_R(I), each vertex moved to
    its predecessor in R.  Later levels move only those of R', so if the next
    level is right this one is iff t_R'(I') + F = t_R(I) (+ a disjoint
    union), I' those of R' after the level, F those then at v_0..v_{m-3}
    plus (p, v_{m-2}).  A diagonal kept off v_0..v_{m-2} is in I and I', its
    image (t_R, t_R' differ only at v_{m-2}) in no other term; cancelling
    leaves t_R'(B) + F = t_R(A), A the level's net removals plus I at
    v_0..v_{m-2}, B its net additions inside R' plus I' at v_{m-2}.  The last
    region has no diagonal, so all levels are right iff all these identities
    hold; each is checked right after its level."""
    n, diags = dis.n, dis.diags
    nxt, prv, alive = [0, *range(2, n + 1), 1], [0, n, *range(1, n)], set(range(1, n + 1))
    heap, toggled = [], set()  # the ears; what the level removed or added, net

    def run(v: int) -> list[int]:
        out = [v]
        for _ in range(m - 1):
            out.append(nxt[out[-1]])
        return out

    def rotate(d: Diagonal) -> Diagonal:
        seq.append(d)
        out = _primitive_rotate(dis, d)
        toggled.symmetric_difference_update({d} ^ {out})
        return out

    def inside(v: int) -> list[Diagonal]:
        return dis.sector(v, prv[v], nxt[v], alive)

    def turned(ds: Iterable[Diagonal]) -> set[Diagonal]:
        return {_norm_edge(prv[a], prv[b]) for a, b in ds}

    redo = {v for d in diags for v in d}
    for _ in range(len(diags)):
        for v in redo:
            r = run(v)
            if _norm_edge(v, r[-1]) in diags:
                heappush(heap, (tuple(sorted(r)), v))
        while heap:
            key, v0 = heappop(heap)
            r = run(v0)
            if v0 in alive and tuple(sorted(r)) == key and _norm_edge(v0, r[-1]) in diags:
                break
        else:
            raise InvariantBroken(f"no face of {tuple(sorted(alive))} has a single internal edge")
        p, e, dead = prv[v0], _norm_edge(v0, r[-1]), r[: m - 2]
        fan = inside(v0)
        start = {d for v in r[1:-1] for d in inside(v)}.union(fan)
        toggled.clear()
        moved = {d: rotate(d) for d in fan}
        back = [moved[d] for d in fan if d != e]
        for cur in sorted(back, key=lambda d: ((d[1] if d[0] == p else d[0]) - p) % n):
            for _ in range(m - 2):
                cur = rotate(cur)
        added = toggled & diags
        want = turned(start | (toggled - added))
        got = {d for v in dead for d in inside(v)} | ({_norm_edge(p, r[-2])} & diags)
        nxt[p], prv[r[-2]] = r[-2], p
        alive.difference_update(dead)
        got |= turned(inside(r[-2]))
        got |= turned((a, b) for a, b in added if {a, b} <= alive and b not in (nxt[a], prv[a]))
        if got != want:
            raise InvariantBroken(f"region rotation drifted on {tuple(sorted(alive.union(dead)))}")
        redo = {v for d in added for v in d if v in alive}  # runs an added diagonal closes
        for _ in range(m - 1):  # and the runs through v_0..v_{m-3}, which start up to p
            redo.add(p)
            p = prv[p]


def shift(ang: MAngulation, t: int) -> MAngulation:
    """Rotate the whole angulation by t vertex steps (positive = clockwise)."""
    n = ang.n
    return MAngulation(
        ang.m,
        ang.k,
        tuple(_norm_edge((a + t - 1) % n + 1, (b + t - 1) % n + 1) for a, b in ang.diagonals),
    )


def rotate_one_step(ang: MAngulation) -> tuple[MAngulation, tuple[Diagonal, ...]]:
    """The angulation rotated one vertex step anticlockwise (every diagonal
    [i,j] becomes [i-1,j-1] mod n), together with the sequence of primitive
    diagonal rotations realizing it."""
    dis = _Dissection(ang.n, ang.diagonals)
    seq: list[Diagonal] = []
    _rotate_region(dis, ang.m, seq)
    result = MAngulation(ang.m, ang.k, tuple(sorted(dis.diags)))
    expected = shift(ang, -1)
    if result != expected:
        raise InvariantBroken(f"rotation realization drifted: {result} != {expected}")
    return result, tuple(seq)


def boundary_face_count(ang: MAngulation) -> int:
    """Number of faces with exactly m-1 polygon-boundary sides: the faces
    on exactly one diagonal."""
    on = Counter(f for fs in ang.diagonal_faces.values() for f in fs)
    return list(on.values()).count(1)


# -- canonical rotation --------------------------------------------------------------

def canonical_rotation(obj):
    """The representative minimizing the JSON encoding over all n rotations,
    the first rotation on ties; accepts any of the four angulation types.

    Every encoding starts with m, k and the text "[e,e,...]" of the rotated,
    sorted diagonal list, which ranks the rotations first.  Each element
    "[a,b]" has its only "]" at its end, so none is a proper prefix of
    another and texts compare element by element.  Rotation t, putting
    u = 1 - t on 1, streams its elements from the gaps: vertex u + r gives
    [r+1, r-g+n+1] for each diagonal gap g > r there, in decreasing g.  The
    streams step together, keeping those with the least element, until one
    is left or all k-1 are read; those left after j steps share the least
    j-element prefix, so at the end exactly the least text.  A rotation
    with no diagonal end on 1 starts "[[a," with a >= 2, above "[[1," (","
    precedes every digit).  Colours, root and labels break a tie of those
    left, the symmetries of the diagonal set; the winner is built trusted."""
    if not isinstance(obj, (MAngulation, ColouredAngulation, RootedAngulation, LabelledAngulation)):
        raise TypeError(f"cannot canonicalize {type(obj)}")
    cang = obj if isinstance(obj, ColouredAngulation) else getattr(obj, "base", None)
    ang = obj if cang is None else cang.ang
    root, labels, n = getattr(obj, "root", None), getattr(obj, "labels", None), ang.n
    gaps = ang._dissection.gaps

    def rotated(t: int) -> tuple:
        # sh[v] = (v + t - 1) % n + 1: the vertices above c wrap to 1..t, so
        # an ascending face turns into an ascending one from its first above c
        c, sh = n - t, [0, *range(t + 1, n + 1), *range(1, t + 1)]

        def face(f: Face) -> Face:
            i = bisect_right(f, c)
            return tuple(map(sh.__getitem__, f[i:] + f[:i]))

        return (
            tuple(sorted([(sh[b], sh[a]) if a <= c < b else (sh[a], sh[b])
                          for a, b in ang.diagonals])),
            None if cang is None else tuple(sorted([
                ((sh[b], sh[a]) if a <= c < b else (sh[a], sh[b]), x)
                for (a, b), x in cang.colours])),
            None if root is None else face(root),
            None if labels is None else tuple(sorted([(face(f), l) for f, l in labels])),
        )

    def elements(t: int):
        for r in range(n):
            gs = gaps[(r - t) % n + 1]
            for g in reversed(gs[bisect_right(gs, r or 1) : -1]):
                yield f"[{r + 1},{r - g + n + 1}]"

    live = {t: elements(t) for t in range(n) if len(gaps[-t % n + 1]) > 2} or dict.fromkeys(range(n))
    for _ in range(ang.k - 1):
        if len(live) == 1:
            break
        heads = {t: next(s) for t, s in live.items()}
        least = min(heads.values())
        live = {t: s for t, s in live.items() if heads[t] == least}
    rotations = [rotated(t) for t in live]
    if len(rotations) > 1:  # a stable sort, so the first rotation on ties
        rotations.sort(key=lambda fields: _encode(ang.m, ang.k, *fields))
    diagonals, colours, root, labels = rotations[0]
    out = _trusted(MAngulation, m=ang.m, k=ang.k, diagonals=diagonals)
    if colours is not None:
        out = _trusted(ColouredAngulation, ang=out, colours=colours)
    if root is not None:
        out = _trusted(RootedAngulation, base=out, root=root)
    if labels is not None:
        out = _trusted(LabelledAngulation, base=out, labels=labels)
    return out


# -- snakes and induction --------------------------------------------------------------

@dataclass(frozen=True)
class SnakePolygon:
    """A maximal run of faces glued along diagonals coloured S_i or S_j only,
    listed in path order (a single face with no such diagonal is a valid
    snake)."""

    i: int
    j: int
    faces: tuple[Face, ...]

    @property
    def face_set(self) -> frozenset[Face]:
        return frozenset(self.faces)


def find_snakes(cang: ColouredAngulation, i: int, j: int) -> list[SnakePolygon]:
    """All maximal snakes for the colour pair (i, j): the maximal S_i-S_j
    chains of the dual tree (labelled_dual, so sorted face t is vertex t+1),
    as faces.  They partition the faces; each runs from its smaller end face
    and the list is ordered by first face, as maximal_chains walks them."""
    if not (1 <= i < j <= cang.m):
        raise SymbolOutOfRange(f"need 1 <= i < j <= m, got ({i},{j})")
    tree, _ = labelled_dual(cang)
    faces = cang.ang.faces
    return [
        SnakePolygon(i, j, tuple(faces[v - 1] for v in c.vertices))
        for c in maximal_chains(tree, i, j)
    ]


def _induct_core(
    cang: ColouredAngulation, snake: SnakePolygon, i: int
) -> tuple[ColouredAngulation, dict[Face, Face]]:
    """Shared implementation of snake induction; returns the new coloured
    angulation and the map old face -> new face.

    Induction is a sequence of region turns (_turned): step 1 turns the
    (2m-2)-gon of every S_{i+1}-coloured snake diagonal; step 2 turns, at
    each snake end M that step 1 leaves in place, each subpolygon hanging
    off M together with M's current face, in clockwise slot order from the
    snake diagonal, each internal diagonal moved straight to its place.

    This is a composition of mutations: step 1 is _primitive_rotate calls;
    a step-2 region is a union of fewer than k faces, and its turn is
    shift(., -1) of the m-angulation it induces on its own vertices, which
    rotate_one_step realizes as diagonal rotations; and each diagonal
    rotation is a coloured-quiver mutation (tests/test_mutation.py)."""
    m, n = cang.m, cang.ang.n
    j = i + 1
    if not (1 <= i <= m - 1):
        raise SymbolOutOfRange(f"R_{i} needs 1 <= i <= m-1")
    match = [s for s in find_snakes(cang, i, j) if s.face_set == snake.face_set]
    if not match:
        raise NotASnake("argument is not a maximal snake of this angulation")
    snake = match[0]
    faces = list(snake.faces)
    l = len(faces)
    face_map: dict[Face, Face] = {f: f for f in cang.ang.faces}
    if l == 1:
        return cang, face_map

    def shared_diag(f1: Face, f2: Face) -> Diagonal:
        common = sorted(set(f1) & set(f2))
        if len(common) != 2:
            raise InvariantBroken(f"snake faces {f1} and {f2} share no diagonal")
        return (common[0], common[1])

    diags_between = [shared_diag(faces[t], faces[t + 1]) for t in range(l - 1)]
    cols = [cang.colour[d] for d in diags_between]
    work = _Dissection(n, cang.ang.diagonals)

    # Step 1: rotate every S_{i+1}-coloured snake diagonal one step
    # anticlockwise; its two faces turn with the merged (2m-2)-gon.
    snake_diag_final: list[Diagonal] = list(diags_between)
    for t, d in enumerate(diags_between):
        if cols[t] != j:
            continue
        f1, f2 = faces[t], faces[t + 1]
        region = sorted(set(f1) | set(f2))
        pos = {v: p for p, v in enumerate(region)}
        snake_diag_final[t] = _primitive_rotate(work, d)
        face_map[f1] = _turned(f1, region, pos)
        face_map[f2] = _turned(f2, region, pos)

    # Step 2: at each snake end whose snake diagonal keeps its place (colour
    # S_i), turn every hanging subpolygon together with the end's face.
    ends = [(faces[t], diags_between[t]) for t in (0, -1) if cols[t] == i]
    for M, e in ends:
        # the slot of e in M's clockwise edges (M[t], M[t+1]), then (M[0], M[-1])
        s = m - 1 if e == (M[0], M[-1]) else M.index(e[0])
        for r in range(1, m):
            a, b = M[(s + r) % m], M[(s + r + 1) % m]  # clockwise side a -> b
            if _norm_edge(a, b) not in work.diags:
                continue
            arc = {(a - 1 + t) % n + 1 for t in range((b - a) % n + 1)}
            region = tuple(sorted(arc | set(face_map[M])))
            pos = {v: p for p, v in enumerate(region)}
            inside = {d for p, v, q in zip(region[-1:] + region, region, region[1:] + region[:1])
                      for d in work.sector(v, p, q, pos)}
            for d in inside:
                work.remove(d)
            for d in inside:
                work.add(_turned(d, region, pos))
            for old, cur in face_map.items():
                if all(v in pos for v in cur):
                    face_map[old] = _turned(cur, region, pos)

    new_ang = MAngulation(m, cang.k, tuple(sorted(work.diags)))
    new_ang.__dict__["_dissection"] = work  # its diagonals; nothing moves them now
    seed = snake_diag_final[0]
    seed_colour = i if cols[0] == j else j
    result = colour_from_seed(new_ang, seed, seed_colour)
    if set(face_map.values()) != set(new_ang.faces):
        raise InvariantBroken("face tracking lost a face")
    return result, face_map


def induct_R_on_angulation(
    cang: ColouredAngulation, snake: SnakePolygon, i: int
) -> ColouredAngulation:
    """Snake induction on a diagonal-coloured angulation (the polygon form of
    R_i on the dual tree)."""
    result, _ = _induct_core(cang, snake, i)
    return result


def induct_R_on_labelled_angulation(
    lang: LabelledAngulation, snake: SnakePolygon, i: int
) -> LabelledAngulation:
    """Snake induction on an m-gon-labelled angulation; labels travel with
    their faces."""
    result, face_map = _induct_core(lang.base, snake, i)
    labels = tuple((face_map[f], l) for f, l in lang.labels)
    return LabelledAngulation(result, labels)


# -- dual tree -----------------------------------------------------------------------

def labelled_dual(
    cang: ColouredAngulation, labels: dict[Face, int] | None = None
) -> tuple[ColouredTree, dict[Face, int]]:
    """The dual tree of a coloured angulation: one vertex per face, edges
    coloured by the shared diagonal's colour.  Faces are labelled by `labels`
    or 1..k in sorted face order."""
    if labels is None:
        labels = {f: idx + 1 for idx, f in enumerate(cang.ang.faces)}
    edges = []
    for d, (f1, f2) in cang.ang.diagonal_faces.items():
        edges.append((labels[f1], labels[f2], cang.colour[d]))
    return ColouredTree(cang.k, cang.m, tuple(edges)), labels


def dual_tree_dot(cang: ColouredAngulation) -> str:
    """DOT text of the dual tree, faces as nodes, edges labelled by colour."""
    lines = ["graph dual_tree {"]
    for f in cang.ang.faces:
        lines.append(f'  "{_face_key(f)}";')
    for d, (f1, f2) in sorted(cang.ang.diagonal_faces.items()):
        lines.append(
            f'  "{_face_key(f1)}" -- "{_face_key(f2)}" [label="S{cang.colour[d]}"];'
        )
    lines.append("}")
    return "\n".join(lines)
