import functools
import inspect
import itertools
import random
import re
import sys

import pytest

from clustercomb import angulations
from clustercomb.angulations import (
    ColouredAngulation,
    LabelledAngulation,
    MAngulation,
    RootedAngulation,
    all_colourings,
    boundary_face_count,
    canonical_rotation,
    colour_from_seed,
    diagonal_rotate,
    dual_tree_dot,
    find_snakes,
    induct_R_on_angulation,
    induct_R_on_labelled_angulation,
    rotate_one_step,
    shift,
    validate_angulation,
)
from clustercomb.bijections import (
    labelled_angulation_to_tree,
    labelled_tree_to_labelled_angulation,
)
from clustercomb.counting import enumerate_angulations, s_count
from clustercomb.errors import (
    BadDiagonalModulus,
    DiagonalsCross,
    InvariantBroken,
    MalformedJSON,
    NotADiagonal,
    NotASnake,
    WrongDiagonalCount,
    WrongFaceShape,
)
from clustercomb.induction import apply_R
from clustercomb.verify import angulation_suite
from test_core import random_tree


def test_validate_examples():
    assert validate_angulation({"m": 3, "k": 1, "diagonals": []}).n == 3
    assert validate_angulation({"m": 3, "k": 2, "diagonals": [[1, 3]]}).faces == (
        (1, 2, 3),
        (1, 3, 4),
    )
    with pytest.raises(BadDiagonalModulus):
        MAngulation(4, 2, ((1, 3),))
    assert MAngulation(4, 2, ((1, 4),)).n == 6
    with pytest.raises(DiagonalsCross):
        MAngulation(3, 3, ((1, 3), (2, 4)))
    with pytest.raises(WrongDiagonalCount):
        MAngulation(3, 3, ((1, 3),))


@pytest.mark.parametrize(
    "raw", [{"m": "a", "k": 2, "diagonals": [[1, 3]]}, {"m": 3, "k": 2}, [1]]
)
def test_validate_angulation_rejects_bad_shapes(raw):
    with pytest.raises(MalformedJSON):
        validate_angulation(raw)


def test_colour_from_seed():
    tri = MAngulation(3, 1, ())
    ca = colour_from_seed(tri, (1, 2), 1)
    assert ca.colour == {(1, 2): 1, (2, 3): 2, (1, 3): 3}
    sq = MAngulation(3, 2, ((1, 3),))
    ca = colour_from_seed(sq, (1, 3), 1)
    assert len(ca.colour) == 5  # all four sides determined
    assert len({c.to_json() for c in all_colourings(sq)}) == 3


def test_diagonal_rotate():
    sq = MAngulation(3, 2, ((1, 3),))
    r = diagonal_rotate(sq, (1, 3))
    assert r.diagonals == ((2, 4),)
    assert diagonal_rotate(r, (2, 4)) == sq  # m=3: rotating twice returns
    with pytest.raises(NotADiagonal):
        diagonal_rotate(sq, (2, 4))
    # 2m-2 successive rotations return the original
    for m in (3, 4):
        ang = next(iter_angs(2, m))
        cur = ang
        d = cur.diagonals[0]
        for _ in range(2 * m - 2):
            nxt = diagonal_rotate(cur, d)
            d = (set(nxt.diagonals) - set(cur.diagonals)).pop() if nxt.diagonals != cur.diagonals else d
            cur = nxt
        assert cur == ang


def test_diagonal_rotate_inverse_by_repetition():
    # repeating the rotation 2m-3 more times undoes a single step
    for m in (3, 4):
        for ang in itertools.islice(enumerate_angulations(3, m), 10):
            for d0 in ang.diagonals:
                cur = diagonal_rotate(ang, d0)
                d = (set(cur.diagonals) - set(ang.diagonals)).pop() if cur != ang else d0
                for _ in range(2 * m - 3):
                    nxt = diagonal_rotate(cur, d)
                    d = (set(nxt.diagonals) - set(cur.diagonals)).pop() if nxt != cur else d
                    cur = nxt
                assert cur == ang


def iter_angs(k, m):
    return enumerate_angulations(k, m)


def test_rotate_one_step_square():
    sq = MAngulation(3, 2, ((1, 3),))
    res, seq = rotate_one_step(sq)
    assert res.diagonals == ((2, 4),)
    assert seq == ((1, 3),)


def test_rotate_one_step_fan_sequence():
    fan = MAngulation(4, 4, ((1, 4), (1, 6), (1, 8)))
    res, seq = rotate_one_step(fan)
    assert res == shift(fan, -1)
    assert seq[:3] == ((1, 8), (1, 6), (1, 4))


@pytest.mark.parametrize("k,m", [(2, 5), (2, 6), (2, 7)])
def test_rotate_one_step_is_index_shift(k, m):
    # the whole angulation suite; the acceptance tests take m = 3, 4
    for name, ok, detail in angulation_suite(k, m):
        assert ok, f"{name}: {detail}"


def test_boundary_face_count():
    assert boundary_face_count(MAngulation(3, 2, ((1, 3),))) == 2
    fan = MAngulation(4, 4, ((1, 4), (1, 6), (1, 8)))
    assert boundary_face_count(fan) == 2
    # the angulation suite checks m = 3 up to k = 5 and m = 4 up to k = 3
    for k in (4, 5):
        for ang in enumerate_angulations(k, 4):
            assert boundary_face_count(ang) >= 2


def test_canonical_rotation():
    tri = MAngulation(3, 1, ())
    assert canonical_rotation(tri) == tri
    sq = MAngulation(3, 2, ((2, 4),))
    assert canonical_rotation(sq).diagonals == ((1, 3),)
    for ang in enumerate_angulations(3, 3):
        canon = canonical_rotation(ang)
        for t in range(ang.n):
            assert canonical_rotation(shift(ang, t)) == canon


def test_canonical_rotation_coloured_types():
    sq = MAngulation(3, 2, ((1, 3),))
    ca = colour_from_seed(sq, (1, 3), 2)
    assert canonical_rotation(canonical_rotation(ca)) == canonical_rotation(ca)
    ra = RootedAngulation(ca, (1, 2, 3))
    assert canonical_rotation(ra).base.ang.k == 2
    la = LabelledAngulation(ca, (((1, 2, 3), 1), ((1, 3, 4), 2)))
    assert canonical_rotation(la).base.ang.k == 2


def test_find_snakes():
    tri = colour_from_seed(MAngulation(3, 1, ()), (1, 2), 1)
    snakes = find_snakes(tri, 1, 2)
    assert len(snakes) == 1 and snakes[0].faces == ((1, 2, 3),)
    sq = MAngulation(3, 2, ((1, 3),))
    ca = colour_from_seed(sq, (1, 3), 1)  # the diagonal is coloured S_1
    snakes = find_snakes(ca, 1, 2)
    assert len(snakes) == 1 and len(snakes[0].faces) == 2


def test_snakes_are_the_maximal_runs_on_the_polygon():
    # read on the polygon alone, without the dual tree: for every colouring
    # and every pair i < j the snakes partition the faces, consecutive faces
    # of a snake share a diagonal coloured S_i or S_j, every such diagonal
    # joins two consecutive faces of one snake, and each snake starts at its
    # smaller end face, the list ordered by first face
    for m, kmax in ((3, 4), (4, 3)):
        for k in range(1, kmax + 1):
            for ang in enumerate_angulations(k, m):
                for ca in all_colourings(ang):
                    for i, j in itertools.combinations(range(1, m + 1), 2):
                        snakes = find_snakes(ca, i, j)
                        assert sorted(f for s in snakes for f in s.faces) == list(ang.faces)
                        joins = []
                        for s in snakes:
                            assert (s.i, s.j) == (i, j) and s.faces[0] <= s.faces[-1]
                            for f, g in zip(s.faces, s.faces[1:]):
                                d = tuple(sorted(set(f) & set(g)))
                                assert set(ang.diagonal_faces[d]) == {f, g}
                                assert ca.colour[d] in (i, j)
                                joins.append(d)
                        assert sorted(joins) == [d for d in ang.diagonals if ca.colour[d] in (i, j)]
                        firsts = [s.faces[0] for s in snakes]
                        assert firsts == sorted(firsts)


def test_induct_identity_on_single_face_snake():
    tri = colour_from_seed(MAngulation(3, 1, ()), (1, 2), 1)
    s = find_snakes(tri, 1, 2)[0]
    assert induct_R_on_angulation(tri, s, 1) == tri


def test_induct_two_triangles():
    sq = MAngulation(3, 2, ((1, 3),))
    # diagonal coloured S_1: R_1 swaps nothing, the diagonal is recoloured S_2
    ca = colour_from_seed(sq, (1, 3), 1)
    s = find_snakes(ca, 1, 2)[0]
    out = induct_R_on_angulation(ca, s, 1)
    assert out.ang.diagonals == ((1, 3),)
    assert out.colour[(1, 3)] == 2
    # diagonal coloured S_2: R_1 rotates it and recolours it S_1
    cb = colour_from_seed(sq, (1, 3), 2)
    s = find_snakes(cb, 1, 2)[0]
    out = induct_R_on_angulation(cb, s, 1)
    assert out.ang.diagonals == ((2, 4),)
    assert out.colour[(2, 4)] == 1
    # both match R_1 on the labelled dual
    for start in (ca, cb):
        la = LabelledAngulation(start, (((1, 2, 3), 1), ((1, 3, 4), 2)))
        s = find_snakes(start, 1, 2)[0]
        got = labelled_angulation_to_tree(induct_R_on_labelled_angulation(la, s, 1))
        want = apply_R(labelled_angulation_to_tree(la), (1, 2), 1, 2)
        assert got == want
    with pytest.raises(NotASnake):
        induct_R_on_angulation(ca, find_snakes(ca, 2, 3)[0], 1)


def test_induct_labelled_two_triangles():
    sq = MAngulation(3, 2, ((1, 3),))
    ca = colour_from_seed(sq, (1, 3), 1)
    la = LabelledAngulation(ca, (((1, 2, 3), 1), ((1, 3, 4), 2)))
    s = find_snakes(ca, 1, 2)[0]
    out = induct_R_on_labelled_angulation(la, s, 1)
    # labels are transported with the faces across the rotation
    tree_before = labelled_angulation_to_tree(la)
    tree_after = labelled_angulation_to_tree(out)
    assert tree_after == apply_R(tree_before, (1, 2), 1, 2)


def test_induct_labelled_all_labellings_k3():
    # the labelled commuting square over every labelling, colouring and snake
    for k in (1, 2, 3):
        for ang in enumerate_angulations(k, 3):
            for c in (1, 2, 3):
                ca = colour_from_seed(ang, (1, 2), c)
                faces = ca.ang.faces
                for perm in itertools.permutations(range(1, k + 1)):
                    la = LabelledAngulation(ca, tuple(zip(faces, perm)))
                    t0 = labelled_angulation_to_tree(la)
                    for i in (1, 2):
                        for s in find_snakes(ca, i, i + 1):
                            out = induct_R_on_labelled_angulation(la, s, i)
                            left = labelled_angulation_to_tree(out)
                            chain = frozenset(la.label[f] for f in s.faces)
                            assert left == apply_R(t0, chain, i, i + 1)


def _kept_end_hanging_counts(ca, s, i):
    """For each end of snake s whose snake diagonal is S_i-coloured (the ends
    where induction turns hanging subpolygons), the number of its other sides
    that are diagonals, i.e. of subpolygons hanging off it."""
    faces = s.faces
    if len(faces) < 2:
        return []

    def shared(f1, f2):
        common = sorted(set(f1) & set(f2))
        return (common[0], common[1])

    dcols = [ca.colour[shared(faces[t], faces[t + 1])] for t in range(len(faces) - 1)]
    ends = []
    if dcols[0] == i:
        ends.append((faces[0], shared(faces[0], faces[1])))
    if dcols[-1] == i:
        ends.append((faces[-1], shared(faces[-2], faces[-1])))
    diags = set(ca.ang.diagonals)
    return [
        sum(1 for e in _ref_edge_cycle(M) if e != d and e in diags)
        for M, d in ends
    ]


def test_induct_m4_with_multiple_components():
    # end faces with two hanging subpolygons take two region turns in
    # clockwise slot order; turning them in the other order breaks the square
    two_component_cases = 0
    for ang in enumerate_angulations(4, 4):
        for c in (1, 2, 3, 4):
            ca = colour_from_seed(ang, (1, 2), c)
            la = LabelledAngulation(
                ca, tuple((f, idx + 1) for idx, f in enumerate(ca.ang.faces))
            )
            t0 = labelled_angulation_to_tree(la)
            for i in (1, 2, 3):
                for s in find_snakes(ca, i, i + 1):
                    out = induct_R_on_labelled_angulation(la, s, i)
                    assert labelled_angulation_to_tree(out) == apply_R(
                        t0, frozenset(la.label[f] for f in s.faces), i, i + 1
                    )
                    if any(n >= 2 for n in _kept_end_hanging_counts(ca, s, i)):
                        two_component_cases += 1
    assert two_component_cases >= 30


def test_induct_chains_at_large_k():
    # seeded chains of inductions on angulations of 30..60 faces: each step
    # is R on the dual tree
    rng = random.Random(4151)
    steps = 0
    for k, m in ((30, 3), (45, 4), (60, 5)):
        la = labelled_tree_to_labelled_angulation(random_tree(rng, k, m))
        tree = labelled_angulation_to_tree(la)
        for _ in range(34):
            i = rng.randrange(1, m)
            snakes = find_snakes(la.base, i, i + 1)
            s = rng.choice([x for x in snakes if len(x.faces) > 1] or snakes)
            out = induct_R_on_labelled_angulation(la, s, i)
            chain = frozenset(la.label[f] for f in s.faces)
            tree = apply_R(tree, chain, i, i + 1)
            assert labelled_angulation_to_tree(out) == tree
            la = out
            steps += 1
    assert steps >= 100


def test_json_and_dot():
    sq = MAngulation(3, 2, ((1, 3),))
    assert MAngulation.from_json(sq.to_json()) == sq
    ca = colour_from_seed(sq, (1, 3), 1)
    assert ColouredAngulation.from_json(ca.to_json()) == ca
    ra = RootedAngulation(ca, (1, 2, 3))
    assert RootedAngulation.from_json(ra.to_json()) == ra
    la = LabelledAngulation(ca, (((1, 2, 3), 2), ((1, 3, 4), 1)))
    assert LabelledAngulation.from_json(la.to_json()) == la
    dot = dual_tree_dot(ca)
    assert 'label="S1"' in dot


# -- the linear kernel against the quadratic references it replaced -----------


def _ref_split_faces(region, diags):
    """Reference: cut the region at the first chord that is not a region
    side, recursing on both halves."""
    diags = list(diags)
    out = []
    stack = [tuple(region)]
    while stack:
        reg = stack.pop()
        pos = {v: idx for idx, v in enumerate(reg)}
        ln = len(reg)
        cut = None
        for a, b in diags:
            pa, pb = pos.get(a), pos.get(b)
            if pa is None or pb is None:
                continue
            pa, pb = min(pa, pb), max(pa, pb)
            if pb - pa != 1 and not (pa == 0 and pb == ln - 1):
                cut = (pa, pb)
                break
        if cut is None:
            out.append(tuple(sorted(reg)))
        else:
            pa, pb = cut
            stack.append(reg[pa : pb + 1])
            stack.append(reg[pb:] + reg[: pa + 1])
    return out


def _ref_edge_cycle(face):
    """Reference: a face's edges in clockwise order, from its least vertex."""
    m = len(face)
    return [(face[t], face[t + 1]) for t in range(m - 1)] + [(face[0], face[-1])]


def _ref_colour_from_seed(ang, seed, colour):
    """Reference: the colouring found face by face, depth first from the
    face of the seed edge, each face reading S_1..S_m clockwise."""
    on = {}  # the faces on each edge
    for f in _ref_split_faces(tuple(range(1, ang.n + 1)), ang.diagonals):
        for e in _ref_edge_cycle(f):
            on.setdefault(e, []).append(f)
    cmap, todo, done = {seed: colour}, [on[seed][0]], set()
    while todo:
        f = todo.pop()
        if f in done:
            continue
        done.add(f)
        cyc = _ref_edge_cycle(f)
        known = next(t for t, e in enumerate(cyc) if e in cmap)
        for off in range(1, ang.m):
            cmap[cyc[(known + off) % ang.m]] = (cmap[cyc[known]] - 1 + off) % ang.m + 1
        todo += [g for e in cyc for g in on[e] if g not in done]
    return cmap


def _ref_crossing(diags):
    """Reference: the first crossing pair in sorted order, or None."""
    diags = sorted(diags)
    for i, (a, b) in enumerate(diags):
        for c, d in diags[i + 1 :]:
            if a < c < b < d or c < a < d < b:
                return (a, b), (c, d)
    return None


@functools.lru_cache(maxsize=8)
def _ref_coloured_rotations(cang):
    """The n rotations of a coloured angulation, each built and validated."""
    n = cang.ang.n
    return tuple(
        ColouredAngulation(
            shift(cang.ang, t),
            tuple(
                (tuple(sorted(((a - 1 + t) % n + 1, (b - 1 + t) % n + 1))), c)
                for (a, b), c in cang.colours
            ),
        )
        for t in range(n)
    )


def _ref_canonical_rotation(obj):
    """Reference: build and validate all n rotations, keep the least to_json."""

    def rot_face(f, t, n):
        return tuple(sorted((v - 1 + t) % n + 1 for v in f))

    if isinstance(obj, MAngulation):
        cands = [shift(obj, t) for t in range(obj.n)]
    elif isinstance(obj, ColouredAngulation):
        cands = _ref_coloured_rotations(obj)
    elif isinstance(obj, RootedAngulation):
        n = obj.base.ang.n
        cands = [
            RootedAngulation(rot, rot_face(obj.root, t, n))
            for t, rot in enumerate(_ref_coloured_rotations(obj.base))
        ]
    else:
        n = obj.base.ang.n
        cands = [
            LabelledAngulation(rot, tuple((rot_face(f, t, n), l) for f, l in obj.labels))
            for t, rot in enumerate(_ref_coloured_rotations(obj.base))
        ]
    return min(cands, key=lambda x: x.to_json())


def _kernel_cases():
    """Every angulation at (5,3), (4,4), (3,5) with a random colouring, root
    and labelling, and labelled angulations of seeded trees at k = 30..60."""
    rng = random.Random(3031)
    for k, m in ((5, 3), (4, 4), (3, 5)):
        for ang in enumerate_angulations(k, m):
            cang = colour_from_seed(ang, (1, 2), rng.randrange(1, m + 1))
            labels = list(range(1, k + 1))
            rng.shuffle(labels)
            yield LabelledAngulation(cang, tuple(zip(ang.faces, labels)))
    for k, m in ((30, 3), (40, 4), (45, 5), (60, 3)):
        yield labelled_tree_to_labelled_angulation(random_tree(rng, k, m))


def test_faces_match_reference():
    # one trace of the dissection gives the faces and each diagonal's two
    # faces; the reference cuts the polygon recursively
    for lang in _kernel_cases():
        ang = lang.base.ang
        ref = sorted(_ref_split_faces(tuple(range(1, ang.n + 1)), ang.diagonals))
        assert ang.faces == tuple(ref)
        assert list(ang.diagonal_faces) == list(ang.diagonals)
        for d, (f, g) in ang.diagonal_faces.items():
            assert f < g and [h for h in ref if d in _ref_edge_cycle(h)] == [f, g]
        for e in ang.edges():
            assert ang.face_with_edge(e) == min(h for h in ref if e in _ref_edge_cycle(h))
        assert angulations.boundary_face_count(ang) == sum(
            1 for h in ref if sum(map(ang.is_boundary, _ref_edge_cycle(h))) == ang.m - 1
        )


def test_face_with_edge_refuses_a_non_edge():
    # the least face holding both ends of a side or a diagonal; any other
    # pair of vertices is no edge of the dissection
    ang = MAngulation(4, 3, ((1, 4), (4, 7)))  # n = 8
    assert ang.face_with_edge((8, 1)) == ang.face_with_edge((1, 8)) == (1, 4, 7, 8)
    assert ang.face_with_edge((5, 6)) == (4, 5, 6, 7)
    assert ang.face_with_edge((7, 4)) == (1, 4, 7, 8)
    for e in ((1, 1), (0, 1), (8, 9), (2, 5), (1, 6), (-7, 1)):
        with pytest.raises(NotADiagonal):
            ang.face_with_edge(e)
    with pytest.raises(MalformedJSON):
        ang.face_with_edge((1.0, 2))


def test_admissible_chord_sets_cut_m_gons():
    # MAngulation reads no face: the count, modulus and noncrossing checks
    # imply that every face is an m-gon.  Every (k-1)-set of admissible
    # chords is tried; exactly S_{k,m} pass, each into m-gons
    for m, kmax in ((3, 5), (4, 5), (5, 4), (6, 4)):
        for k in range(1, kmax + 1):
            n = (m - 2) * k + 2
            chords = [
                (a, b) for a in range(1, n + 1) for b in range(a + 2, n + 1)
                if b - a <= n - 2 and (b - a) % (m - 2) == 1 % (m - 2)
            ]
            accepted = 0
            for diags in itertools.combinations(chords, k - 1):
                try:
                    ang = MAngulation(m, k, diags)
                except DiagonalsCross:
                    continue
                accepted += 1
                faces = _ref_split_faces(tuple(range(1, n + 1)), diags)
                assert sorted(map(len, faces)) == [m] * k and set(faces) == set(ang.faces)
            assert accepted == s_count(k, m)


def _colouring_cases():
    """Every angulation at (5,3), (4,4), (3,5) and (3,6), and angulations of
    seeded trees at k = 30..50."""
    for k, m in ((5, 3), (4, 4), (3, 5), (3, 6)):
        yield from enumerate_angulations(k, m)
    rng = random.Random(3033)
    for k, m in ((30, 3), (40, 4), (50, 5)):
        yield labelled_tree_to_labelled_angulation(random_tree(rng, k, m)).base.ang


def test_vertex_rule_matches_face_search():
    # every colour of side (1, 2), and seeds on sides and on diagonals with
    # a seeded colour each
    rng = random.Random(80)
    for ang in _colouring_cases():
        edges = ang.edges()
        seeds = edges if ang.k < 10 else rng.sample(edges[: ang.n], 5) + rng.sample(edges[ang.n :], 5)
        for seed in seeds:
            c = rng.randint(1, ang.m)
            assert colour_from_seed(ang, seed, c).colour == _ref_colour_from_seed(ang, seed, c)
        assert [ca.colour for ca in all_colourings(ang)] == [
            _ref_colour_from_seed(ang, (1, 2), c) for c in range(1, ang.m + 1)
        ]


def test_every_single_edge_recolouring_is_refused():
    for k, m in ((4, 3), (3, 4), (3, 5), (2, 6)):
        for ang in enumerate_angulations(k, m):
            for ca in all_colourings(ang):
                for e, c in ca.colours:
                    for other in range(1, m + 1):
                        if other != c:
                            with pytest.raises(WrongFaceShape):
                                ColouredAngulation(ang, tuple({**ca.colour, e: other}.items()))


def _symmetric_cases():
    """Every angulation at (4,3), (6,3) and (4,4), and the diagonal-free
    square, with every colouring and every root face, and with every
    labelling at k = 4.  The rotational symmetries of a diagonal set tie on
    the diagonal text, so there only the colours, the root or the labels
    break the tie."""
    for k, m in ((1, 4), (4, 3), (6, 3), (4, 4)):
        for ang in enumerate_angulations(k, m):
            yield ang
            for cang in all_colourings(ang):
                yield cang
                yield from (RootedAngulation(cang, f) for f in ang.faces)
                if k == 4:
                    for perm in itertools.permutations(range(1, k + 1)):
                        yield LabelledAngulation(cang, tuple(zip(ang.faces, perm)))


def test_canonical_rotation_matches_reference():
    rng = random.Random(78)
    for lang in _kernel_cases():
        cang = lang.base
        n = cang.ang.n
        t = rng.randrange(n)
        rooted = RootedAngulation(cang, rng.choice(cang.ang.faces))
        for obj in (shift(cang.ang, t), cang, rooted, lang):
            assert canonical_rotation(obj) == _ref_canonical_rotation(obj)
    symmetric = 0
    for obj in _symmetric_cases():
        assert canonical_rotation(obj) == _ref_canonical_rotation(obj)
        if isinstance(obj, MAngulation):
            symmetric += any(shift(obj, t) == obj for t in range(1, obj.n))
    assert symmetric >= 10


def _fan(k, m):
    """The fan of diagonals at vertex 1."""
    return MAngulation(m, k, tuple((1, j * (m - 2) + 2) for j in range(1, k)))


def _zigzag(k, m):
    """Nested diagonals, each one face inside the last, cut alternately
    from the two ends of the polygon."""
    lo, hi, diags = 1, (m - 2) * k + 2, []
    for j in range(k - 1):
        lo, hi = (lo + m - 2, hi) if j % 2 == 0 else (lo, hi - m + 2)
        diags.append((lo, hi))
    return MAngulation(m, k, tuple(diags))


def _star(sector, m, flip=False):
    """A central m-gon with m congruent sectors of `sector` faces, each a fan
    at its clockwise-first vertex: m-fold symmetric.  With flip, the last
    sector fans from its last vertex instead: no longer symmetric, but the
    candidates at the other sectors agree until they reach that one."""
    ln = (m - 2) * sector + 1
    n, diags = m * ln, []
    for c in range(1, n, ln):
        e = (c + ln - 1) % n + 1
        diags.append(tuple(sorted((c, e))))
        for j in range(1, sector):
            far = c + j * (m - 2) + 1
            diags.append((e, 2 * c + ln - far) if flip and e == 1 else (c, far))
    return MAngulation(m, m * sector + 1, tuple(diags))


def _shape_cases(k, m):
    return {
        "fan": _fan(k, m),
        "zigzag": _zigzag(k, m),
        "star": _star((k - 1) // m, m),
        "flipped star": _star((k - 1) // m, m, flip=True),
    }


def test_shapes_have_their_symmetries():
    for m in (3, 4):
        for name, ang in _shape_cases(40, m).items():
            assert sorted(map(len, ang.faces)) == [m] * ang.k
            symmetries = sum(shift(ang, t) == ang for t in range(ang.n))
            # an even zigzag turns a half turn about its middle diagonal
            assert symmetries == {"star": m, "zigzag": 2}.get(name, 1), name


@pytest.mark.parametrize("m", (3, 4))
@pytest.mark.parametrize("k", (40, 100))
def test_canonical_rotation_of_shapes_matches_reference(k, m):
    # every type, shifted so that the winner is no given rotation; on the
    # star only the colours, the root or the labels break the tie
    rng = random.Random(k * m)
    for ang in _shape_cases(k, m).values():
        ang = shift(ang, rng.randrange(ang.n))
        cang = colour_from_seed(ang, (1, 2), rng.randint(1, m))
        labels = list(range(1, ang.k + 1))
        rng.shuffle(labels)
        for obj in (
            ang,
            cang,
            RootedAngulation(cang, rng.choice(ang.faces)),
            LabelledAngulation(cang, tuple(zip(ang.faces, labels))),
        ):
            assert canonical_rotation(obj) == _ref_canonical_rotation(obj)


@pytest.mark.parametrize("m", (3, 4))
def test_canonical_rotation_of_large_shapes_matches_reference(m):
    rng = random.Random(m)
    for ang in _shape_cases(400, m).values():
        ang = shift(ang, rng.randrange(ang.n))
        assert canonical_rotation(ang) == _ref_canonical_rotation(ang)


def test_canonical_rotation_ranks_by_text_not_numbers():
    # the fan of the 11-gon: numerically its centre on 1 is least,
    # [[1,3],[1,4],...], but as text "[[1,10]" < "[[1,3]"
    ang = shift(_fan(9, 3), 4)
    by_numbers = min((shift(ang, t) for t in range(ang.n)), key=lambda a: a.diagonals)
    by_text = _ref_canonical_rotation(ang)
    assert by_numbers != by_text
    assert by_numbers.diagonals[0] == (1, 3) and by_text.diagonals[0] == (1, 10)
    assert canonical_rotation(ang) == by_text


def test_canonical_rotation_writes_no_candidate_text(monkeypatch):
    # only the rotations left after the elimination are encoded, and only
    # to break a tie; here one is left
    rng = random.Random(200)
    cang = labelled_tree_to_labelled_angulation(random_tree(rng, 200, 3)).base
    cang = colour_from_seed(shift(cang.ang, 17), (1, 2), 1)
    symmetries = sum(shift(cang.ang, t) == cang.ang for t in range(cang.ang.n))
    dumps, calls = angulations.json.dumps, []
    monkeypatch.setattr(angulations.json, "dumps", lambda *a, **kw: calls.append(1) or dumps(*a, **kw))
    canonical_rotation(cang)
    assert symmetries == 1 and not calls


def test_crossing_check_matches_reference():
    # nested, disjoint and fans sharing an endpoint: no error
    MAngulation(3, 6, ((1, 7), (2, 7), (2, 6), (3, 6), (3, 5)))
    MAngulation(3, 6, ((1, 3), (3, 5), (5, 7), (1, 5), (1, 7)))
    MAngulation(3, 6, ((1, 3), (1, 4), (1, 5), (1, 6), (1, 7)))
    MAngulation(3, 6, ((2, 8), (3, 8), (4, 8), (5, 8), (6, 8)))
    # a single crossing pair among many diagonals
    diags = ((1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (6, 8), (8, 10))
    with pytest.raises(DiagonalsCross, match=r"\[1,7\] crosses \[6,8\]"):
        MAngulation(3, 8, diags)
    # every triangulation of the 10-gon with one diagonal swapped for another
    # pair: a flip (no crossing) or one to several crossings
    rng = random.Random(79)
    pairs = [(a, b) for a in range(1, 11) for b in range(a + 2, 11) if b - a < 9]
    crossed = 0
    for tri in enumerate_angulations(8, 3):
        diags = list(tri.diagonals)
        diags[rng.randrange(7)] = rng.choice([p for p in pairs if p not in diags])
        ref = _ref_crossing(diags)
        try:
            MAngulation(3, 8, tuple(diags))
        except DiagonalsCross as exc:
            assert ref is not None
            named = re.findall(r"\[(\d+),(\d+)\]", str(exc))
            (a, b), (c, d) = [tuple(map(int, x)) for x in named]
            assert a < c < b < d and {(a, b), (c, d)} <= set(diags)
            crossed += 1
        else:
            assert ref is None
    assert 0 < crossed < s_count(8, 3)


def test_rotation_drift_raises_invariant_broken(monkeypatch):
    monkeypatch.setattr(angulations, "_rotate_region", lambda *args: None)
    with pytest.raises(InvariantBroken):
        rotate_one_step(MAngulation(3, 3, ((1, 3), (1, 4))))


def test_rotation_level_check_fires_on_its_own(monkeypatch):
    # a primitive rotation skipped inside a deeper level is caught by that
    # level's drift check, not by the final comparison with shift(ang, -1)
    # (some skips are undone by the later rotations of their level)
    real = angulations._primitive_rotate
    caught = 0
    for k, m in ((12, 3), (10, 4), (8, 5)):
        ang = labelled_tree_to_labelled_angulation(random_tree(random.Random(k), k, m)).base.ang
        _, seq = rotate_one_step(ang)
        for skip in range(len(seq) // 2, len(seq)):
            calls = []

            def skip_one(dis, d):
                calls.append(d)
                return d if len(calls) == skip + 1 else real(dis, d)

            monkeypatch.setattr(angulations, "_primitive_rotate", skip_one)
            try:
                rotate_one_step(ang)
            except InvariantBroken as exc:
                assert str(exc).startswith("region rotation drifted on (")
                region = re.findall(r"\d+", str(exc))
                assert m < len(region) < ang.n
                caught += 1
            monkeypatch.setattr(angulations, "_primitive_rotate", real)
    assert caught >= 20


# -- rotation against the split-based primitive it replaced ---------------------


def _ref_primitive_rotate(n, diags, d):
    """Reference: split the whole polygon, take the two faces holding both
    ends of d and move each end to its predecessor in their union."""
    d = tuple(sorted(d))
    if d not in diags:
        raise NotADiagonal(f"{d} is not a diagonal of the dissection")
    a, b = d
    f1, f2 = (f for f in _ref_split_faces(tuple(range(1, n + 1)), diags) if a in f and b in f)
    merged = sorted(set(f1) | set(f2))
    pos = {v: idx for idx, v in enumerate(merged)}
    ln = len(merged)
    new_d = tuple(sorted((merged[(pos[a] - 1) % ln], merged[(pos[b] - 1) % ln])))
    diags.remove(d)
    diags.add(new_d)
    return new_d


def _ref_rotate_region(n, m, diags, region, seq):
    """Reference: split the region at every level to find its boundary faces."""
    pos = {v: idx for idx, v in enumerate(region)}
    ln = len(region)

    def adjacent(a, b):
        return abs(pos[a] - pos[b]) in (1, ln - 1)

    def reg_pred(v):
        return region[(pos[v] - 1) % ln]

    internal = [d for d in diags if d[0] in pos and d[1] in pos and not adjacent(*d)]
    if not internal:
        return
    faces = _ref_split_faces(region, internal)
    intset = set(internal)
    F = min(f for f in faces if sum(1 for e in _ref_edge_cycle(f) if e in intset) == 1)
    posset = {pos[v] for v in F}
    start = next(p for p in posset if (p - 1) % ln not in posset)
    run = [region[(start + t) % ln] for t in range(len(F))]
    i = run[0]
    e = tuple(sorted((run[0], run[-1])))

    def cdist(d, centre):
        other = d[1] if d[0] == centre else d[0]
        return (pos[other] - pos[centre]) % ln

    fan = [d for d in internal if i in d]
    moved = {}
    for d in sorted(fan, key=lambda d: -cdist(d, i)):
        moved[d] = _ref_primitive_rotate(n, diags, d)
        seq.append(d)
    i_prev = reg_pred(i)
    for d in sorted((moved[d] for d in fan if d != e), key=lambda d: cdist(d, i_prev)):
        cur = d
        for _ in range(m - 2):
            seq.append(cur)
            cur = _ref_primitive_rotate(n, diags, cur)
    removed = set(run[: m - 2])
    _ref_rotate_region(n, m, diags, tuple(v for v in region if v not in removed), seq)


def _ref_rotate_one_step(ang):
    diags = set(ang.diagonals)
    seq = []
    _ref_rotate_region(ang.n, ang.m, diags, tuple(range(1, ang.n + 1)), seq)
    return MAngulation(ang.m, ang.k, tuple(sorted(diags))), tuple(seq)


def _rotation_cases():
    """Every angulation at (5,3), (4,4) and (3,5), and angulations of seeded
    trees at k = 30..60."""
    for k, m in ((5, 3), (4, 4), (3, 5)):
        yield from enumerate_angulations(k, m)
    rng = random.Random(3032)
    for k, m in ((30, 3), (40, 4), (45, 5), (50, 3), (60, 4)):
        yield labelled_tree_to_labelled_angulation(random_tree(rng, k, m)).base.ang


def test_rotate_one_step_matches_split_reference():
    # every angulation at (6,3), (5,4), (4,5) and (3,6), and seeded ones at
    # k = 100, 150 for m = 3..6, beside the cases that also check diagonal_rotate
    rng = random.Random(3033)
    for ang in itertools.chain(
        *(enumerate_angulations(k, m) for k, m in ((6, 3), (5, 4), (4, 5), (3, 6))),
        (labelled_tree_to_labelled_angulation(random_tree(rng, k, m)).base.ang
         for k in (100, 150) for m in (3, 4, 5, 6)),
    ):
        assert rotate_one_step(ang) == _ref_rotate_one_step(ang)
    for ang in _rotation_cases():
        assert rotate_one_step(ang) == _ref_rotate_one_step(ang)
        for d in ang.diagonals:
            diags = set(ang.diagonals)
            _ref_primitive_rotate(ang.n, diags, d)
            assert diagonal_rotate(ang, d).diagonals == tuple(sorted(diags))


def test_construction_and_rotation_walk_no_face(monkeypatch):
    # MAngulation, shift and rotate_one_step read no face: a diagonal
    # rotation reads only its ends' neighbours
    cases = list(itertools.islice(_rotation_cases(), 0, None, 7))
    calls = []
    trace = angulations._Dissection.trace
    monkeypatch.setattr(
        angulations._Dissection, "trace", lambda self: calls.append(1) or trace(self)
    )
    for ang in cases:
        MAngulation(ang.m, ang.k, ang.diagonals)
        shift(ang, 3)
        rotate_one_step(ang)
        for d in ang.diagonals[:5]:
            diagonal_rotate(ang, d)
        assert calls == []
    # induction turns each hanging subpolygon without walking the polygon:
    # it traces faces only to validate its result
    turned = 0
    for ang in cases:
        for c in range(1, ang.m + 1):
            ca = colour_from_seed(ang, (1, 2), c)
            la = LabelledAngulation(ca, tuple((f, idx + 1) for idx, f in enumerate(ca.ang.faces)))
            for i in range(1, ang.m):
                for s in find_snakes(ca, i, i + 1):
                    if not any(_kept_end_hanging_counts(ca, s, i)):
                        continue
                    calls.clear()
                    induct_R_on_labelled_angulation(la, s, i)
                    assert len(calls) == 1
                    turned += 1
    assert turned >= 20


def test_rotate_one_step_does_not_recurse_per_face():
    # 150 faces rotate with only 100 frames to spare above the caller
    ang = labelled_tree_to_labelled_angulation(random_tree(random.Random(150), 150, 3)).base.ang
    want = _ref_rotate_one_step(ang)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        got = rotate_one_step(ang)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want
