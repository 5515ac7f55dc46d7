"""Diagonal rotation as cluster mutation, checked by an algebraic oracle:
Buan-Thomas coloured-quiver mutation (Coloured quiver mutation for higher
cluster categories, 2009), which at m = 3 is Fomin-Zelevinsky matrix
mutation (Cluster algebras I, 2002).

Convention.  The coloured quiver Q(D) of an m-angulation D has the
diagonals as vertices.  For two diagonals d = e_a and e = e_b of one face
whose edges are e_0 ... e_{m-1} in clockwise order (ascending vertices, then
the closing edge, as `_face_edges` lists them), Q(D) has one arrow
d -> e of colour (a - b - 1) mod m: the number of face edges strictly
between d and e, going anticlockwise from d.  The colours are 0..m-2 and
e -> d has colour m-2-c, so Q(D) is a Buan-Thomas coloured quiver for their
m = m - 2.  The faces come from the test reference `_ref_split_faces`, so
the oracle does not rest on the kernels it checks.

With this convention one anticlockwise `diagonal_rotate` of d is mu_d with
the vertex d renamed to the new diagonal.  The clockwise colour convention
and the inverse mutation each fail from m = 4 on; at m = 3 both agree with
mu_d, which is then an involution."""
import itertools
from collections import Counter, defaultdict

from clustercomb.angulations import diagonal_rotate, rotate_one_step, shift
from clustercomb.counting import enumerate_angulations
from test_angulations import _ref_split_faces, _rotation_cases


def _face_edges(face):
    m = len(face)
    return [tuple(sorted((face[t], face[(t + 1) % m]))) for t in range(m)]


def quiver(faces, diagonals, m) -> Counter:
    """Q(D) as a multiset of arrows (tail, head, colour)."""
    diags = set(diagonals)
    q = Counter()
    for face in faces:
        on = [(a, e) for a, e in enumerate(_face_edges(face)) if e in diags]
        for (a, d), (b, e) in itertools.permutations(on, 2):
            q[d, e, (a - b - 1) % m] += 1
    return q


def mutate(q: Counter, j, new, m) -> Counter:
    """mu_j of the coloured quiver q, its vertex j renamed to new:
    1. for each arrow i -(c)-> j and each arrow j -(0)-> k with i != k, add
       i -(c)-> k and k -(m-2-c)-> i;
    2. between each ordered pair of vertices, cancel equal numbers of arrows
       of different colours until one colour is left;
    3. add 1 to the colour of each arrow into j and subtract 1 from the
       colour of each arrow out of j, mod m - 1."""
    out = Counter(q)
    into = [(i, c, n) for (i, h, c), n in q.items() if h == j]
    out0 = [(k, n) for (t, k, c), n in q.items() if t == j and c == 0]
    for (i, c, a), (k, b) in itertools.product(into, out0):
        if i != k:
            out[i, k, c] += a * b
            out[k, i, m - 2 - c] += a * b
    pairs = defaultdict(dict)
    for (t, h, c), n in out.items():
        pairs[t, h][c] = n
    res = Counter()
    for (t, h), cols in pairs.items():
        assert len(cols) <= 2, f"arrows of colours {sorted(cols)} from {t} to {h}"
        least = min(cols.values()) if len(cols) == 2 else 0
        for c, n in cols.items():
            if n == least:
                continue
            if h == j:
                res[t, new, (c + 1) % (m - 1)] = n - least
            elif t == j:
                res[new, h, (c - 1) % (m - 1)] = n - least
            else:
                res[t, h, c] = n - least
    return res


def _angulation_quiver(ang) -> Counter:
    return quiver(_ref_split_faces(tuple(range(1, ang.n + 1)), ang.diagonals), ang.diagonals, ang.m)


def test_quiver_mutation_is_at_m3_matrix_mutation():
    # at m = 3 the colour-0 arrows are the exchange matrix B (b_de = 1 for
    # d -(0)-> e), and mu_d is Fomin-Zelevinsky's
    # b'_ik = -b_ik if d in (i, k), else b_ik + (|b_id| b_dk + b_id |b_dk|) / 2
    for ang in enumerate_angulations(5, 3):
        q = _angulation_quiver(ang)
        b = Counter({(t, h): 1 for (t, h, c) in q if c == 0})
        b.update({(h, t): -1 for (t, h, c) in q if c == 0})
        for d in ang.diagonals:
            mu = mutate(q, d, d, 3)
            got = Counter({(t, h): 1 for (t, h, c) in mu if c == 0})
            got.update({(h, t): -1 for (t, h, c) in mu if c == 0})
            for i, k in itertools.product(ang.diagonals, repeat=2):
                bik, bid, bdk = b[i, k], b[i, d], b[d, k]
                want = -bik if d in (i, k) else bik + (abs(bid) * bdk + bid * abs(bdk)) // 2
                assert got[i, k] == want


def test_diagonal_rotation_is_quiver_mutation():
    # every single rotation of every angulation at (5,3), (4,4), (3,5), (6,3)
    rotations = 0
    for k, m in ((5, 3), (4, 4), (3, 5), (6, 3)):
        for ang in enumerate_angulations(k, m):
            q = _angulation_quiver(ang)
            for d in ang.diagonals:
                rot = diagonal_rotate(ang, d)
                (new,) = set(rot.diagonals) - set(ang.diagonals)
                assert _angulation_quiver(rot) == mutate(q, d, new, m), (ang, d)
                rotations += 1
    assert rotations == 168 + 165 + 44 + 660


def _rotated(faces, d):
    """The faces after one anticlockwise rotation of d, found in a face
    list: the two faces holding both ends of d merge into a (2m-2)-gon, each
    end moves to its predecessor there, and the new diagonal splits it;
    returns the new faces and the new diagonal."""
    f1, f2 = (f for f in faces if d[0] in f and d[1] in f)
    merged = sorted(set(f1) | set(f2))
    pa, pb = sorted((merged.index(v) - 1) % len(merged) for v in d)
    halves = [tuple(merged[pa : pb + 1]), tuple(merged[pb:] + merged[: pa + 1])]
    rest = [f for f in faces if f not in (f1, f2)]
    return rest + [tuple(sorted(h)) for h in halves], (merged[pa], merged[pb])


def test_rotate_one_step_is_a_mutation_sequence():
    # mu stepped along each rotate_one_step sequence reaches Q(shift(D, -1)):
    # every angulation at (5,3), (4,4), (3,5) and seeded ones at k = 30..60
    # for m = 3, 4, 5
    steps = 0
    for ang in _rotation_cases():
        _, seq = rotate_one_step(ang)
        faces = _ref_split_faces(tuple(range(1, ang.n + 1)), ang.diagonals)
        q = quiver(faces, ang.diagonals, ang.m)
        for d in seq:
            faces, new = _rotated(faces, d)
            q = mutate(q, d, new, ang.m)
            steps += 1
        assert q == _angulation_quiver(shift(ang, -1))
    assert steps >= 699
