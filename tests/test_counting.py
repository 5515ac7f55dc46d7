import functools
import itertools
import math
import random

import pytest

from clustercomb import counting, induction
from clustercomb.core import CircularOrder, ColouredTree, circular_order
from clustercomb.counting import (
    DEFAULT_MAX_WORK,
    check_convolution,
    check_gkp_identity,
    check_recursion,
    enumerate_angulations,
    enumerate_diagrams,
    enumerate_trees,
    fuss_catalan,
    s_count,
    t_count,
    u_count,
)
from clustercomb.errors import (
    MalformedJSON,
    SizeLimitExceeded,
    VertexOutOfRange,
    WrongCircularOrder,
)
from clustercomb.induction import orbit
from clustercomb.tables import U_TABLE


def test_fuss_catalan_values():
    assert fuss_catalan(0, 5) == 1
    assert fuss_catalan(4, 2) == 14
    assert fuss_catalan(3, 3) == 12
    # the two closed forms agree
    for k in range(1, 12):
        for d in range(2, 6):
            assert fuss_catalan(k, d) == math.comb(d * k, k - 1) // k


def test_check_recursion():
    assert check_recursion(1, 3)
    # (k,m)=(4,4): 88 = sum of S products
    assert t_count(4, 4) == 88 and check_recursion(4, 4)


def test_check_convolution_hand_case():
    # (k,m)=(3,3): six compositions of 2 into three parts
    s = [s_count(v, 3) for v in range(3)]
    by_hand = sum(
        s[a] * s[b] * s[c]
        for a in range(3)
        for b in range(3)
        for c in range(3)
        if a + b + c == 2
    )
    assert by_hand == 9 == t_count(3, 3)
    assert check_convolution(3, 3)


def test_check_gkp_identity():
    assert check_gkp_identity(0, 3, -2, 2)
    assert check_gkp_identity(2, 1, 1, 2)


def test_enumerate_trees_counts():
    assert sum(1 for _ in enumerate_trees(1, 3)) == 1
    assert sum(1 for _ in enumerate_trees(3, 3)) == 18
    assert sum(1 for _ in enumerate_trees(3, 3, CircularOrder.descending(3))) == 9
    assert sum(1 for _ in enumerate_trees(4, 4)) == u_count(4, 4)


def test_enumerate_trees_no_duplicates():
    seen = set(enumerate_trees(4, 3))
    assert len(seen) == u_count(4, 3) == 168


def test_enumerate_trees_order_filter_partitions():
    # every k-cycle class has exactly T trees
    trees = list(enumerate_trees(4, 3))
    classes = {}
    for t in trees:
        classes.setdefault(circular_order(t).perm, []).append(t)
    assert len(classes) == math.factorial(3)
    assert all(len(v) == t_count(4, 3) for v in classes.values())


def _grid():
    """(k, m, U) at m = 3..6 for k <= 6 within the default work guard, and
    at m = 2 and m = 1, each U from the tables or by hand."""
    for m, row in U_TABLE.items():
        for k, u in enumerate(row, 1):
            if u <= DEFAULT_MAX_WORK:
                yield k, m, u
    for k in range(1, 7):
        yield k, 2, math.factorial(k)
    for k, u in zip((1, 2, 3), (1, 1, 0)):
        yield k, 1, u


@pytest.mark.parametrize("k,m,u", list(_grid()))
def test_enumerate_trees_is_every_tree_once(k, m, u):
    # pairwise distinct, each a proper tree, and U of them: every tree.
    # Each tree is kept as its edges' bytes, which keeps the set small.
    seen, n = set(), 0
    for t in enumerate_trees(k, m):
        assert t == ColouredTree(t.k, t.m, t.edges)
        seen.add(bytes(itertools.chain.from_iterable(t.edges)))
        n += 1
    assert len(seen) == n == u


@pytest.mark.parametrize("k,m", [(1, 3), (2, 1), (3, 1), (4, 2), (4, 3), (5, 3), (4, 4)])
def test_enumerate_trees_is_its_classes_in_cycle_order(k, m):
    # the classes of the k-cycles (1 a_2 ... a_k), in lexicographic order of
    # (a_2, ..., a_k), one after the other, each as its order gives it
    classes = [
        t
        for rest in itertools.permutations(range(2, k + 1))
        for t in enumerate_trees(k, m, CircularOrder.from_cycle((1, *rest)))
    ]
    assert list(enumerate_trees(k, m)) == classes


def test_enumerate_diagrams_counts():
    assert sum(1 for _ in enumerate_diagrams(1, 3)) == 1
    assert (
        sum(1 for _ in enumerate_diagrams(3, 3, connected_only=True, noncrossing_only=True))
        == 9
    )
    # degree 4 with 4th vertex S_1 only: the family counted by S_{3,3}
    special = [
        d
        for d in enumerate_diagrams(4, 3, connected_only=True, noncrossing_only=True)
        if all(r == 1 for arc in d.arcs for v, r in arc if v == 4)
    ]
    assert len(special) == s_count(3, 3) == 5


def test_diagram_guard_stops_at_the_first_motzkin_number_above_the_limit(monkeypatch):
    # the noncrossing counts N(k, m) never decrease, so the first one above
    # the default limit refuses a larger k without computing N(k, m): at
    # m = 1 they are the Motzkin numbers, and M_17 = 2 356 779 is the first
    # above it; at m = 3 it is N(10, 3) = 5 782 767.  Without the flag the
    # bound is I(k)^m, and I(14) = 2 390 480 is the first involution count
    # above the limit; and a slot table above the bound is refused before
    # any count
    monkeypatch.delenv("CLUSTERCOMB_MAX_WORK", raising=False)
    with pytest.raises(SizeLimitExceeded, match="output bound 2356779 exceeds work limit 1000000"):
        next(enumerate_diagrams(20, 1, noncrossing_only=True))
    with pytest.raises(SizeLimitExceeded, match="output bound 5782767 exceeds work limit 1000000"):
        next(enumerate_diagrams(20, 3, noncrossing_only=True))
    with pytest.raises(SizeLimitExceeded, match="output bound 5782767 "):
        next(enumerate_diagrams(800, 3, noncrossing_only=True))
    with pytest.raises(SizeLimitExceeded, match="output bound 2390480 exceeds work limit 1000000"):
        next(enumerate_diagrams(20, 3))
    with pytest.raises(SizeLimitExceeded, match="output bound 2390480 "):
        next(enumerate_diagrams(800, 3, connected_only=True))
    with pytest.raises(VertexOutOfRange, match="^k = 2000000 at m = 3 needs 8000004 slots"):
        next(enumerate_diagrams(2_000_000, 3))


# N(k, m) for k = 0, 1, ...: the Motzkin numbers (A001006) at m = 1, and
# at m = 3, 4 the counts of the partial-matching walk `_ref_walk`
_NONCROSSING = {
    1: [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798, 15511, 41835, 113634, 310572,
        853467, 2356779],
    3: [1, 1, 4, 19, 101, 576, 3445, 21323],
    4: [1, 1, 5, 31],
}


@pytest.mark.parametrize("m", sorted(_NONCROSSING))
def test_noncrossing_count_is_pinned(m):
    assert [counting._noncrossing_count(k, m, 10**9) for k in range(len(_NONCROSSING[m]))] == (
        _NONCROSSING[m]
    )


@pytest.mark.parametrize("k,m", [(3, 3), (6, 3), (7, 3), (3, 4), (9, 1), (4, 5)])
def test_noncrossing_guard_is_the_exact_count(monkeypatch, k, m):
    # admitted at N(k, m), which it yields, and refused at N - 1
    count = counting._noncrossing_count(k, m, 10**9)
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", str(count))
    assert sum(1 for _ in enumerate_diagrams(k, m, noncrossing_only=True)) == count
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", str(count - 1))
    with pytest.raises(SizeLimitExceeded, match=f"^enumerate_diagrams: output bound {count} "):
        next(enumerate_diagrams(k, m, noncrossing_only=True))


def test_diagrams_are_guarded_by_their_arc_entries(monkeypatch):
    # without --noncrossing a diagram has at most m floor(k/2) arcs: (4, 6)
    # has I(4)^6 = 10^6 diagrams, within the default limit, but 12 000 000
    # arc entries; with it, a diagram is a forest of at most k - 1 arcs
    monkeypatch.delenv("CLUSTERCOMB_MAX_WORK", raising=False)
    for connected in (False, True):
        with pytest.raises(SizeLimitExceeded, match="^enumerate_diagrams: 12000000 edge entries"):
            next(enumerate_diagrams(4, 6, connected_only=connected))
    # and M_16 = 853 467 noncrossing diagrams at (16, 1), of 15 arcs each
    with pytest.raises(SizeLimitExceeded, match="^enumerate_diagrams: 12802005 edge entries"):
        next(enumerate_diagrams(16, 1, noncrossing_only=True))
    # N(12, 1) = 15 511 diagrams of at most 11 arcs are 170 621 entries
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "17062")
    with pytest.raises(SizeLimitExceeded, match="^enumerate_diagrams: 170621 edge entries"):
        next(enumerate_diagrams(12, 1, noncrossing_only=True))
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "17063")
    assert sum(1 for _ in enumerate_diagrams(12, 1, noncrossing_only=True)) == 15511


def test_unflagged_diagram_guard_is_the_exact_count(monkeypatch):
    # arcs join slots of one base, so a diagram is one partial matching of
    # each base's k slots: I(k)^m diagrams (I is A000085), the exact guard,
    # which also bounds the connected ones
    for k, m, count in ((3, 3, 64), (4, 2, 100), (8, 1, 764), (4, 3, 1000)):
        monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", str(count))
        assert sum(1 for _ in enumerate_diagrams(k, m)) == count
        assert sum(1 for _ in enumerate_diagrams(k, m, connected_only=True)) < count
        monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", str(count - 1))
        with pytest.raises(SizeLimitExceeded, match=f"output bound {count} "):
            next(enumerate_diagrams(k, m))
    # M_15 = 310 572 admitted k = 15 at m = 1, which yields I(15) = 10 349 536;
    # at k = 1 the one diagram has no arc, whatever m (M_m refused m >= 17)
    monkeypatch.delenv("CLUSTERCOMB_MAX_WORK")
    with pytest.raises(SizeLimitExceeded, match="output bound 2390480 "):
        next(enumerate_diagrams(15, 1))
    assert [d.arcs for d in enumerate_diagrams(1, 1000)] == [()]


def test_a_bound_past_40_digits_is_named_by_its_digit_count(monkeypatch):
    # Python will not write an integer of more than 4300 digits as text,
    # so the refusal counts the digits: U(2000, 3) has 6932, and T passes
    # 4300 digits near k = 7200 at m = 3
    monkeypatch.delenv("CLUSTERCOMB_MAX_WORK", raising=False)
    assert counting._shown(10**40 - 1) == "9" * 40
    assert [counting._shown(x) for x in (10**40, 2**136, 2**137, 10**41 - 1, 10**5000)] == [
        f"(a {d}-digit number)" for d in (41, 41, 42, 41, 5001)
    ]
    with pytest.raises(SizeLimitExceeded, match=r"output bound \(a 6932-digit number\) exceeds"):
        next(enumerate_trees(2000, 3))
    path = ColouredTree(7500, 3, tuple((v, v + 1, 1 + v % 2) for v in range(1, 7500)))
    with pytest.raises(SizeLimitExceeded, match=r"^orbit: output bound \(a \d+-digit number\)"):
        orbit(path)


def _path(k, m):
    return ColouredTree(k, m, tuple((v, v + 1, 1 + v % 2) for v in range(1, k)))


def test_m2_classes_are_guarded_by_their_edge_entries(monkeypatch):
    # at m = 2 a class has T = k trees of k - 1 edges: the k = 20 000 path
    # passes the object bound but emits 4e8 edge entries, refused before any
    # tree is built; the 1500-vertex path (2.25e6 entries) and the largest
    # class admitted at m = 3, T(12, 3) trees of 11 edges, stay admitted
    monkeypatch.delenv("CLUSTERCOMB_MAX_WORK", raising=False)

    def no_class(*args):
        raise AssertionError("a class was built")

    monkeypatch.setattr(counting, "_order_class", no_class)
    monkeypatch.setattr(induction, "_order_class", no_class)
    with pytest.raises(SizeLimitExceeded, match="^orbit: 399980000 edge entries"):
        orbit(_path(20_000, 2))
    with pytest.raises(SizeLimitExceeded, match="^enumerate_trees: 399980000 edge entries"):
        next(enumerate_trees(20_000, 2, CircularOrder.descending(20_000)))
    for kind, bound, width in (("orbit", ("T", 1500, 2), 1499), ("orbit", ("T", 12, 3), 11),
                               ("enumerate_trees", ("U", 7, 3), 6)):
        counting._guard(kind, bound, width)
    # limit 297 admits the 297 trees of 5 edges at (6, 3)
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "297")
    counting._guard("orbit", ("T", 6, 3), 5)


def test_refusals_past_the_limit_compute_no_big_binomial(monkeypatch):
    # the digit count of a bound far above the limit comes from the
    # Stirling estimate that count rows use: math.comb never sees the
    # 120 404-digit S(200 000, 3); near the limit, or at up to 41 digits,
    # the bound is exact, and every message is the one the exact bound gives
    monkeypatch.delenv("CLUSTERCOMB_MAX_WORK", raising=False)
    comb = math.comb

    def small_comb(n, r):
        if n > 10**4:
            raise AssertionError(f"comb({n}, {r}) computed")
        return comb(n, r)

    monkeypatch.setattr(counting.math, "comb", small_comb)
    with pytest.raises(SizeLimitExceeded, match=r"bound \(a 120404-digit number\) exceeds"):
        next(enumerate_angulations(200_000, 3))
    with pytest.raises(SizeLimitExceeded, match=r"bound \(a 120405-digit number\) exceeds"):
        next(enumerate_trees(200_000, 3, CircularOrder.descending(200_000)))
    with pytest.raises(SizeLimitExceeded, match=r"^orbit: output bound \(a \d+-digit number\)"):
        orbit(_path(200_000, 3))
    for family in ("T", "S", "U"):
        for k in range(2, 1000, 13):
            for m in (2, 3, 5):
                bound = counting._COUNTS[family](k, m)
                if bound > DEFAULT_MAX_WORK:
                    with pytest.raises(SizeLimitExceeded) as exc:
                        counting._guard("g", (family, k, m))
                    assert str(exc.value).startswith(f"g: output bound {counting._shown(bound)} ")
                else:
                    counting._guard("g", (family, k, m))


def test_enumerate_angulations_counts():
    assert sum(1 for _ in enumerate_angulations(1, 3)) == 1
    assert sum(1 for _ in enumerate_angulations(4, 3)) == 14
    assert sum(1 for _ in enumerate_angulations(3, 4)) == 12
    for k in range(1, 6):
        assert sum(1 for _ in enumerate_angulations(k, 3)) == s_count(k, 3)
    # pairwise distinct, m = 3..6
    for m, kmax in ((3, 6), (4, 4), (5, 4), (6, 3)):
        for k in range(1, kmax + 1):
            angs = list(enumerate_angulations(k, m))
            assert len(set(angs)) == len(angs) == s_count(k, m)


def test_enumerate_angulations_refuses_two_gons_at_once():
    # no 2-angulation exists: refused on the first next(), at any k, without
    # descending k levels into the polygon first
    with pytest.raises(VertexOutOfRange, match="need m >= 3"):
        next(enumerate_angulations(2000, 2))


def test_work_guard_two_colours():
    # u_count(12, 2) = 12! trees: refused although m < 3
    with pytest.raises(SizeLimitExceeded):
        next(enumerate_trees(12, 2))
    for k in range(1, 7):
        assert sum(1 for _ in enumerate_trees(k, 2)) == u_count(k, 2) == math.factorial(k)
    assert [sum(1 for _ in enumerate_trees(k, 1)) for k in (1, 2, 3)] == [1, 1, 0]


def test_work_guard(monkeypatch):
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "10")
    with pytest.raises(SizeLimitExceeded):
        list(enumerate_trees(4, 3))
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "1000")
    assert sum(1 for _ in enumerate_trees(4, 3)) == 168
    monkeypatch.delenv("CLUSTERCOMB_MAX_WORK")
    with pytest.raises(SizeLimitExceeded):
        list(enumerate_trees(12, 6))


def test_ordered_enumeration_is_guarded_by_t(monkeypatch):
    # one circular-order class has T = 297 trees of the U = 35 640 at (6, 3)
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "297")
    trees = list(enumerate_trees(6, 3, CircularOrder.descending(6)))
    assert len(trees) == t_count(6, 3) == 297
    assert [t.edges for t in trees] == sorted(t.edges for t in trees)
    with pytest.raises(SizeLimitExceeded):
        next(enumerate_trees(6, 3))
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "296")
    with pytest.raises(SizeLimitExceeded):
        next(enumerate_trees(6, 3, CircularOrder.descending(6)))


def test_order_that_is_no_k_cycle_yields_nothing():
    assert list(enumerate_trees(4, 3, (2, 1, 4, 3))) == []
    assert list(enumerate_trees(3, 3, (1, 2, 3))) == []


def test_one_colour_counts():
    # with one colour only k <= 2 has a tree, and it has order (k ... 1)
    for k in range(1, 6):
        trees = list(enumerate_trees(k, 1))
        assert u_count(k, 1) == len(trees) == int(k <= 2)
        desc = CircularOrder.descending(k)
        assert t_count(k, 1) == sum(1 for t in trees if circular_order(t) == desc)
    with pytest.raises(VertexOutOfRange):
        s_count(3, 1)


def test_zero_vertices_refused():
    with pytest.raises(VertexOutOfRange):
        list(enumerate_trees(0, 2))
    with pytest.raises(VertexOutOfRange):
        list(enumerate_trees(0, 2, ()))
    with pytest.raises(VertexOutOfRange):
        u_count(0, 3)


def test_u_count_is_the_factorial_quotient():
    # U = m ((m-1)k)! / ((m-2)k+2)!, computed as m times a falling factorial
    for k in range(1, 15):
        for m in range(1, 12):
            num = m * math.factorial((m - 1) * k)
            den = math.factorial((m - 2) * k + 2) if m > 1 or k <= 2 else None
            want = num // den if den else 0  # at m = 1 only k <= 2 has a tree
            assert u_count(k, m) == want, (k, m)


def test_u_count_at_a_large_palette_is_immediate():
    # the falling factorial has k - 2 factors, whatever m
    assert u_count(6, 100_000) == 100_000 * 599_994 * 599_993 * 599_992 * 599_991
    assert u_count(1, 100_000) == 1 and u_count(2, 100_000) == 100_000


def test_enumerate_trees_refuses_k_beyond_the_slot_bound():
    # refused before the work guard computes U at that k
    with pytest.raises(VertexOutOfRange, match="^k = 2000000 at m = 3 needs 8000004 slots"):
        next(enumerate_trees(2_000_000, 3))


def test_enumerate_trees_refuses_m_beyond_the_palette_bound():
    # its trees are built without validation, so it checks m itself, and
    # before the work guard: at k = 1 and 2 the guard lets such an m through
    for order in (None, (1,), (2, 1)):
        with pytest.raises(VertexOutOfRange, match="^m must be <= 1000, got 1001$"):
            next(enumerate_trees(len(order or (1,)), 1001, order))
    assert len(list(enumerate_trees(2, 1000))) == 1000


@pytest.mark.parametrize(
    "call",
    [
        lambda: next(enumerate_trees(3, 3, (1, 2))),
        lambda: next(enumerate_trees(3, 3, (1, 1, 1))),
        lambda: next(enumerate_trees(3, 3, (2, 3, 1, 4))),
        lambda: CircularOrder.from_cycle((1, 5)),
        lambda: CircularOrder.from_cycle((1, 1, 2)),
    ],
    ids=["short", "repeated", "long", "cycle-out-of-range", "cycle-repeated"],
)
def test_orders_that_are_no_permutation_are_refused(call):
    # refused before any tree is built: such an order would match no tree,
    # and such a cycle indexes outside 1..k or builds no permutation
    with pytest.raises(WrongCircularOrder):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: CircularOrder.from_cycle((True, 2)),
        lambda: CircularOrder.from_cycle((1.0, 2)),
        lambda: next(enumerate_trees(2, 3, order=(2, True))),
        lambda: next(enumerate_trees(2, 3, order=(2.0, 1))),
    ],
    ids=["cycle-bool", "cycle-float", "order-bool", "order-float"],
)
def test_order_entries_that_are_no_int_are_refused(call):
    # in a set True and 1.0 equal 1, so these passed the permutation check:
    # a bool became a vertex, a float an index
    with pytest.raises(MalformedJSON, match="no integer"):
        call()


def _ref_walk(k, m, noncrossing_only=False):
    """The arcs of every RNA m-diagram of degree k, or of every noncrossing
    one, as the diagram stores them, by the partial-matching walk the
    library used before its generators: slots in position order, each left
    free or matched with a later slot of the same base.  Each arc is one
    shared tuple, which keeps a set of the results small."""
    n = k * m
    slot = [None] + [((p - 1) // m + 1, (p - 1) % m + 1) for p in range(1, n + 1)]
    arc = {(p, q): (slot[p], slot[q]) for p in range(1, n + 1) for q in range(p + m, n + 1, m)}
    taken = [False] * (n + 1)
    arcs = []

    def rec(p):
        while p <= n and (taken[p] or p > n - m):
            p += 1
        if p > n:
            yield tuple(map(arc.__getitem__, arcs))
            return
        taken[p] = True
        yield from rec(p + 1)
        taken[p] = False
        # all arcs start before p, so a crossing can only be a < p < b < q
        for q in range(p + m, n + 1, m):
            if taken[q] or noncrossing_only and any(p < b < q for _, b in arcs):
                continue
            taken[p] = taken[q] = True
            arcs.append((p, q))
            yield from rec(p + 1)
            arcs.pop()
            taken[p] = taken[q] = False

    yield from rec(1)


def _ref_connected(k, arcs):
    """Whether the arcs join the vertices 1..k into one component."""
    parent = list(range(k + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for (u, _), (v, _) in arcs:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(1, k + 1)}) == 1


def _ref_admits(k, m, noncrossing_only):
    """Whether the walk's guard admitted (k, m) at the default limit: I(k)^m
    diagrams, or with noncrossing_only the smaller of that and the Motzkin
    number M_{km}, at most 10^6."""
    inv = [1, 1]
    mot = [1, 1]
    for i in range(2, max(k, k * m) + 1):
        inv.append(inv[-1] + (i - 1) * inv[-2])
        mot.append(mot[-1] + sum(mot[j] * mot[i - 2 - j] for j in range(i - 1)))
    bound = inv[k] ** m
    return min(bound, mot[k * m]) <= 10**6 if noncrossing_only else bound <= 10**6


def test_reference_walk_reads_motzkin_and_involution_counts():
    # the walk's own counts: I(k)^m diagrams, M_{km} noncrossing ones at
    # m = 1, and the admitted sizes the parent's guards named
    assert sum(1 for _ in _ref_walk(4, 3)) == 1000
    assert sum(1 for a in _ref_walk(3, 3) if _ref_connected(3, a)) == 42
    assert [sum(1 for _ in _ref_walk(k, 1, noncrossing_only=True)) for k in range(1, 9)] == (
        _NONCROSSING[1][1:9]
    )
    assert _ref_admits(6, 3, False) and not _ref_admits(6, 4, False)
    assert _ref_admits(5, 3, True) and _ref_admits(8, 2, True) and not _ref_admits(6, 7, True)


# the sizes with k <= 6 and m <= 7 that the walk admitted with at least one
# of the three flag combinations it served
_WALKED = [(k, m) for m in range(1, 8) for k in range(1, 7) if _ref_admits(k, m, True)]


@pytest.mark.parametrize("k,m", _WALKED)
def test_walked_combinations_match_the_reference_walk(k, m):
    # each of the three combinations the walk served, against the walk
    # (connectivity filtered afterwards, as the walk did): the same set,
    # each diagram once, and N(k, m) of them with --noncrossing; (4, 6) is
    # refused without --noncrossing by its arc entries (see the arc-entry
    # test)
    want = {(False, True): set(_ref_walk(k, m, noncrossing_only=True))}
    if _ref_admits(k, m, False) and (k, m) != (4, 6):
        want[False, False] = set(_ref_walk(k, m))
        want[True, False] = {a for a in want[False, False] if _ref_connected(k, a)}
    for flags, walked in want.items():
        got = [d.arcs for d in enumerate_diagrams(k, m, *flags)]
        assert len(got) == len(walked), (k, m, flags)
        assert set(got) == walked, (k, m, flags)
    assert len(want[False, True]) == counting._noncrossing_count(k, m, 10**9), (k, m)


def test_family_1_is_the_walks_connected_noncrossing_set():
    # the descending class drawn arc for edge against the partial-matching
    # walk filtered by connectivity, at every size the walk admits
    sizes = 0
    for m in range(1, 8):
        for k in range(1, 7):
            if not _ref_admits(k, m, True):
                continue
            walked = {a for a in _ref_walk(k, m, True) if _ref_connected(k, a)}
            drawn = [d.arcs for d in enumerate_diagrams(k, m, True, True)]
            assert len(set(drawn)) == len(drawn) == t_count(k, m), (k, m)
            assert set(drawn) == walked, (k, m)
            sizes += 1
    assert sizes == 34


def test_family_1_takes_no_walk(monkeypatch):
    # (7, 3) was refused by min(I(7)^3, M_21); T = 1001 admits it, and no
    # connectivity test runs
    def refuse(d):
        raise AssertionError("family (1) walked and filtered")

    monkeypatch.setattr(counting, "is_connected", refuse)
    assert len(set(enumerate_diagrams(7, 3, True, True))) == t_count(7, 3) == 1001


def test_family_1_is_guarded_by_t(monkeypatch):
    monkeypatch.delenv("CLUSTERCOMB_MAX_WORK", raising=False)
    with pytest.raises(SizeLimitExceeded, match="^enumerate_diagrams: output bound 1931540 "):
        next(enumerate_diagrams(13, 3, True, True))
    # and by its k - 1 arc entries per diagram: T(12, 3) = 534 888 is within
    # a limit of 550 000, but its 11 arcs each are more than ten times that
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "550000")
    with pytest.raises(SizeLimitExceeded, match="^enumerate_diagrams: 5883768 edge entries"):
        next(enumerate_diagrams(12, 3, True, True))
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "1001")
    assert sum(1 for _ in enumerate_diagrams(7, 3, True, True)) == 1001
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "1000")
    with pytest.raises(SizeLimitExceeded, match="^enumerate_diagrams: output bound 1001 "):
        next(enumerate_diagrams(7, 3, True, True))


@pytest.mark.parametrize(
    "generator", [enumerate_trees, enumerate_diagrams, enumerate_angulations],
    ids=["trees", "diagrams", "angulations"],
)
@pytest.mark.parametrize("size", [True, 3.0, "3"], ids=["bool", "float", "string"])
@pytest.mark.parametrize("field", ["k", "m"])
def test_generators_refuse_sizes_that_are_no_int(generator, size, field):
    # one type rule before any guard: enumerate_trees(True, 3) yielded a
    # tree, and a float or string size raised a bare TypeError
    k, m = (size, 3) if field == "k" else (2, size)
    with pytest.raises(MalformedJSON, match=f'^"{field}" must be an integer'):
        next(generator(k, m))


@pytest.mark.parametrize(
    "call",
    [
        lambda: fuss_catalan(-1, 2),
        lambda: t_count(-2, 3),
        lambda: s_count(-1, 4),
        lambda: next(enumerate_angulations(-1, 3)),
        lambda: next(enumerate_diagrams(-2, 3)),
        lambda: next(enumerate_diagrams(2, -2)),
    ],
    ids=["fuss", "T", "S", "angulations", "diagrams-k", "diagrams-m"],
)
def test_negative_sizes_refused(call):
    # a named error, not a ValueError from math.comb or an IndexError
    with pytest.raises(VertexOutOfRange):
        call()


@pytest.mark.parametrize("count,fields", [(fuss_catalan, "kd"), (t_count, "km"), (s_count, "km"),
                                          (u_count, "km")], ids=["fuss", "T", "S", "U"])
@pytest.mark.parametrize("size", [True, 3.0, "3"], ids=["bool", "float", "string"])
@pytest.mark.parametrize("second", [False, True], ids=["first", "second"])
def test_counts_refuse_sizes_that_are_no_int(count, fields, size, second):
    # the generators' type rule: t_count(2.0, 3) raised a bare TypeError
    # from math.comb, and u_count(True, 3) returned 1
    args = (2, size) if second else (size, 3)
    with pytest.raises(MalformedJSON, match=f'^"{fields[second]}" must be an integer'):
        count(*args)


def _ref_order_class(m, order):
    """The sorted edges of each tree of circular order `order`, by the
    library's earlier per-order walk: every rooted shape, walked in
    preorder, is labelled from its own circular order tau, the root getting
    1 and tau^i(root) getting sigma^i(1).  It shares no code with the
    library's class generator."""
    k = order.k
    cycle = order.cycle_of(1)
    if len(cycle) != k:
        return
    colours = range(1, m + 1)

    @functools.cache
    def options(c, least, room):
        free = [x for x in colours if x != c]
        sizes = range(least, min(room, len(free)) + 1)
        return [x[::-1] for n in sizes for x in itertools.combinations(free, n)]

    inv = [list(range(k + 1)) for _ in range(m + 1)]
    rows = inv[1:]
    par, col = [0] * (k + 1), [0] * (k + 1)
    slots, n = (0, 0, ()), 1
    branches = []
    t = 0
    while True:
        while slots:
            t += 1
            p, c, slots = slots
            n -= 1
            par[t], col[t] = p, c
            inv[c][p], inv[c][t] = t, p
            sets = options(c, 0 if n or t == k else 1, k - t - n)
            if not sets:
                break
            if len(sets) > 1:
                branches.append((t, sets, 1, slots, n))
            for c in sets[0]:
                slots = (t, c, slots)
            n += len(sets[0])
        else:
            tau = inv[1]
            for c in colours[1:]:
                tau = list(map(inv[c].__getitem__, tau))
            label = [0] * (k + 1)
            v = 1
            for a in cycle:
                label[v] = a
                v = tau[v]
            edges = [(a, b, c) if a < b else (b, a, c)
                     for a, b, c in zip(map(label.__getitem__, par[2:]), label[2:], col[2:])]
            yield tuple(sorted(edges))
        if not branches:
            return
        u, sets, i, slots, n = branches.pop()
        tail = range(u + 1, t + 1)
        for row in rows:
            row[u + 1:t + 1] = tail
        for c in sets[i - 1]:
            inv[c][u] = u
        if i + 1 < len(sets):
            branches.append((u, sets, i + 1, slots, n))
        for c in sets[i]:
            slots = (u, c, slots)
        t, n = u, n + len(sets[i])


def _reference_orders(k):
    """The standard and the descending k-cycle, then three seeded ones."""
    rng = random.Random(k)
    yield CircularOrder.from_cycle(range(1, k + 1))
    yield CircularOrder.descending(k)
    for _ in range(3):
        rest = list(range(2, k + 1))
        rng.shuffle(rest)
        yield CircularOrder.from_cycle((1, *rest))


@pytest.mark.parametrize("kept", [True, False], ids=["kept", "streamed"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_order_class_is_the_reference_walk_relabelled(monkeypatch, m, kept):
    # the class of (1 2 ... k), relabelled, is the per-order walk, member
    # for member in the same order: from the kept table, cold and warm,
    # and, with no class small enough to keep, streamed from the walk
    if not kept:
        monkeypatch.setattr(counting, "_KEPT_EDGES", 0)
    for k in range(1, 7):
        for order in _reference_orders(k):
            want = list(_ref_order_class(m, order))
            assert len(want) == t_count(k, m)
            assert list(counting._order_class(m, order)) == want
    # a table is built only for a class whose trees share their triples
    # (T > km) and whose T(k-1) edge entries fit the kept size
    tables = [k for k in range(1, 7)
              if k * m < t_count(k, m) and t_count(k, m) * (k - 1) <= counting._KEPT_EDGES]
    assert counting._standard_class.cache_info().misses == len(tables)


def test_a_class_too_large_to_keep_streams(monkeypatch):
    # a class above the kept size is walked shape by shape as it is read:
    # family (1)'s first diagram comes after one shape, and no table stays
    monkeypatch.setattr(counting, "_KEPT_EDGES", t_count(6, 3) * 5 - 1)
    walked = []
    real = counting._shapes

    def spy(k, m):
        for shape in real(k, m):
            walked.append(k)
            yield shape

    monkeypatch.setattr(counting, "_shapes", spy)
    first = next(enumerate_diagrams(6, 3, True, True))
    assert walked == [6] and first.k == 6
    assert counting._standard_class.cache_info().currsize == 0


def test_a_cached_class_is_still_guarded(monkeypatch):
    # the guards run before the cache is read: with the (6, 3) class cached,
    # a limit one below T(6, 3) = 297 refuses each of its three consumers,
    # and none of them reads the cache
    monkeypatch.delenv("CLUSTERCOMB_MAX_WORK", raising=False)
    order = CircularOrder.descending(6)
    tree = next(enumerate_trees(6, 3, order))
    info = counting._standard_class.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "296")
    with pytest.raises(SizeLimitExceeded, match="^orbit: output bound 297 "):
        orbit(tree)
    with pytest.raises(SizeLimitExceeded, match="^enumerate_trees: output bound 297 "):
        next(enumerate_trees(6, 3, order))
    with pytest.raises(SizeLimitExceeded, match="^enumerate_diagrams: output bound 297 "):
        next(enumerate_diagrams(6, 3, True, True))
    assert counting._standard_class.cache_info() == info
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "297")
    assert len(orbit(tree)) == 297
    assert counting._standard_class.cache_info().hits == info.hits + 1
