import itertools
import math

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
from clustercomb.diagrams import is_connected
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
    # Motzkin numbers increase, so M_17 = 2 356 779, the first above the
    # default limit, refuses k m = 60 noncrossing slots without computing
    # M_60; without the flag the bound is I(k)^m, and I(14) = 2 390 480 is
    # the first involution count above the limit; and a slot table above
    # the bound is refused before any count
    monkeypatch.delenv("CLUSTERCOMB_MAX_WORK", raising=False)
    with pytest.raises(SizeLimitExceeded, match="output bound 2356779 exceeds work limit 1000000"):
        next(enumerate_diagrams(20, 3, noncrossing_only=True))
    with pytest.raises(SizeLimitExceeded, match="output bound 2356779 "):
        next(enumerate_diagrams(800, 3, noncrossing_only=True))
    with pytest.raises(SizeLimitExceeded, match="output bound 2390480 exceeds work limit 1000000"):
        next(enumerate_diagrams(20, 3))
    with pytest.raises(SizeLimitExceeded, match="output bound 2390480 "):
        next(enumerate_diagrams(800, 3, connected_only=True))
    with pytest.raises(VertexOutOfRange, match="^k = 2000000 at m = 3 needs 8000004 slots"):
        next(enumerate_diagrams(2_000_000, 3))


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


def test_family_1_is_the_walks_connected_noncrossing_set():
    # the descending class drawn arc for edge against the partial-matching
    # walk filtered by connectivity, at every size the walk admits
    sizes = 0
    for m in range(1, 8):
        for k in range(1, 7):
            try:
                walked = [d for d in enumerate_diagrams(k, m, noncrossing_only=True)
                          if is_connected(d)]
            except SizeLimitExceeded:
                continue
            drawn = list(enumerate_diagrams(k, m, True, True))
            assert len(set(drawn)) == len(drawn) == t_count(k, m), (k, m)
            assert set(drawn) == set(walked), (k, m)
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
