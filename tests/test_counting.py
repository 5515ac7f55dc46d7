import math
import random

import pytest

from clustercomb.core import CircularOrder, circular_order
from clustercomb.counting import (
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
from clustercomb.errors import SizeLimitExceeded, VertexOutOfRange
from clustercomb.tables import S_TABLE, T_TABLE, U_TABLE


def test_fuss_catalan_values():
    assert fuss_catalan(0, 5) == 1
    assert fuss_catalan(4, 2) == 14
    assert fuss_catalan(3, 3) == 12
    # the two closed forms agree
    for k in range(1, 12):
        for d in range(2, 6):
            assert fuss_catalan(k, d) == math.comb(d * k, k - 1) // k


def test_count_tables():
    for m in (3, 4, 5, 6):
        for k in range(7):
            assert t_count(k, m) == T_TABLE[m][k]
            assert s_count(k, m) == S_TABLE[m][k]
        for k in range(1, 7):
            assert u_count(k, m) == U_TABLE[m][k - 1]


def test_u_equals_t_times_factorial():
    for m in (3, 4, 5, 6):
        for k in range(1, 9):
            assert u_count(k, m) == t_count(k, m) * math.factorial(k - 1)


def test_u_rewriting():
    for m in (3, 4, 5, 6):
        for k in range(2, 9):
            assert u_count(k, m) == m * math.factorial(k - 2) * math.comb((m - 1) * k, k - 2)


def test_check_recursion():
    assert check_recursion(1, 3)
    # (k,m)=(4,4): 88 = sum of S products
    assert t_count(4, 4) == 88 and check_recursion(4, 4)
    assert all(check_recursion(k, m) for k in range(1, 12) for m in (3, 4, 5))


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
    assert all(check_convolution(k, m) for k in range(1, 9) for m in (3, 4))


def test_check_gkp_identity():
    assert check_gkp_identity(0, 3, -2, 2)
    assert check_gkp_identity(2, 1, 1, 2)
    rng = random.Random(5)
    for _ in range(300):
        n, r, s, t = rng.randint(0, 10), rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 4)
        assert check_gkp_identity(n, r, s, t)


def test_catalan_difference():
    def catalan(r):
        return math.comb(2 * r, r) // (r + 1)

    for k in range(1, 31):
        assert t_count(k, 3) == catalan(k + 1) - catalan(k)


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


def test_enumerate_angulations_counts():
    assert sum(1 for _ in enumerate_angulations(1, 3)) == 1
    assert sum(1 for _ in enumerate_angulations(4, 3)) == 14
    assert sum(1 for _ in enumerate_angulations(3, 4)) == 12
    for k in range(1, 6):
        assert sum(1 for _ in enumerate_angulations(k, 3)) == s_count(k, 3)


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
        u_count(0, 3)
