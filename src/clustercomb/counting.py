"""Closed-form counts, the identities connecting them, and exhaustive
generators.  Trees have one generator: the circular-order class built from
the rooted tree shapes, which `induction.orbit` uses as it is and
`enumerate_trees` relabels onto every k-cycle.  It generates the
noncrossing diagrams too: `enumerate_diagrams` draws, on each block of a
noncrossing partition, a tree of the class of the descending order arc for
edge, and family (1), the connected ones, is the one-block case.  Diagrams
that may cross are the products of one partial matching per base.

Everything here is exact integer (or exact rational) arithmetic; any
non-exact division in a closed form is treated as a bug and raises.

The generators are desk-scale tools.  Each call refuses a k or m that is
no int, then computes the size of its output, an exact count or a bound,
and refuses runs whose size exceeds the work limit (default 1_000_000
objects, overridable through the CLUSTERCOMB_MAX_WORK environment
variable), or whose edge or arc entries exceed ten times it.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
from fractions import Fraction
from typing import Iterator, Sequence

from .angulations import MAngulation
from .core import (CircularOrder, ColouredTree, _check_ints, _check_permutation, _check_size,
                   _relabelled, _trusted)
from .diagrams import RnaDiagram, is_connected
from .errors import SizeLimitExceeded, ValidationError, VertexOutOfRange

DEFAULT_MAX_WORK = 1_000_000


def _work_limit() -> int:
    env = os.environ.get("CLUSTERCOMB_MAX_WORK")
    if not env:
        return DEFAULT_MAX_WORK
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"CLUSTERCOMB_MAX_WORK must be an integer, got {env!r}") from None


def _guard(kind: str, bound: int | tuple[str, int, int], width: int = 0) -> None:
    """Refuse, before any work, more objects than the work limit, or more
    edge entries, `width` per object, than ten times it.  The bound is an
    int or a (family, k, m) key of _COUNTS, whose count is computed only
    when its estimate is within a digit of the limit or of 41 digits, or
    leaves its digit count open."""
    limit = _work_limit()
    shown = None
    if isinstance(bound, tuple):
        est = _log10_count(*bound)
        near = max(41, math.log10(max(limit, 1)) + 1)
        if est is None or est < near or abs(est - round(est)) < 0.01:
            bound = _COUNTS[bound[0]](*bound[1:])
        else:
            shown = f"(a {math.floor(est) + 1}-digit number)"
    if shown or bound > limit:
        raise SizeLimitExceeded(
            f"{kind}: output bound {shown or _shown(bound)} exceeds work limit {limit} "
            "(set CLUSTERCOMB_MAX_WORK to override)"
        )
    if bound * width > 10 * limit:
        raise SizeLimitExceeded(
            f"{kind}: {_shown(bound * width)} edge entries ({bound} objects of {width} "
            f"edges) exceed 10 times the work limit {limit} (set CLUSTERCOMB_MAX_WORK "
            "to override)"
        )


def _shown(x: int) -> str:
    """x written out when it has at most 40 digits, else its digit count,
    found without str(x), which Python refuses past its integer string
    conversion limit (4300 digits by default)."""
    if x < 10**40:
        return str(x)
    d = int(x.bit_length() * math.log10(2))  # the digit count, or one less
    return f"(a {d + (x >= 10**d)}-digit number)"


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"non-exact division {num}/{den}")
    return q


# -- closed forms ---------------------------------------------------------------

def fuss_catalan(k: int, d: int) -> int:
    """The k-th Fuss-Catalan number of degree d: binom(dk, k)/((d-1)k+1)."""
    if d < 1:
        raise VertexOutOfRange(f"Fuss-Catalan numbers need degree d >= 1, got {d}")
    if k < 0:
        raise VertexOutOfRange(f"Fuss-Catalan numbers need k >= 0, got {k}")
    if k == 0:
        return 1
    return _exact_div(math.comb(d * k, k), (d - 1) * k + 1)


def t_count(k: int, m: int) -> int:
    """Number of labelled m-edge-coloured trees on k vertices with circular
    order (k k-1 ... 1): m/((m-2)k+2) * binom((m-1)k, k-1)."""
    if m < 1:
        raise VertexOutOfRange(f"T_(k,m) needs m >= 1, got m = {m}")
    if k < 0:
        raise VertexOutOfRange(f"T_(k,m) needs k >= 0, got k = {k}")
    if k == 0:
        return 1
    if m == 1:  # with one colour only k <= 2 has a tree
        return int(k <= 2)
    return _exact_div(m * math.comb((m - 1) * k, k - 1), (m - 2) * k + 2)


def s_count(k: int, m: int) -> int:
    """Number of m-angulations of a fixed ((m-2)k+2)-gon: C_k^{m-1}."""
    if m < 2:
        raise VertexOutOfRange(f"S_(k,m) needs m >= 2, got m = {m}")
    return fuss_catalan(k, m - 1)


def u_count(k: int, m: int) -> int:
    """Total number of labelled m-edge-coloured trees on k vertices:
    m*((m-1)k)! / ((m-2)k+2)!, which is 1 at k = 1 and otherwise m times the
    falling factorial of (m-1)k with k-2 factors (0 at m = 1 for k > 2)."""
    if k < 1 or m < 1:
        raise VertexOutOfRange(f"U_(k,m) needs k >= 1 and m >= 1, got ({k},{m})")
    return 1 if k == 1 else m * math.perm((m - 1) * k, k - 2)


# each family's entry at (k, m)
_COUNTS = {"T": t_count, "S": s_count, "U": u_count, "fuss": fuss_catalan}


def _log_falling(n: int, r: int) -> float:
    """ln(n! / (n-r)!) for 0 <= r <= n, to within 0.01, by the difference of
    Stirling's series for ln (n)! and ln (n-r)!, written so that it loses no
    precision when n is much larger than r (lgamma's difference does)."""
    a, b = n + 1, n - r + 1
    return r * math.log(a) - (b - 0.5) * math.log1p(-r / a) - r + (1 / a - 1 / b) / 12


def _log_binom(n: int, r: int) -> float:
    return _log_falling(n, r) - _log_falling(r, r)


# the natural log of each family's entry at k >= 2, m >= 2, where the
# entries grow with k
_LOG_COUNTS = {
    "T": lambda k, m: math.log(m) - math.log((m - 2) * k + 2) + _log_binom((m - 1) * k, k - 1),
    "S": lambda k, m: _log_binom((m - 1) * k, k) - math.log((m - 2) * k + 1),
    "U": lambda k, m: math.log(m) + _log_falling((m - 1) * k, k - 2),
    "fuss": lambda k, m: _log_binom(m * k, k) - math.log((m - 1) * k + 1),
}


def _log10_count(family: str, k: int, m: int) -> float | None:
    """log10 of the family's entry at (k, m), to within 0.005, without
    computing it; None at k < 2 or m < 2, where entries are 0 or 1, and
    past the float range."""
    try:
        return _LOG_COUNTS[family](k, m) / math.log(10) if k >= 2 and m >= 2 else None
    except OverflowError:
        return None


# -- identities ------------------------------------------------------------------

def check_recursion(k: int, m: int) -> bool:
    """T_{k,m} == sum_{v=1}^{k} S_{v-1,m} * S_{k+1-v,m}, exactly."""
    total = sum(s_count(v - 1, m) * s_count(k + 1 - v, m) for v in range(1, k + 1))
    return total == t_count(k, m)


def check_convolution(k: int, m: int) -> bool:
    """T_{k,m} equals the m-fold convolution of the S sequence at index k-1,
    i.e. the sum over k_1+...+k_m = k-1 of S_{k_1,m} *...* S_{k_m,m}."""
    s = [s_count(v, m) for v in range(k)]
    conv = [1]  # 0-fold convolution: delta at 0
    for _ in range(m):
        out = [0] * k
        for a, ca in enumerate(conv):
            if ca:
                for b in range(k - a):
                    out[a + b] += ca * s[b]
        conv = out
    return conv[k - 1] == t_count(k, m)


def _gbinom(top: int, kk: int) -> int:
    """Generalized binomial coefficient with integer (possibly negative) top."""
    if kk < 0:
        return 0
    if top >= 0:
        return math.comb(top, kk)
    return (-1) ** kk * math.comb(kk - top - 1, kk)


@functools.lru_cache(maxsize=None)
def _coef(k: int, r: int, t: int) -> Fraction:
    """r/(tk+r) * binom(tk+r, k) in the cancelled form (r/k)*binom(tk+r-1, k-1),
    which stays defined when tk+r vanishes; equals 1 at k = 0.  Cached: the
    same terms recur across the identity's (n, r, s, t)."""
    if k == 0:
        return Fraction(1)
    return Fraction(r, k) * _gbinom(t * k + r - 1, k - 1)


def check_gkp_identity(n: int, r: int, s: int, t: int) -> bool:
    """Exact check of the convolution identity
    sum_k r/(tk+r) binom(tk+r,k) * s/(t(n-k)+s) binom(t(n-k)+s,n-k)
        == (r+s)/(tn+r+s) binom(tn+r+s,n),
    with vanishing denominator factors cancelled into the binomials."""
    lhs = sum((_coef(k, r, t) * _coef(n - k, s, t) for k in range(n + 1)), Fraction(0))
    return lhs == _coef(n, r + s, t)


# -- exhaustive generators --------------------------------------------------------

def _involution_power(k: int, m: int, cap: int) -> int:
    """I(k)^m, where I(k) counts the involutions of k points (A000085),
    I(k) = I(k-1) + (k-1) I(k-2); or the first term above cap met on the
    way, which is no larger and is refused the same way."""
    a, b = 1, 1  # I(0), I(1)
    for i in range(2, k + 1):
        if b > cap:
            return b
        a, b = b, b + (i - 1) * a
    return next((b**e for e in range(1, m + 1) if b**e > cap), b**m)


def _order_class(m: int, order: CircularOrder) -> Iterator[ColouredTree]:
    """Yield each labelled m-edge-coloured tree of circular order `order`
    once, with no R/L step and no dedupe set; nothing when `order` is not a
    k-cycle.

    A rooted shape is an unlabelled tree with a root, in which the root has
    at most one child per colour and a vertex entered by colour c has at
    most one child per other colour.  Sibling edges carry distinct colours,
    so a shape has no symmetry, and there are T_{k,m} shapes on k vertices:
    the root's m planted subtrees, each counted by the Fuss-Catalan S, make
    T the m-fold convolution that `check_convolution` checks.

    Each shape is labelled from its own circular order tau: the root gets
    a = 1 and tau^i(root) gets sigma^i(a).  Relabelling commutes with the
    circular order, so the labelled tree has order sigma.  Distinct shapes
    give distinct trees, since the tree rooted at a is its shape again, so
    the T_{k,m} trees of order sigma each come out exactly once.

    The shapes are walked depth first in preorder, without recursion:
    vertex t takes the last open (parent, colour) slot and then opens a set
    of child colours, as many as fit with the open slots into k vertices
    and at least one while the tree is not yet whole.  With m >= 2 every
    such choice completes a shape, so the walk takes at most k steps per
    tree.  The open slots form a linked stack, so each vertex with sets
    left keeps its stack at no cost, and going back to it resets the rows
    of the vertices placed after it."""
    k = order.k
    cycle = order.cycle_of(1)
    if len(cycle) != k:
        return
    colours = range(1, m + 1)

    @functools.cache
    def options(c: int, least: int, room: int) -> list[tuple[int, ...]]:
        """The child colour sets, each greatest colour first, of a vertex
        entered by colour c (0 at the root) that opens least..room slots."""
        free = [x for x in colours if x != c]
        sizes = range(least, min(room, len(free)) + 1)
        return [x[::-1] for n in sizes for x in itertools.combinations(free, n)]

    inv = [list(range(k + 1)) for _ in range(m + 1)]  # inv[c]: S_c on the shape
    rows = inv[1:]
    par, col = [0] * (k + 1), [0] * (k + 1)  # parent and parent edge colour
    # the open (parent, colour) slots as nested (parent, colour, rest)
    # triples, the root's slot (0, 0) at first, and how many there are
    slots, n = (0, 0, ()), 1
    # (vertex, its sets, index of its next set, open slots and count before it)
    branches: list[tuple] = []
    t = 0
    while True:
        while slots:  # place vertex t + 1 in the last open slot, with its first set
            t += 1
            p, c, slots = slots
            n -= 1
            par[t], col[t] = p, c
            inv[c][p], inv[c][t] = t, p
            sets = options(c, 0 if n or t == k else 1, k - t - n)
            if not sets:  # only with one colour: no tree completes here
                break
            if len(sets) > 1:
                branches.append((t, sets, 1, slots, n))
            for c in sets[0]:
                slots = (t, c, slots)
            n += len(sets[0])
        else:
            tau = inv[1]  # no slot is open, so t == k: the shape is whole
            for c in colours[1:]:
                tau = list(map(inv[c].__getitem__, tau))
            label = [0] * (k + 1)
            v = 1
            for a in cycle:
                label[v] = a
                v = tau[v]
            # a proper tree: each vertex t > 1 hangs from an earlier vertex
            # par[t] by a colour no other edge at par[t] has, and the labels
            # are a bijection of 1..k; only orient and sort the edges
            edges = [(a, b, c) if a < b else (b, a, c)
                     for a, b, c in zip(map(label.__getitem__, par[2:]), label[2:], col[2:])]
            edges.sort()
            yield ColouredTree._trusted(k, m, tuple(edges))
        if not branches:
            return
        # back to the last vertex u with a set left.  Its later vertices get
        # their rows reset; the slots they filled at vertices below u are
        # open again, so the next shape overwrites those entries, and only
        # the slots of u's previous set are closed here.
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


def enumerate_trees(
    k: int, m: int, order: CircularOrder | Sequence[int] | None = None
) -> Iterator[ColouredTree]:
    """Yield every labelled m-edge-coloured tree on k vertices, class by
    class, or with an order every tree of that circular order; each class
    comes sorted by edges.

    The class of the cycle (1 2 ... k) is built once by `_order_class`, and
    the class of a k-cycle (1 a_2 ... a_k) is that class relabelled by
    i -> a_i.  Relabelling commutes with the circular order, so it maps the
    one class onto the other bijectively; distinct k-cycles give disjoint
    classes, and the (k-1)! of them hold (k-1)! * T = U trees, which is
    every tree exactly once (Gessel's count).  Without an order the cycles
    come in lexicographic order of (a_2, ..., a_k) and the whole is guarded
    by U; with an order its cycle through 1 is the only one, guarded by T,
    and a cycle shorter than k yields nothing."""
    _check_ints(k=k, m=m)
    _check_size(k, m)  # the trees are built trusted, so their size is checked here
    _guard("enumerate_trees", ("U" if order is None else "T", k, m), k - 1)
    if order is None:
        cycles = ((1, *rest) for rest in itertools.permutations(range(2, k + 1)))
    else:
        if not isinstance(order, CircularOrder):
            order = CircularOrder(tuple(order))
        _check_permutation(order.perm, k, "order")
        cycles = [order.cycle_of(1)]
        if len(cycles[0]) != k:  # no k-cycle: no tree has this order
            return
    base = list(_order_class(m, CircularOrder((*range(2, k + 1), 1))))
    for cycle in cycles:
        label = (0, *cycle)
        yield from sorted((_relabelled(t, label) for t in base), key=lambda t: t.edges)


def _noncrossing_count(k: int, m: int, cap: int) -> int:
    """N(k, m), the number of noncrossing RNA m-diagrams of degree k, from
    N = 1 + sum_r T_{r,m} x^r N^r: the block of vertex 1 has r vertices and
    leaves r gaps, each holding a noncrossing diagram (see
    `enumerate_diagrams`).  At m = 1 this is the Motzkin sequence.  A free
    last vertex extends each diagram, so N never decreases in k and, as in
    _involution_power, the first term above cap is returned at once."""
    ns = [1]  # N_0, N_1, ...
    powers = [None, ns]  # powers[r][j] = [x^j] N^r, one entry more each step; N^1 is ns
    for n in range(1, k + 1):
        if ns[-1] > cap:
            return ns[-1]
        powers.append([1])
        for r in range(2, n):
            powers[r].append(sum(ns[i] * powers[r - 1][n - r - i] for i in range(n - r + 1)))
        ns.append(sum(t_count(r, m) * powers[r][n - r] for r in range(1, n + 1)))
    return ns[k]


def _matchings(points: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    """The I(len(points)) partial matchings of points: the first point free,
    or matched with each later one."""
    if len(points) < 2:
        return [()]
    a, rest = points[0], points[1:]
    return _matchings(rest) + [((a, b), *pairs) for i, b in enumerate(rest)
                               for pairs in _matchings(rest[:i] + rest[i + 1:])]


def enumerate_diagrams(
    k: int, m: int, connected_only: bool = False, noncrossing_only: bool = False
) -> Iterator[RnaDiagram]:
    """Yield every RNA m-diagram of degree k matching the flags, without
    duplicates.

    Noncrossing diagrams are forests of descending classes.
    `bijections.diagram_to_forest` draws each arc (u, c)-(v, c) as the edge
    (u, v, c) and takes a noncrossing diagram to a forest meeting the
    ordering conditions: no two components interleave, so they form a
    noncrossing partition of 1..k, and sigma sends each vertex to the next
    smaller one of its component and the least to the greatest.  So a
    noncrossing diagram is a noncrossing partition with, on each block B,
    one tree of the class of the descending order (r r-1 ... 1), r = |B|,
    relabelled onto B in increasing order, which keeps its arcs noncrossing;
    distinct choices give distinct diagrams.  The block of vertex 1 is
    chosen first, then each gap it leaves is filled the same way, and the
    guard is their exact count N(k, m) (_noncrossing_count) and its k-1 arc
    entries per diagram.

    Connected, the partition is one block: these are family (1), the
    T_{k,m} trees of the descending class drawn arc for edge, in the order
    `_order_class` yields the class, guarded by T_{k,m} and k-1 arc entries.

    Without noncrossing_only, arcs join slots of one base only, so a
    diagram is one partial matching of 1..k per base: the product of the
    I(k) matchings over the m bases, I(k)^m diagrams of at most m floor(k/2)
    arcs, which is the guard.  connected_only filters that product.

    These two constructions build their diagrams unchecked: each arc joins
    slots of one base at two vertices, the lower first, no slot is used
    twice (a tree has one edge per colour at a vertex, and blocks and
    matchings are disjoint), and sorting the arcs as tuples sorts them by
    the position of their first slot, the order the constructor stores."""
    _check_ints(k=k, m=m)
    _check_size(k, m)
    if connected_only and noncrossing_only:
        _guard("enumerate_diagrams", ("T", k, m), k - 1)
        for t in _order_class(m, CircularOrder.descending(k)):
            yield RnaDiagram(k, m, tuple(((u, c), (v, c)) for u, v, c in t.edges))
        return
    if noncrossing_only:
        _guard("enumerate_diagrams", _noncrossing_count(k, m, _work_limit()), k - 1)
        drawn = {r: [t.edges for t in _order_class(m, CircularOrder.descending(r))]
                 for r in range(1, k + 1)}

        def fill(lo: int, hi: int) -> Iterator[tuple]:
            """The noncrossing arc sets on the vertices lo..hi, lo <= hi."""
            for r in range(1, hi - lo + 2):
                trees = drawn[r]  # none with r > 2 at m = 1
                for rest in itertools.combinations(range(lo + 1, hi + 1), r - 1) if trees else ():
                    label = (0, lo, *rest)
                    own = [tuple(((label[u], c), (label[v], c)) for u, v, c in edges)
                           for edges in trees]
                    gaps = (fill(a + 1, b - 1) if b - a > 1 else [()]
                            for a, b in zip(label[1:], (*rest, hi + 1)))
                    for parts in itertools.product(own, *gaps):
                        yield tuple(itertools.chain.from_iterable(parts))

        for arcs in fill(1, k):
            yield _trusted(RnaDiagram, k=k, m=m, arcs=tuple(sorted(arcs)))
        return
    _guard("enumerate_diagrams", _involution_power(k, m, _work_limit()), m * (k // 2))
    matchings = _matchings(tuple(range(1, k + 1)))
    bases = [[tuple(((u, c), (v, c)) for u, v in pairs) for pairs in matchings]
             for c in range(1, m + 1)]
    for arcs in itertools.product(*bases):
        d = _trusted(RnaDiagram, k=k, m=m, arcs=tuple(sorted(itertools.chain.from_iterable(arcs))))
        if not connected_only or is_connected(d):
            yield d


def enumerate_angulations(k: int, m: int) -> Iterator[MAngulation]:
    """Yield every m-angulation of the fixed ((m-2)k+2)-gon by the
    Fuss-Catalan first-face recursion, rejecting no candidate.

    A region of f faces on the vertices lo, lo+1, ..., lo+(m-2)f+1 has the
    anchor edge [lo, lo+(m-2)f+1]; the face on it splits the other f-1 faces
    among its m-1 other sides, p_t on side t, which spans (m-2)p_t+1 steps
    and, when p_t > 0, is a diagonal whose arc is a region of p_t faces.
    The compositions (p_1, ..., p_{m-1}) come in lexicographic order (stars
    and bars), and the arcs' angulations combine with the first arc
    outermost."""
    _check_ints(k=k, m=m)
    if m < 3 or k < 1:  # as MAngulation; the 2-gon's one dissection is no 2-angulation
        raise VertexOutOfRange("need m >= 3 and k >= 1")
    _guard("enumerate_angulations", ("S", k, m))

    def gen(lo: int, f: int) -> Iterator[tuple[tuple[int, int], ...]]:
        for bars in itertools.combinations(range(f + m - 3), m - 2):
            arcs, a = [], lo  # the sides that are diagonals, with their p_t
            for prev, bar in zip((-1, *bars), (*bars, f + m - 3)):
                p = bar - prev - 1
                b = a + (m - 2) * p + 1
                if p:
                    arcs.append(((a, b), p))
                a = b
            for pieces in itertools.product(*(gen(d[0], p) for d, p in arcs)):
                yield (*(d for d, _ in arcs), *itertools.chain.from_iterable(pieces))

    for diagonals in gen(1, k):
        yield MAngulation(m, k, diagonals)
