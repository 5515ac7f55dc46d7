"""Named verification suites: the one implementation of each exhaustive check
of the paper's claims.

Each suite returns a list of (name, ok, detail) triples.  `clustercomb
verify` prints them and exits 2 if any check failed; the acceptance tests
(tests/test_acceptance.py) call the same suites at their own (k, m) and
assert on the triples, so each claim is checked by one loop.  A passing
check's detail gives its case count and range.  A failing check stops at
its first failing case, and its detail names that case, objects as their
JSON.

The checks, and the acceptance criterion each one backs:

* formulas, at fixed ranges: "closed forms vs reference tables" backs
  criterion 1 (closed forms); "quadratic recursion", "m-fold convolution",
  "binomial convolution identity", "T at m=3 is a Catalan difference",
  "U = T*(k-1)!" and "U rewriting" back criterion 5 (identities).
* bijection_suite(k, m): every check backs criterion 3 (bijection round
  trips).
* induction_suite(k, m): every check backs criterion 6 (induction keeps the
  circular order).
* angulation_suite(k, m): every check backs criterion 8 (angulation
  dynamics: rotation and induction are compositions of mutations).
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from typing import Callable, Iterable

from . import bijections as bij
from . import counting as cnt
from . import induction as ind
from .angulations import (
    LabelledAngulation,
    boundary_face_count,
    canonical_rotation,
    colour_from_seed,
    diagonal_rotate,
    find_snakes,
    induct_R_on_labelled_angulation,
    rotate_one_step,
    shift,
)
from .core import (
    CircularOrder,
    ColouredTree,
    canonical_unlabelled,
    circular_order,
    is_k_cycle,
    maximal_chains,
)
from .diagrams import is_connected, is_noncrossing
from .errors import VertexOutOfRange
from .tables import S_TABLE, T_TABLE, U_TABLE

Check = tuple[str, bool, str]


def _as_text(value) -> str:
    if hasattr(value, "to_json"):
        return value.to_json()
    return json.dumps(value, default=dataclasses.asdict)


def _check(name: str, inputs: Iterable[dict], holds: Callable[..., bool], what: str) -> Check:
    """Test holds(**x) for each case x of `inputs` in turn.  The first case
    that is false or raises ends the check, and the detail names that case's
    inputs; otherwise the detail is the number of cases followed by `what`."""
    count = 0
    for x in inputs:
        try:
            failure = None if holds(**x) else "fails"
        except Exception as exc:  # a case that raises is a failing case
            failure = f"raises {exc!r}"
        if failure:
            at = ", ".join(f"{key} {_as_text(v)}" for key, v in x.items())
            return name, False, f"{failure} at {at}"
        count += 1
    return name, True, f"{count} {what}"


def _grid(ks: Iterable[int], ms: Iterable[int]) -> list[dict]:
    return [{"k": k, "m": m} for m in ms for k in ks]


def formulas() -> list[Check]:
    """Closed forms and counting identities, one evaluation per case:
    - closed forms vs reference tables: T and S for k <= 6, U for
      1 <= k <= 6, m = 3..6, against tables.py (criterion 1);
    - quadratic recursion: k <= 30, m = 3..8 (criterion 5);
    - m-fold convolution: k <= 15, m = 3..6 (criterion 5);
    - binomial convolution identity: every (n, r, s, t) with n in 0..10,
      r and s in -5..5 and t in 1..4 (criterion 5);
    - T at m=3 is a Catalan difference, against comb(2x, x) // (x + 1):
      k <= 30 (criterion 5);
    - U = T*(k-1)! and U rewriting: k <= 10, m = 3..6 (criterion 5)."""
    kmax, mmax = 30, 8

    def tables_hold(k: int, m: int) -> bool:
        return (
            cnt.t_count(k, m) == T_TABLE[m][k]
            and cnt.s_count(k, m) == S_TABLE[m][k]
            and (k == 0 or cnt.u_count(k, m) == U_TABLE[m][k - 1])
        )

    def catalan(x: int) -> int:
        return math.comb(2 * x, x) // (x + 1)

    box = itertools.product(range(11), range(-5, 6), range(-5, 6), range(1, 5))
    return [
        _check(
            "closed forms vs reference tables",
            _grid(range(7), T_TABLE),
            tables_hold,
            "cases, m=3..6, k<=6",
        ),
        _check(
            "quadratic recursion",
            _grid(range(1, kmax + 1), range(3, mmax + 1)),
            cnt.check_recursion,
            f"cases, k<={kmax}, m<={mmax}",
        ),
        _check(
            "m-fold convolution",
            _grid(range(1, 16), range(3, 7)),
            cnt.check_convolution,
            "cases, k<=15, m<=6",
        ),
        _check(
            "binomial convolution identity",
            (dict(zip("nrst", x)) for x in box),
            cnt.check_gkp_identity,
            "tuples, n<=10, -5<=r,s<=5, t<=4",
        ),
        _check(
            "T at m=3 is a Catalan difference",
            ({"k": k} for k in range(1, kmax + 1)),
            lambda k: cnt.t_count(k, 3) == catalan(k + 1) - catalan(k),
            f"cases, k<={kmax}",
        ),
        _check(
            "U = T*(k-1)!",
            _grid(range(1, 11), range(3, 7)),
            lambda k, m: cnt.u_count(k, m) == cnt.t_count(k, m) * math.factorial(k - 1),
            "cases, k<=10, m<=6",
        ),
        _check(
            "U rewriting",
            _grid(range(2, 11), range(3, 7)),
            lambda k, m: cnt.u_count(k, m)
            == m * math.factorial(k - 2) * math.comb((m - 1) * k, k - 2),
            "cases, k<=10, m<=6",
        ),
    ]


def bijection_suite(k: int = 3, m: int = 3) -> list[Check]:
    """Round trips of the bijections over every object with at most k
    vertices at m colours, all backing criterion 3:
    - diagram<->forest round trips: every noncrossing diagram;
    - tree<->rooted and <->rooted angulation: every tree of circular order
      (k k-1 ... 1), through the rooted tree and the rooted angulation;
    - tree<->angulation round trips: every unlabelled tree, whose angulation
      is also its own canonical rotation with k faces on (m-2)k+2 vertices;
      the unlabelled trees are the distinct canonical forms of the class of
      (1 2 ... k), which holds a relabelling of every tree;
    - six-family chain: every member of family (2) goes 2 -> t -> 2 for each
      target t in 1, 3, 4, 5, 6, and every member of family (4) goes
      4 -> t -> 4 for t in 1 and 6, so family (4) maps injectively into
      families (1) and (6);
    - recursion bijections invert: vertex1 and sigma decompositions of every
      connected noncrossing diagram recombine to it, with connected
      noncrossing sigma parts.
    The angulation maps need m >= 3, so a smaller m is refused."""
    if m < 3:
        raise VertexOutOfRange(f"the bijection suite needs m >= 3, got m = {m}")
    ks = range(1, k + 1)
    where = f"k<={k}, m={m}"

    def diagrams(**flags):
        for kk in ks:
            for d in cnt.enumerate_diagrams(kk, m, noncrossing_only=True, **flags):
                yield {"diagram": d}

    def rooted_round_trips(tree: ColouredTree) -> bool:
        ra = bij.labelled_tree_to_rooted_angulation(tree)
        return (
            bij.rooted_to_tree(bij.tree_to_rooted(tree)) == tree
            and bij.rooted_angulation_to_tree(ra) == tree
        )

    def unlabelled_trees():
        # every tree is a relabelling of one in the class of (1 2 ... kk),
        # since all kk-cycles are conjugate, so the class has every form
        for kk in ks:
            cls = cnt.enumerate_trees(kk, m, CircularOrder.from_cycle(range(1, kk + 1)))
            for u in dict.fromkeys(map(canonical_unlabelled, cls)):
                yield {"tree": u}

    def angulation_round_trips(tree: ColouredTree) -> bool:
        cang = bij.tree_to_angulation(tree)
        return (
            bij.angulation_to_tree(cang) == tree
            and canonical_rotation(cang) == cang
            and (cang.ang.n, len(cang.ang.faces)) == ((m - 2) * tree.k + 2, tree.k)
        )

    def family_members():
        for kk in ks:
            for t in cnt.enumerate_trees(kk + 1, m, CircularOrder.descending(kk + 1)):
                if len(t.adjacency[kk + 1]) == 1 and 1 in t.adjacency[kk + 1]:
                    for target in (1, 3, 4, 5, 6):
                        yield {"member": t, "family": 2, "target": target}
            for a in cnt.enumerate_angulations(kk, m):
                for target in (1, 6):
                    yield {"member": a, "family": 4, "target": target}

    def family_round_trip(member, family: int, target: int) -> bool:
        return bij.family_chain(bij.family_chain(member, family, target), target, family) == member

    def recursions_invert(diagram) -> bool:
        parts = bij.sigma_decompose(diagram)
        return (
            bij.vertex1_recombine(bij.vertex1_decompose(diagram)) == diagram
            and bij.sigma_recombine(parts) == diagram
            and all(is_connected(p) and is_noncrossing(p) for p in parts)
        )

    return [
        _check(
            "diagram<->forest round trips",
            diagrams(),
            lambda diagram: bij.forest_to_diagram(bij.diagram_to_forest(diagram)) == diagram,
            f"diagrams, {where}",
        ),
        _check(
            "tree<->rooted and <->rooted angulation",
            (
                {"tree": t}
                for kk in ks
                for t in cnt.enumerate_trees(kk, m, CircularOrder.descending(kk))
            ),
            rooted_round_trips,
            f"descending trees, {where}",
        ),
        _check(
            "tree<->angulation round trips",
            unlabelled_trees(),
            angulation_round_trips,
            f"unlabelled trees, {where}",
        ),
        _check("six-family chain", family_members(), family_round_trip, f"round trips, {where}"),
        _check(
            "recursion bijections invert",
            diagrams(connected_only=True),
            recursions_invert,
            f"connected diagrams, {where}",
        ),
    ]


def induction_suite(k: int = 4, m: int = 3) -> list[Check]:
    """R/L induction over every tree with at most k vertices at m colours,
    all backing criterion 6:
    - adjacent steps preserve the circular order; L inverts R: for every
      tree (whose circular order is a k-cycle), every i < m and every
      maximal S_i-S_{i+1} chain, edgeless ones included, R and L keep the
      circular order and L undoes R;
    - orbits are the circular-order classes of size T: for the first tree
      of each class, orbit() (built from shapes), the closure of the tree
      under R_i steps (searched) and the class grouped from the enumerator
      are one set of size T, for k <= 4 (orbits grow as T).  The enumerator
      relabels the class that orbit() builds, so the R_i closure, which
      builds no class, is the independent side;
    - normal form lands in {S_1, S_m} preserving sigma: the first tree at
      each k, its step list replayed;
    - two-colour line induction has order k: the line 1 - 2 - ... - k
      coloured alternately S_i, S_j, for every pair i < j, with k at least 6
      (one line per length).
    With one colour there are no adjacent steps, so m < 2 is refused."""
    if m < 2:
        raise VertexOutOfRange(f"the induction suite needs m >= 2, got m = {m}")
    ks = range(1, k + 1)
    orbit_k = min(k, 4)
    line_k = max(k, 6)

    def chains():
        for kk in ks:
            for t in cnt.enumerate_trees(kk, m):
                for i in range(1, m):
                    for c in maximal_chains(t, i, i + 1):
                        yield {"tree": t, "chain": c.vertices, "i": i}

    # a tree's chains are consecutive cases, so one cached order serves them all
    order_of = functools.lru_cache(maxsize=1)(circular_order)

    def step_holds(tree: ColouredTree, chain: tuple[int, ...], i: int) -> bool:
        r = ind.apply_R(tree, chain, i)
        if len(chain) == 1:  # an edgeless chain: R and L are the identity
            return r == ind.apply_L(tree, chain, i) == tree
        sig = order_of(tree)
        return (
            is_k_cycle(sig)
            and circular_order(r) == sig
            and circular_order(ind.apply_L(tree, chain, i)) == sig
            and ind.apply_L(r, chain, i) == tree
        )

    classes: dict[tuple[int, ...], list[ColouredTree]] = {}  # by circular order

    def class_firsts():
        for kk in range(1, orbit_k + 1):
            for t in cnt.enumerate_trees(kk, m):
                classes.setdefault(circular_order(t).perm, []).append(t)
        for cls in classes.values():
            yield {"tree": cls[0]}

    def r_closure(tree: ColouredTree) -> frozenset[ColouredTree]:
        """Breadth-first closure under R_i on every maximal S_i-S_{i+1}
        chain (an edgeless one changes nothing).  L_i adds nothing: on the
        finite set of trees in which a chain c is a nontrivial maximal
        chain, R_i on c is a permutation that L_i inverts, so L_i is a power
        of R_i."""
        seen, frontier = {tree}, [tree]
        while frontier:
            nxt = []
            for t in frontier:
                for i in range(1, m):
                    for c in maximal_chains(t, i, i + 1):
                        t2 = ind.apply_R(t, c, i)
                        if t2 not in seen:
                            seen.add(t2)
                            nxt.append(t2)
            frontier = nxt
        return frozenset(seen)

    def orbit_is_class(tree: ColouredTree) -> bool:
        orb = ind.orbit(tree)
        cls = frozenset(classes[circular_order(tree).perm])
        return orb == r_closure(tree) == cls and len(orb) == cnt.t_count(tree.k, m)

    def normal_form_holds(tree: ColouredTree) -> bool:
        nf, path = ind.normal_form(tree)
        return (
            all(c in (1, m) for _, _, c in nf.edges)
            and circular_order(nf) == circular_order(tree)
            and ind.apply_steps(tree, path) == nf
        )

    def lines():
        for kk in range(1, line_k + 1):
            for i, j in itertools.combinations(range(1, m + 1), 2):
                edges = tuple((v, v + 1, i if v % 2 else j) for v in range(1, kk))
                yield {"tree": ColouredTree(kk, m, edges), "i": i, "j": j}

    return [
        _check(
            "adjacent steps preserve the circular order; L inverts R",
            chains(),
            step_holds,
            f"steps, k<={k}, m={m}",
        ),
        _check(
            "orbits are the circular-order classes of size T",
            class_firsts(),
            orbit_is_class,
            f"classes, k<={orbit_k}, m={m}",
        ),
        _check(
            "normal form lands in {S_1, S_m} preserving sigma",
            ({"tree": next(cnt.enumerate_trees(kk, m))} for kk in ks),
            normal_form_holds,
            f"spot checks, k<={k}, m={m}",
        ),
        _check(
            "two-colour line induction has order k",
            lines(),
            lambda tree, i, j: ind.chain_order(tree, i, j) == tree.k,
            f"lines, k<={line_k}, m={m}",
        ),
    ]


def angulation_suite(k: int = 4, m: int = 3) -> list[Check]:
    """Mutation dynamics over every m-angulation with at most k faces, all
    backing criterion 8:
    - one-step rotation = index shift, sequence replays: rotate_one_step
      returns the shift by one vertex, replaying its diagonal-rotation
      sequence gives that result, n one-step rotations give the identity,
      and an angulation with k >= 2 has at least two boundary faces;
    - snake induction commutes with tree induction: for every angulation
      with at most min(k, 4) faces (a square is two inductions plus a dual
      tree, and the snakes multiply with the angulations and colourings),
      every colouring, the face labelling in face order, i < m and
      S_i-S_{i+1} snake, induction on the labelled angulation matches R on
      its dual tree.  Induction is a composition of mutations: its first
      turns are diagonal rotations, each later turn is shift(., -1) of the
      angulation a region of fewer than k faces induces on its own
      vertices, which the rotation check realizes as diagonal rotations,
      and tests/test_mutation.py checks each diagonal rotation against
      coloured-quiver mutation."""
    ks = range(1, k + 1)
    snake_k = min(k, 4)

    def rotation_holds(angulation) -> bool:
        res, seq = rotate_one_step(angulation)
        replay = full = angulation
        for d in seq:
            replay = diagonal_rotate(replay, d)
        for _ in range(angulation.n):
            full = rotate_one_step(full)[0]
        return (
            res == shift(angulation, -1)
            and replay == res
            and full == angulation
            and (len(angulation.faces) < 2 or boundary_face_count(angulation) >= 2)
        )

    def snakes():
        for kk in range(1, snake_k + 1):
            for ang in cnt.enumerate_angulations(kk, m):
                for c in range(1, m + 1):
                    ca = colour_from_seed(ang, (1, 2), c)
                    la = LabelledAngulation(
                        ca, tuple((f, idx + 1) for idx, f in enumerate(ca.ang.faces))
                    )
                    tree = bij.labelled_angulation_to_tree(la)
                    for i in range(1, m):
                        for s in find_snakes(ca, i, i + 1):
                            yield {"angulation": la, "tree": tree, "snake": s}

    def square_holds(angulation: LabelledAngulation, tree: ColouredTree, snake) -> bool:
        nxt = induct_R_on_labelled_angulation(angulation, snake, snake.i)
        chain = frozenset(angulation.label[f] for f in snake.faces)
        return bij.labelled_angulation_to_tree(nxt) == ind.apply_R(tree, chain, snake.i, snake.j)

    return [
        _check(
            "one-step rotation = index shift, sequence replays",
            ({"angulation": a} for kk in ks for a in cnt.enumerate_angulations(kk, m)),
            rotation_holds,
            f"angulations, k<={k}, m={m}",
        ),
        _check(
            "snake induction commutes with tree induction",
            snakes(),
            square_holds,
            f"squares, k<={snake_k}, m={m}",
        ),
    ]


SUITES = ("formulas", "bijections", "induction", "angulation")


def run_suite(name: str, k: int | None = None, m: int | None = None) -> list[Check]:
    """Run the suite of SUITES named `name`; k and m left as None take the
    suite's own default.  A k below 1 would make every range empty and every
    check pass vacuously, so it is refused."""
    if k is not None and k < 1:
        raise VertexOutOfRange(f"verify needs k >= 1, got k = {k}")
    given = {key: v for key, v in (("k", k), ("m", m)) if v is not None}
    if name == "formulas":
        return formulas()
    if name == "bijections":
        return bijection_suite(**given)
    if name == "induction":
        return induction_suite(**given)
    if name == "angulation":
        return angulation_suite(**given)
    raise ValueError(f"unknown suite {name!r}")
