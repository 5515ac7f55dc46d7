"""Named verification suites driving the exhaustive desk-scale checks.

Each suite returns a list of (name, ok, detail) triples; the CLI prints them
and exits nonzero if any check failed.  The same machinery backs the
acceptance tests.
"""
from __future__ import annotations

import math
import random

from . import bijections as bij
from . import counting as cnt
from . import induction as ind
from .angulations import (
    LabelledAngulation,
    boundary_face_count,
    colour_from_seed,
    diagonal_rotate,
    find_snakes,
    induct_R_on_labelled_angulation,
    rotate_one_step,
    shift,
)
from .core import (
    CircularOrder,
    canonical_unlabelled,
    circular_order,
    is_k_cycle,
    maximal_chains,
)
from .diagrams import is_connected, is_noncrossing
from .errors import VertexOutOfRange
from .tables import S_TABLE, T_TABLE, U_TABLE

Check = tuple[str, bool, str]


def formulas(kmax: int = 30, mmax: int = 8) -> list[Check]:
    out: list[Check] = []
    ok = all(
        cnt.t_count(k, m) == T_TABLE[m][k] and cnt.s_count(k, m) == S_TABLE[m][k]
        for m in T_TABLE
        for k in range(7)
    ) and all(
        cnt.u_count(k, m) == U_TABLE[m][k - 1] for m in U_TABLE for k in range(1, 7)
    )
    out.append(("closed forms vs reference tables", ok, "m=3..6, k<=6"))
    ok = all(cnt.check_recursion(k, m) for k in range(1, kmax + 1) for m in range(3, mmax + 1))
    out.append(("quadratic recursion", ok, f"k<={kmax}, m<={mmax}"))
    ok = all(cnt.check_convolution(k, m) for k in range(1, 16) for m in range(3, 7))
    out.append(("m-fold convolution", ok, "k<=15, m<=6"))
    rng = random.Random(20110)
    ok = True
    for _ in range(1000):
        n = rng.randint(0, 10)
        r = rng.randint(-5, 5)
        s = rng.randint(-5, 5)
        t = rng.randint(1, 4)
        ok &= cnt.check_gkp_identity(n, r, s, t)
    out.append(("binomial convolution identity", ok, "1000 sampled tuples"))
    ok = all(
        cnt.t_count(k, 3) == cnt.fuss_catalan(k + 1, 2) - cnt.fuss_catalan(k, 2)
        for k in range(1, kmax + 1)
    )
    out.append(("T at m=3 is a Catalan difference", ok, f"k<={kmax}"))
    ok = all(
        cnt.u_count(k, m) == cnt.t_count(k, m) * math.factorial(k - 1)
        for k in range(1, 11)
        for m in range(3, 7)
    )
    out.append(("U = T*(k-1)!", ok, "k<=10, m<=6"))
    ok = all(
        cnt.u_count(k, m) == m * math.factorial(k - 2) * math.comb((m - 1) * k, k - 2)
        for k in range(2, 11)
        for m in range(3, 7)
    )
    out.append(("U rewriting", ok, "k<=10, m<=6"))
    return out


def bijection_suite(k: int = 3, m: int = 3) -> list[Check]:
    out: list[Check] = []
    trips = 0
    ok = True
    for kk in range(1, k + 1):
        for d in cnt.enumerate_diagrams(kk, m, noncrossing_only=True):
            ok &= bij.forest_to_diagram(bij.diagram_to_forest(d)) == d
            trips += 1
    out.append(("diagram<->forest round trips", ok, f"{trips} diagrams, k<={k}, m={m}"))
    trips = 0
    ok = True
    for kk in range(1, k + 1):
        for t in cnt.enumerate_trees(kk, m, CircularOrder.descending(kk)):
            ok &= bij.rooted_to_tree(bij.tree_to_rooted(t)) == t
            ra = bij.labelled_tree_to_rooted_angulation(t)
            ok &= bij.rooted_angulation_to_tree(ra) == t
            trips += 1
    out.append(("tree<->rooted and <->rooted angulation", ok, f"{trips} trees"))
    trips = 0
    ok = True
    for kk in range(1, k + 1):
        seen = set()
        for t in cnt.enumerate_trees(kk, m):
            u = canonical_unlabelled(t)
            if u in seen:
                continue
            seen.add(u)
            ok &= bij.angulation_to_tree(bij.tree_to_angulation(u)) == u
            trips += 1
    out.append(("tree<->angulation round trips", ok, f"{trips} unlabelled trees"))
    ok = True
    sizes = []
    for kk in range(1, k + 1):
        f2 = [
            t
            for t in cnt.enumerate_trees(kk + 1, m, CircularOrder.descending(kk + 1))
            if len(t.adjacency[kk + 1]) == 1 and 1 in t.adjacency[kk + 1]
        ]
        f4 = list(cnt.enumerate_angulations(kk, m))
        ok &= len(f2) == len(f4) == cnt.s_count(kk, m)
        for t in f2:
            ok &= bij.family_chain(bij.family_chain(t, 2, 6), 6, 2) == t
            ok &= bij.family_chain(bij.family_chain(t, 2, 1), 1, 2) == t
        imgs = {bij.family_chain(a, 4, 6).to_json() for a in f4}
        ok &= len(imgs) == cnt.s_count(kk, m)
        sizes.append(len(f2))
    out.append(("six-family chain", ok, f"family sizes {sizes} at k<={k}, m={m}"))
    ok = True
    for kk in range(1, k + 1):
        for d in cnt.enumerate_diagrams(kk, m, connected_only=True, noncrossing_only=True):
            ok &= bij.vertex1_recombine(bij.vertex1_decompose(d)) == d
            parts = bij.sigma_decompose(d)
            ok &= bij.sigma_recombine(parts) == d
            ok &= all(is_connected(p) and is_noncrossing(p) for p in parts)
    out.append(("recursion bijections invert", ok, f"connected diagrams, k<={k}, m={m}"))
    return out


def induction_suite(k: int = 4, m: int = 3) -> list[Check]:
    out: list[Check] = []
    ok = True
    cases = 0
    for kk in range(1, k + 1):
        for t in cnt.enumerate_trees(kk, m):
            sig = circular_order(t)
            ok &= is_k_cycle(sig)
            for i in range(1, m):
                for c in maximal_chains(t, i, i + 1):
                    if len(c.vertices) == 1:
                        continue
                    r = ind.apply_R(t, c, i)
                    ok &= circular_order(r) == sig
                    ok &= circular_order(ind.apply_L(t, c, i)) == sig
                    ok &= ind.apply_L(r, frozenset(c.vertices), i) == t
                    cases += 1
    out.append(("adjacent steps preserve the circular order; L inverts R", ok, f"{cases} steps, k<={k}, m={m}"))
    ok = True
    for kk in range(1, min(k, 4) + 1):
        by_sigma: dict[tuple, list] = {}
        for t in cnt.enumerate_trees(kk, m):
            by_sigma.setdefault(circular_order(t).perm, []).append(t)
        for sig, cls in by_sigma.items():
            orb = ind.orbit(cls[0])
            ok &= orb == frozenset(cls)
            ok &= len(orb) == cnt.t_count(kk, m)
    out.append(("orbits are the circular-order classes of size T", ok, f"k<={min(k, 4)}, m={m}"))
    ok = True
    for kk in range(1, k + 1):
        for t in cnt.enumerate_trees(kk, m):
            nf, steps = ind.normal_form(t)
            ok &= all(c in (1, m) for _, _, c in nf.edges)
            ok &= circular_order(nf) == circular_order(t)
            ok &= ind.apply_steps(t, steps) == nf
            break  # one per k is plenty for the CLI suite
    out.append(("normal form lands in {S_1, S_m} preserving sigma", ok, f"spot checks k<={k}"))
    ok = True
    for kk in range(1, k + 1):
        line = [(v, v + 1, 1 if v % 2 else m) for v in range(1, kk)]
        t = cnt.ColouredTree(kk, m, tuple(line))
        ok &= ind.chain_order(t, 1, m) == kk
    out.append(("two-colour line induction has order k", ok, f"k<={k}"))
    return out


def angulation_suite(k: int = 4, m: int = 3) -> list[Check]:
    out: list[Check] = []
    ok = True
    count = 0
    for kk in range(1, k + 1):
        for ang in cnt.enumerate_angulations(kk, m):
            res, seq = rotate_one_step(ang)
            ok &= res == shift(ang, -1)
            cur = ang
            for d in seq:
                cur = diagonal_rotate(cur, d)
            ok &= cur == res
            ok &= kk < 2 or boundary_face_count(ang) >= 2
            count += 1
    out.append(("one-step rotation = index shift, sequence replays", ok, f"{count} angulations, k<={k}, m={m}"))
    ok = True
    cases = 0
    for kk in range(1, k + 1):
        for ang in cnt.enumerate_angulations(kk, m):
            for c in range(1, m + 1):
                ca = colour_from_seed(ang, (1, 2), c)
                la = LabelledAngulation(
                    ca, tuple((f, idx + 1) for idx, f in enumerate(ca.ang.faces))
                )
                t0 = bij.labelled_angulation_to_tree(la)
                for i in range(1, m):
                    for s in find_snakes(ca, i, i + 1):
                        nxt = induct_R_on_labelled_angulation(la, s, i)
                        left = bij.labelled_angulation_to_tree(nxt)
                        chain = frozenset(la.label[f] for f in s.faces)
                        right = ind.apply_R(t0, chain, i, i + 1)
                        ok &= left == right
                        cases += 1
    out.append(("snake induction commutes with tree induction", ok, f"{cases} squares, k<={k}, m={m}"))
    return out


def run_suite(name: str, k: int | None = None, m: int | None = None) -> list[Check]:
    """Run a named suite; k and m left as None take the suite's own default.
    A k below 1 would make every range empty and every check pass vacuously,
    so it is refused."""
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
    if name == "all":
        return (
            formulas()
            + bijection_suite(**given)
            + induction_suite(**given)
            + angulation_suite(**given)
        )
    raise ValueError(f"unknown suite {name!r}")
