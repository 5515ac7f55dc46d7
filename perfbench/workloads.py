"""The three workloads.

A workload is built from a package namespace and a seed; building it is the
set-up (its inputs go through the package's validating constructors).
`cycles()` yields cycles of requests forever; every cycle holds the same
mix of request types in a seeded order, and the runner counts whole cycles
only, so the mix behind each percentile is the same in every run.
`run(req)` is the timed part, and `check(req, out)` checks the outputs
outside the timing and returns (objects emitted, passed).  Package functions are looked up on their module
at call time, so a tracer installed later sees every call.
"""
from __future__ import annotations

import io
import json
import math
import random
import sys
from collections import Counter

import inputs
import oracles


class Orbit:
    """Whole induction orbits through the CLI, plus a two-colour normal form
    of the same tree.  Sizes are a fixed mix of (k, m) classes (orbit sizes
    90, 297, 455 and 1001), so the median request falls in the middle of the
    (6,3) class and the 90th percentile three quarters into the (5,4) class
    whatever the seed."""

    name = "orbit"
    CLASSES = (((5, 3), 5), ((6, 3), 10), ((5, 4), 4), ((7, 3), 1))
    POOL = 6
    TRACE_CYCLES_PER_S = 0.1

    def __init__(self, pkg, seed: int):
        self.pkg = pkg
        self.rng = random.Random(seed)
        self.cli_bytes = 0
        self.pool = {}
        for (k, m), _ in self.CLASSES:
            trees = []
            for _ in range(self.POOL):
                edges = inputs.random_tree_edges(self.rng, k, m)
                text = json.dumps({"k": k, "m": m, "edges": edges})
                trees.append((pkg.core.ColouredTree.from_json(text), text))
            self.pool[(k, m)] = trees

    def cycles(self):
        slots = [km for km, weight in self.CLASSES for _ in range(weight)]
        turn = Counter()
        while True:
            self.rng.shuffle(slots)
            cycle = []
            for km in slots:
                cycle.append(self.pool[km][turn[km] % self.POOL])
                turn[km] += 1
            yield cycle

    def run(self, req):
        tree, text = req
        out = io.StringIO()
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(text), out
        try:
            code = self.pkg.cli.main(["orbit"])
        finally:
            sys.stdin, sys.stdout = saved
        nf, _ = self.pkg.induction.normal_form(tree)
        printed = out.getvalue()
        self.cli_bytes += len(printed)
        return code, printed, nf

    def check(self, req, out):
        tree, _ = req
        code, printed, nf = out
        k, m = tree.k, tree.m
        doc = json.loads(printed)
        members = {oracles.normalised(t["edges"]) for t in doc["orbit"]}
        want = self.pkg.counting.t_count(k, m)
        sig = oracles.sigma(k, m, tree.edges)
        ok = code == 0 and doc["size"] == want == len(doc["orbit"]) == len(members)
        ok = ok and oracles.normalised(tree.edges) in members
        ok = ok and all(
            oracles.is_proper_tree(k, m, e) and oracles.sigma(k, m, e) == sig for e in members
        )
        ok = ok and all(c in (1, m) for _, _, c in nf.edges)
        ok = ok and oracles.is_proper_tree(k, m, nf.edges) and oracles.sigma(k, m, nf.edges) == sig
        return len(doc["orbit"]) + 1, ok


class _TreeJob:
    """Exhaustive scan of all labelled trees on (k, m)."""

    def __init__(self, pkg, k: int, m: int):
        self.pkg, self.k, self.m = pkg, k, m
        self.vertices = list(range(1, k + 1))
        self.gen = None

    def restart(self):
        self.gen = self.pkg.counting.enumerate_trees(self.k, self.m)
        self.count = 0
        self.by_sigma = Counter()
        self.by_class = Counter()

    def check(self, t) -> bool:
        core, k, m = self.pkg.core, self.k, self.m
        sig = core.circular_order(t)
        ok = oracles.is_k_cycle(sig.perm)
        self.by_sigma[sig.perm] += 1
        for i in range(1, m):
            for j in range(i + 1, m + 1):
                chains = core.maximal_chains(t, i, j)
                ok &= sorted(v for c in chains for v in c.vertices) == self.vertices
                if j == i + 1:
                    continue
                for c in chains:
                    if len(c.vertices) > 1 and _middle_free(t, c, i, j):
                        moved = self.pkg.induction.apply_R(t, c, i, j)
                        ok &= core.circular_order(moved) == sig
        self.by_class[core.canonical_unlabelled(t).tree.edges] += 1
        self.count += 1
        return ok

    def finish(self) -> bool:
        """sigma classes: (k-1)! of size T; unlabelled classes: k!/|Aut| with
        |Aut| in {1, 2}; total U."""
        cnt, k, m = self.pkg.counting, self.k, self.m
        t = cnt.t_count(k, m)
        return (
            self.count == cnt.u_count(k, m)
            and len(self.by_sigma) == math.factorial(k - 1)
            and all(v == t for v in self.by_sigma.values())
            and all(v in (math.factorial(k), math.factorial(k) // 2) for v in self.by_class.values())
        )


class _DiagramJob:
    """Exhaustive scan of connected noncrossing diagrams on (k, m)."""

    def __init__(self, pkg, k: int, m: int):
        self.pkg, self.k, self.m = pkg, k, m
        self.gen = None

    def restart(self):
        self.gen = self.pkg.counting.enumerate_diagrams(self.k, self.m, True, True)
        self.count = 0

    def check(self, d) -> bool:
        bij = self.pkg.bijections
        forest = bij.diagram_to_forest(d)
        self.count += 1
        return (
            len(forest.edges) == self.k - 1
            and bij.forest_to_diagram(forest) == d
            and oracles.arcs_noncrossing(d.arc_positions)
        )

    def finish(self) -> bool:
        return self.count == self.pkg.counting.t_count(self.k, self.m)


def _middle_free(t, chain, i: int, j: int) -> bool:
    inside = chain.vertex_set
    return not any(
        i < col < j and w not in inside
        for v in chain.vertices
        for col, w in t.adjacency[v].items()
    )


class Scan:
    """Objects pulled one at a time from exhaustive generators and checked;
    the checks are the work.  The jobs are interleaved in fixed proportions
    (shuffled per round), so every stretch of a run sees the same mix."""

    name = "scan"
    TREE_JOBS = ((6, 3, 27), (5, 4, 8), (5, 3, 2), (4, 4, 1))
    DIAGRAM_JOBS = ((5, 3, 1), (4, 4, 1), (3, 5, 1))
    TRACE_CYCLES_PER_S = 30.0

    def __init__(self, pkg, seed: int):
        self.rng = random.Random(seed)
        self.jobs = [_TreeJob(pkg, k, m) for k, m, _ in self.TREE_JOBS]
        self.jobs += [_DiagramJob(pkg, k, m) for k, m, _ in self.DIAGRAM_JOBS]
        weights = [w for _, _, w in self.TREE_JOBS + self.DIAGRAM_JOBS]
        self.slots = [idx for idx, w in enumerate(weights) for _ in range(w)]

    def cycles(self):
        while True:
            self.rng.shuffle(self.slots)
            yield list(self.slots)

    def run(self, req):
        """Generators start at a job's first request, inside the timing."""
        job = self.jobs[req]
        ok = True
        if job.gen is None:
            job.restart()
        try:
            obj = next(job.gen)
        except StopIteration:
            ok = job.finish()
            job.restart()
            obj = next(job.gen)
        return job.check(obj) and ok

    def check(self, req, out):
        return 1, out


class _Item:
    """The evolving objects of one (k, m) size in the large workload."""

    def __init__(self, pkg, rng, k: int, m: int):
        self.k, self.m = k, m
        edges = inputs.random_tree_edges(rng, k, m)
        self.tree = pkg.core.validate_tree(inputs.raw_presentation(rng, edges), k, m)
        text, dual = inputs.random_labelled_angulation(rng, k, m)
        self.la = pkg.angulations.LabelledAngulation.from_json(text)
        self.t0 = pkg.core.validate_tree(dual, k, m)
        text, _ = inputs.random_labelled_angulation(rng, k, m)
        self.ang = pkg.angulations.MAngulation.from_json(text)


class Large:
    """Few big objects that change with every request and never repeat:
    validation, R/L steps, tree <-> angulation round trips, one-step
    rotation and the snake-induction commuting square."""

    name = "large"
    KS = (20, 30, 40, 50, 60)
    MS = (3, 4)
    # per size and cycle: the light kinds fill the lower half, so the median
    # falls among the squares and the 90th percentile among the heavy kinds
    MIX = ("validate", "step", "step", "square", "labelled", "unlabelled", "rotate")
    TRACE_CYCLES_PER_S = 0.1

    def __init__(self, pkg, seed: int):
        self.pkg = pkg
        self.rng = random.Random(seed)
        self.items = [_Item(pkg, self.rng, k, m) for k in self.KS for m in self.MS]

    def cycles(self):
        slots = [(kind, it) for it in self.items for kind in self.MIX]
        while True:
            self.rng.shuffle(slots)
            yield (self._request(kind, it) for kind, it in list(slots))

    def _request(self, kind, it):
        """Arguments are drawn when the request is due, from the objects'
        current state."""
        rng = self.rng
        if kind == "validate":
            arg = inputs.raw_presentation(rng, it.tree.edges)
        elif kind in ("step", "square"):
            arg = (rng.randint(1, it.m - 1), rng.randrange(1 << 30), rng.random() < 0.5)
        else:
            arg = None
        return kind, it, arg

    def run(self, req):
        kind, it, arg = req
        p = self.pkg
        if kind == "validate":
            return (p.core.validate_tree(arg, it.k, it.m),)
        if kind == "step":
            i, r, use_l = arg
            t = it.tree
            i, chain = _pick(lambda i: p.core.maximal_chains(t, i, i + 1), i, r, it.m,
                             lambda c: len(c.vertices))
            step = p.induction.apply_L if use_l else p.induction.apply_R
            it.tree = step(t, chain, i, i + 1)
            return t, it.tree
        if kind == "labelled":
            la = p.bijections.labelled_tree_to_labelled_angulation(it.tree)
            return it.tree, la, p.bijections.labelled_angulation_to_tree(la)
        if kind == "unlabelled":
            u = p.core.canonical_unlabelled(it.tree)
            ca = p.bijections.tree_to_angulation(u)
            return it.tree, u, ca, p.bijections.angulation_to_tree(ca)
        if kind == "rotate":
            before = it.ang
            it.ang, _ = p.angulations.rotate_one_step(before)
            return before, it.ang
        # square: snake induction on the polygon against R_i on the dual tree
        i, r, _ = arg
        la, t0 = it.la, it.t0
        i, snake = _pick(lambda i: p.angulations.find_snakes(la.base, i, i + 1), i, r, it.m,
                         lambda s: len(s.faces))
        nxt = p.angulations.induct_R_on_labelled_angulation(la, snake, i)
        left = p.bijections.labelled_angulation_to_tree(nxt)
        chain = frozenset(la.label[f] for f in snake.faces)
        right = p.induction.apply_R(t0, chain, i, i + 1)
        it.la, it.t0 = nxt, right
        return t0, nxt, left, right

    def check(self, req, out):
        kind, it, arg = req
        k, m = it.k, it.m
        if kind == "validate":
            return 1, out[0].edges == oracles.normalised(arg)
        if kind == "step":
            before, after = out
            ok = oracles.is_proper_tree(k, m, after.edges)
            return 1, ok and oracles.sigma(k, m, after.edges) == oracles.sigma(k, m, before.edges)
        if kind == "labelled":
            t, _, back = out
            return 2, back.edges == t.edges
        if kind == "unlabelled":
            t, _, _, back = out
            return 3, oracles.unlabelled_key(k, back.tree.edges) == oracles.unlabelled_key(k, t.edges)
        if kind == "rotate":
            before, after = out
            return 1, after.diagonals == oracles.shifted_diagonals(before.diagonals, before.n, -1)
        t0, _, left, right = out
        ok = left.edges == right.edges and oracles.is_proper_tree(k, m, right.edges)
        return 3, ok and oracles.sigma(k, m, right.edges) == oracles.sigma(k, m, t0.edges)


def _pick(candidates, i: int, r: int, m: int, size):
    """A seeded choice among the nontrivial results of candidates(i), moving
    to the next colour pair when colour pair i has none."""
    for step in range(m - 1):
        ii = (i - 1 + step) % (m - 1) + 1
        found = [c for c in candidates(ii) if size(c) > 1]
        if found:
            return ii, found[r % len(found)]
    raise RuntimeError("no nontrivial chain for any colour pair")


WORKLOADS = {cls.name: cls for cls in (Orbit, Scan, Large)}
