import itertools
import math
import random

import pytest

from clustercomb import counting, induction
from clustercomb.core import (
    Chain,
    CircularOrder,
    ColouredForest,
    ColouredTree,
    canonical_unlabelled,
    circular_order,
    maximal_chains,
    relabel,
    validate_tree,
)
from clustercomb.counting import enumerate_trees, t_count
from clustercomb.errors import (
    DimensionMismatch,
    HypothesisViolated,
    InvariantBroken,
    NotMaximalChain,
    SizeLimitExceeded,
    SymbolMismatch,
    ValidationError,
    VertexOutOfRange,
    WrongColourSet,
)
from clustercomb.induction import (
    InductionStep,
    apply_L,
    apply_R,
    apply_steps,
    chain_order,
    decompose_Rij,
    equivalent,
    normal_form,
    orbit,
    sigma_invariance_witness,
)
from test_core import random_tree


def _apply_reference(tree, chain, i, j, swap_colour):
    """Reference R/L: chain colours from colour_of, chain edges found by
    pair membership, the result normalised by the validating constructor."""
    path = induction._resolve_chain(tree, chain, i, j).vertices
    if len(path) == 1:
        return tree
    chain_edges = [(a, b, tree.colour_of(a, b)) for a, b in zip(path, path[1:])]
    lab = {v: v for v in path}
    for a, b, col in chain_edges:
        if col == swap_colour:
            lab[a], lab[b] = b, a
    other = {i: j, j: i}
    new_chain = [(lab[a], lab[b], other[col]) for a, b, col in chain_edges]
    on_chain = {(min(a, b), max(a, b)) for a, b, _ in chain_edges}
    keep = [e for e in tree.edges if e[:2] not in on_chain]
    return ColouredTree(tree.k, tree.m, tuple(keep) + tuple(new_chain))


@pytest.mark.parametrize("k,m", [(4, 3), (4, 4), (5, 3)])
def test_successor_kernel_matches_reference(k, m):
    steps = 0
    for t in enumerate_trees(k, m):
        for i in range(1, m):
            for j in range(i + 1, m + 1):
                for c in maximal_chains(t, i, j):
                    if len(c.vertices) == 1:
                        continue
                    for swap in (j, i):  # R, then L
                        got = induction._successor_edges(t, c.vertices, i, j, swap)
                        assert got == _apply_reference(t, c, i, j, swap).edges
                        steps += 1
    assert steps > 0


def test_apply_R_edgeless_chain_is_identity():
    star = validate_tree([(1, 2, 1), (1, 3, 2), (1, 4, 3)], 4, 3)
    assert apply_R(star, (4,), 1, 2) == star
    assert apply_L(star, (4,), 1, 2) == star


def test_apply_R_concrete_path():
    t = validate_tree([(1, 2, 1), (2, 3, 2)], 3, 3)
    r = apply_R(t, (1, 2, 3), 1, 2)
    # the path becomes 1 -S_2- 3 -S_1- 2
    assert set(r.edges) == {(1, 3, 2), (2, 3, 1)}


def test_apply_R_general_chain_rewriting():
    # a_1 -S_i- a_2 -S_j- a_3 -S_i- a_4 becomes a_1 -S_j- a_3 -S_i- a_2 -S_j- a_4
    t = validate_tree([(1, 2, 1), (2, 3, 3), (3, 4, 1)], 4, 3)
    r = apply_R(t, (1, 2, 3, 4), 1, 3)
    assert set(r.edges) == {(1, 3, 3), (2, 3, 1), (2, 4, 3)}


def test_apply_L_inverts_apply_R():
    # L takes the image of test_apply_R_concrete_path back to the path
    t = validate_tree([(1, 3, 2), (2, 3, 1)], 3, 3)
    assert set(apply_L(t, (1, 2, 3), 1, 2).edges) == {(1, 2, 1), (2, 3, 2)}


def test_apply_R_rejects_bad_chain():
    t = validate_tree([(1, 2, 1), (2, 3, 2)], 3, 3)
    with pytest.raises(NotMaximalChain):
        apply_R(t, (1, 2), 1, 2)  # not maximal: 3 is attached by S_2


@pytest.mark.parametrize(
    "chain,i,j,error",
    [
        ((), 1, 2, NotMaximalChain),
        ((9,), 1, 2, NotMaximalChain),
        ((0, 1), 1, 2, NotMaximalChain),
        ((1, 2, 3), 0, 1, VertexOutOfRange),
        ((1, 2, 3), 2, 4, VertexOutOfRange),
        ((2, 3), 1, 2, NotMaximalChain),  # 1 is attached by S_1
        (Chain(1, 3, (1, 2)), 1, 2, SymbolMismatch),
        (5, 1, 2, NotMaximalChain),  # not a vertex list at all
        ([[1, 2]], 1, 2, NotMaximalChain),
    ],
)
def test_bad_chain_error_classes(chain, i, j, error):
    t = validate_tree([(1, 2, 1), (2, 3, 2)], 3, 3)
    for fn in (apply_R, apply_L):
        with pytest.raises(error):
            fn(t, chain, i, j)


def test_subtrees_reattach_by_label():
    # the complement subtree follows its attachment label across the swap
    t = validate_tree([(1, 2, 1), (2, 3, 2), (2, 4, 3)], 4, 3)
    r = apply_R(t, (1, 2, 3), 1, 2)
    # chain 1-2-3 maps to 1 -S_2- 3 -S_1- 2; vertex 4 stays glued to label 2
    assert set(r.edges) == {(1, 3, 2), (2, 3, 1), (2, 4, 3)}


def test_decompose_single_step_when_adjacent():
    t = validate_tree([(1, 2, 1), (2, 3, 2)], 3, 3)
    steps = decompose_Rij(t, (1, 2, 3), 1, 2)
    assert len(steps) == 1 and steps[0] == InductionStep("R", 1, 2, (1, 2, 3))


def test_decompose_equals_direct_R():
    for t in enumerate_trees(4, 3):
        for c in maximal_chains(t, 1, 3):
            if len(c.vertices) == 1:
                continue
            inside = c.vertex_set
            touched = any(
                col == 2 and w not in inside
                for v in c.vertices
                for col, w in t.adjacency[v].items()
            )
            if touched:
                with pytest.raises(HypothesisViolated):
                    decompose_Rij(t, c, 1, 3)
            else:
                steps = decompose_Rij(t, c, 1, 3)
                assert apply_steps(t, steps) == apply_R(t, c, 1, 3)
                assert all(s.j == s.i + 1 for s in steps)


def test_decompose_hypothesis_violated_witness():
    t = validate_tree([(1, 2, 1), (1, 3, 2)], 3, 3)
    with pytest.raises(HypothesisViolated):
        decompose_Rij(t, (1, 2), 1, 3)


def test_normal_form_already_normal():
    t = validate_tree([(1, 2, 1), (2, 3, 3)], 3, 3)
    nf, steps = normal_form(t)
    assert nf == t and steps == []


def test_normal_form_exhaustive_k4_m3():
    for k in range(1, 5):
        for t in enumerate_trees(k, 3):
            nf, steps = normal_form(t)
            assert all(c in (1, 3) for _, _, c in nf.edges)
            assert circular_order(nf) == circular_order(t)
            assert apply_steps(t, steps) == nf
            assert all(s.j == s.i + 1 for s in steps)


def test_normal_form_refused_before_any_step(monkeypatch):
    # T_{14,3} = 7 020 405 exceeds the default work limit; the search at k = 14
    # would take over a minute before finding the S_1/S_3 tree
    t = random_tree(random.Random(14), 14, 3)
    calls = []
    monkeypatch.setattr(induction, "_eliminate_colour", lambda *a: calls.append(a))
    with pytest.raises(SizeLimitExceeded, match="7020405"):
        normal_form(t)
    assert calls == []


def test_normal_form_m4():
    for t in list(enumerate_trees(4, 4))[::37]:
        nf, steps = normal_form(t)
        assert all(c in (1, 4) for _, _, c in nf.edges)
        assert circular_order(nf) == circular_order(t)
        assert apply_steps(t, steps) == nf


def test_orbit_sizes():
    t1 = validate_tree([], 1, 3)
    assert orbit(t1) == frozenset([t1])
    t3 = next(enumerate_trees(3, 3, CircularOrder.descending(3)))
    assert len(orbit(t3)) == t_count(3, 3) == 9
    t4 = next(enumerate_trees(4, 3, CircularOrder.descending(4)))
    assert len(orbit(t4)) == t_count(4, 3) == 28


def test_orbit_equals_sigma_class():
    # the induction suite checks the classes up to k = 4 at m = 3 and 4
    for k, m in ((5, 3), (3, 5)):
        trees = list(enumerate_trees(k, m))
        by_sigma = {}
        for t in trees:
            by_sigma.setdefault(circular_order(t).perm, []).append(t)
        for sig, cls in by_sigma.items():
            orb = orbit(cls[0])
            assert orb == frozenset(cls)
            assert len(orb) == t_count(k, m)


@pytest.mark.parametrize("k,m", [(1, 3), (4, 4), (5, 3), (3, 5)])
def test_orbit_validates_each_new_tree_once(monkeypatch, k, m):
    # every member is built once and trusted, the input tree's equal
    # included: `_order_class` yields proper trees' edges, so none is validated
    tree = next(enumerate_trees(k, m))
    validate = ColouredForest.__post_init__
    calls = []

    def counting(self):
        calls.append(self.edges)
        validate(self)

    monkeypatch.setattr(ColouredForest, "__post_init__", counting)
    orb = orbit(tree)
    assert len(orb) == t_count(k, m)
    assert calls == []


def test_orbit_refused_before_any_step(monkeypatch):
    t = next(enumerate_trees(6, 3, CircularOrder.descending(6)))
    calls = []
    monkeypatch.setattr(induction, "_order_class", lambda *a, **kw: calls.append(a) or ())
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "100")
    with pytest.raises(SizeLimitExceeded):
        orbit(t)  # T_{6,3} = 297 > 100
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "296")
    with pytest.raises(SizeLimitExceeded):
        orbit(t)
    assert calls == []
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "297")
    orbit(t)
    assert len(calls) == 1  # the spy sees the calls that pass the guard


@pytest.mark.parametrize(
    "edges,k,m",
    [([], 1, 1), ([(1, 2, 1)], 2, 1)],
    ids=["one-vertex", "one-edge"],
)
def test_orbit_with_one_colour(edges, k, m):
    # T = 1: the tree is its own class (k = 1 at m = 3 is in test_orbit_sizes)
    t = validate_tree(edges, k, m)
    assert orbit(t) == frozenset([t])


def test_orbit_of_a_long_two_colour_path():
    # at m = 2 a class has T = k members, so k in the thousands passes the
    # guard; the shapes are walked without recursion
    k = 1500
    path = validate_tree([(v, v + 1, 1 if v % 2 else 2) for v in range(1, k)], k, 2)
    orb = orbit(path)
    assert len(orb) == t_count(k, 2) == k and path in orb
    sig = circular_order(path)
    assert all(circular_order(t) == sig for t in orb)
    # at m = 2 no two of the T = k trees share a triple, so none is kept
    assert counting._standard_class.cache_info().currsize == 0


def test_equivalent():
    t = validate_tree([(1, 2, 1), (2, 3, 2)], 3, 3)
    assert equivalent(t, t)
    other = validate_tree([(1, 2, 2), (2, 3, 1)], 3, 3)
    assert circular_order(other) != circular_order(t)
    assert not equivalent(t, other)
    with pytest.raises(DimensionMismatch):
        equivalent(t, validate_tree([(1, 2, 1)], 2, 3))


def test_equivalent_cross_checks_orbit_membership():
    trees = list(enumerate_trees(3, 3))
    orb = orbit(trees[0])
    for t in trees:
        assert equivalent(trees[0], t) == (t in orb)


def _ref_witnesses(trees, i, j):
    """Each (tree, chain) of `trees`, in turn, on which R_{i,j} changes the
    circular order."""
    for tree in trees:
        for c in maximal_chains(tree, i, j):
            if len(c.vertices) == 1:
                continue
            t2 = apply_R(tree, c, i, j)
            if circular_order(t2) != circular_order(tree):
                yield tree, c


def _ref_sigma_invariance_witness(k, m, i, j):
    """The first witness over all U labelled trees, or None: the labelled
    scan that the class scan replaces."""
    return next(_ref_witnesses(enumerate_trees(k, m), i, j), None)


# every i < j at these sizes; (5, 4) and (5, 5) scan 10 920 and 34 200
# labelled trees per pair, 2.1 s and 13 s in all, so they stay out
WITNESS_SIZES = [(k, 3) for k in range(1, 6)] + [(k, m) for m in (4, 5) for k in range(1, 5)]


@pytest.mark.parametrize("k,m", WITNESS_SIZES)
def test_witness_scan_matches_the_labelled_reference(k, m):
    # the same first witness, and (k-1)! labelled witnesses per class one
    ascending = CircularOrder.from_cycle(range(1, k + 1))
    for i, j in itertools.combinations(range(1, m + 1), 2):
        labelled = list(_ref_witnesses(enumerate_trees(k, m), i, j))
        in_class = list(_ref_witnesses(enumerate_trees(k, m, ascending), i, j))
        assert sigma_invariance_witness(k, m, i, j) == next(iter(labelled), None)
        assert len(labelled) == math.factorial(k - 1) * len(in_class), (i, j)


def test_witness_scan_matches_the_labelled_reference_at_6_3():
    for i, j in ((1, 2), (1, 3), (2, 3)):
        assert sigma_invariance_witness(6, 3, i, j) == _ref_sigma_invariance_witness(6, 3, i, j)


@pytest.mark.parametrize("k,m", [(4, 3), (3, 4), (5, 3)])
def test_relabelling_commutes_with_R_and_conjugates_sigma(k, m):
    # what lets one sigma-class stand for all in the witness scan.  The
    # relabellings are the rotation v -> v+1 (k -> 1) and the transposition
    # (1 2); they generate S_k, and relabelling is a group action, so on
    # every tree these two give every relabelling.  R on an edgeless chain
    # is the identity, which commutes with anything.
    generators = (
        {v: v % k + 1 for v in range(1, k + 1)},
        {v: {1: 2, 2: 1}.get(v, v) for v in range(1, k + 1)},
    )
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    for t in enumerate_trees(k, m):
        sig = circular_order(t)
        images = [(lam, relabel(t, lam)) for lam in generators]
        for lam, lt in images:
            lsig = circular_order(lt)
            assert all(lsig(lam[v]) == lam[sig(v)] for v in range(1, k + 1))
        for i, j in pairs:
            for c in maximal_chains(t, i, j):
                if len(c.vertices) > 1:
                    r = apply_R(t, c, i, j)
                    for lam, lt in images:
                        lc = frozenset(lam[v] for v in c.vertices)
                        assert apply_R(lt, lc, i, j) == relabel(r, lam)


def test_witness_none_for_adjacent():
    assert sigma_invariance_witness(4, 3, 1, 2) is None
    assert sigma_invariance_witness(4, 3, 2, 3) is None


def test_witness_scan_refuses_zero_vertices():
    # the scan's class is that of the empty cycle, refused as such
    with pytest.raises(VertexOutOfRange, match="at least one vertex"):
        sigma_invariance_witness(0, 3, 1, 2)


def test_witness_none_on_middle_free_chains():
    # R_{1,3} keeps the circular order on every (1,3) chain with no S_2 edge
    # at it, over the range where it breaks on some other chain
    tried = 0
    for t in enumerate_trees(5, 3):
        for c in maximal_chains(t, 1, 3):
            if len(c.vertices) > 1 and not induction._middle_edge(t, c):
                assert circular_order(apply_R(t, c, 1, 3)) == circular_order(t)
                tried += 1
    assert tried and sigma_invariance_witness(5, 3, 1, 3) is not None


def test_witness_exists_for_1_3_at_k5():
    # non-adjacent induction breaks the circular order already at k=5
    found = sigma_invariance_witness(5, 3, 1, 3)
    assert found is not None
    tree, chain = found
    assert circular_order(apply_R(tree, chain, 1, 3)) != circular_order(tree)


def test_chain_order():
    t1 = validate_tree([], 1, 3)
    assert chain_order(t1, 1, 3) == 1
    t3 = validate_tree([(1, 2, 1), (2, 3, 3)], 3, 3)
    assert chain_order(t3, 1, 3) == 3
    t4 = validate_tree([(1, 2, 1), (2, 3, 3), (3, 4, 1)], 4, 3)
    assert chain_order(t4, 1, 3) == 4
    with pytest.raises(WrongColourSet):
        chain_order(validate_tree([(1, 2, 2)], 2, 3), 1, 3)


def test_normal_form_unreachable_raises_invariant_broken(monkeypatch):
    # a kernel that never moves leaves no S_2-free tree reachable
    t = validate_tree([(1, 2, 1), (2, 3, 2)], 3, 3)
    monkeypatch.setattr(induction, "_successor_edges", lambda tree, *a, **kw: tree.edges)
    with pytest.raises(InvariantBroken):
        normal_form(t)


def test_chain_order_runaway_raises_invariant_broken(monkeypatch):
    t3 = validate_tree([(1, 2, 1), (2, 3, 3)], 3, 3)
    other = validate_tree([(1, 3, 1), (2, 3, 3)], 3, 3)
    monkeypatch.setattr(induction, "apply_R", lambda *a: other)
    with pytest.raises(InvariantBroken):
        chain_order(t3, 1, 3)


def test_normal_form_spot_k5():
    sample = list(enumerate_trees(5, 3))[::211]
    for t in sample:
        nf, steps = normal_form(t)
        assert all(c in (1, 3) for _, _, c in nf.edges)
        assert circular_order(nf) == circular_order(t)
        assert apply_steps(t, steps) == nf


def test_chain_order_even_k_shape_alternation():
    # for even k the unlabelled shape alternates between S and R(S)
    t4 = validate_tree([(1, 2, 1), (2, 3, 3), (3, 4, 1)], 4, 3)
    shapes = []
    cur = t4
    whole = frozenset((1, 2, 3, 4))
    for _ in range(4):
        shapes.append(canonical_unlabelled(cur))
        cur = apply_R(cur, whole, 1, 3)
    assert cur == t4
    assert shapes[0] == shapes[2] and shapes[1] == shapes[3]
    assert shapes[0] != shapes[1]


def test_induction_step_refuses_an_unknown_kind():
    # an unknown kind must not run as L
    with pytest.raises(ValidationError, match='step kind must be "R" or "L"'):
        InductionStep("X", 1, 2, (1, 2, 3))
