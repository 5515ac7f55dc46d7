"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints a single PASS line on success (run pytest with -s or read
the captured output); all values are integers and all comparisons are exact
set or integer equality, so there are no tolerances to calibrate.

Criteria 1, 3, 5, 6 and 8 are checked by the named suites of
clustercomb.verify, the same code `clustercomb verify` runs; the tests call
them at their own (k, m) and assert on the results.  A failing suite check
names its first failing case in the assertion message.
"""
import functools

from clustercomb import counting as cnt
from clustercomb import induction as ind
from clustercomb.core import CircularOrder, circular_order, is_k_cycle, relabel
from clustercomb.diagrams import is_connected, is_noncrossing, is_saturated
from clustercomb.verify import angulation_suite, bijection_suite, formulas, induction_suite

TABLES = "closed forms vs reference tables"
formula_checks = functools.cache(formulas)  # criteria 1 and 5 share one run


def passed(checks):
    """Assert that there are checks and that each passed; a failing check's
    detail names its first failing case.  Returns the details for the PASS
    line."""
    assert checks
    for name, ok, detail in checks:
        assert ok, f"{name}: {detail}"
    return "; ".join(f"{name} ({detail})" for name, _, detail in checks)


def test_acceptance_1_closed_form_tables():
    tables = [c for c in formula_checks() if c[0] == TABLES]
    print(f"ACCEPTANCE 1 PASS: {passed(tables)}, exact")


def test_acceptance_2_enumeration_equals_formula():
    for m, kmax in ((3, 6), (4, 4)):
        for k in range(1, kmax + 1):
            got = sum(1 for _ in cnt.enumerate_trees(k, m, CircularOrder.descending(k)))
            assert got == cnt.t_count(k, m), (k, m, got)
    for k in range(1, 6):
        got = sum(1 for _ in cnt.enumerate_trees(k, 3))
        assert got == cnt.u_count(k, 3), (k, got)
    for m, kmax in ((3, 6), (4, 4)):
        for k in range(1, kmax + 1):
            got = sum(1 for _ in cnt.enumerate_angulations(k, m))
            assert got == cnt.fuss_catalan(k, m - 1), (k, m, got)
    print(
        "ACCEPTANCE 2 PASS: |trees(sigma desc)| = T (m=3 k<=6; m=4 k<=4), "
        "|trees| = U (m=3 k<=5), |angulations| = C_k^{m-1} (m=3 k<=6; m=4 k<=4), exact"
    )


def test_acceptance_3_bijection_round_trips():
    details = " | ".join(passed(bijection_suite(4, m)) for m in (3, 4))
    print(f"ACCEPTANCE 3 PASS: {details}, exact")


def test_acceptance_4_k_cycle_law():
    checked = 0
    for m in (1, 2, 3, 4):
        for k in range(1, 6):
            if m == 1 and k > 2:
                continue
            for t in cnt.enumerate_trees(k, m):
                assert is_k_cycle(circular_order(t))
                checked += 1
    print(f"ACCEPTANCE 4 PASS: circular order is a single k-cycle on all {checked} trees, k<=5, m<=4")


def test_acceptance_5_identities():
    identities = [c for c in formula_checks() if c[0] != TABLES]
    print(f"ACCEPTANCE 5 PASS: {passed(identities)}, exact")


def test_acceptance_6_induction_suite():
    details = " | ".join(passed(induction_suite(k, m)) for k, m in ((5, 3), (4, 4)))
    print(f"ACCEPTANCE 6 PASS: {details}, exact")


def test_acceptance_7_counterexample_existence():
    witness = ind.sigma_invariance_witness(6, 3, 1, 3)
    assert witness is not None
    tree, chain = witness
    after = circular_order(ind.apply_R(tree, chain, 1, 3))
    sig = circular_order(tree)
    assert after != sig
    # a witness with sigma(3) = 6 before and 5 after exists under some
    # labelling: take x where the orders differ, and a relabelling lam with
    # lam(x) = 3, lam(sigma(x)) = 6 and lam(after(x)) = 5
    x = next(v for v in range(1, 7) if sig(v) != after(v))
    fixed = {x: 3, sig(x): 6, after(x): 5}
    rest = iter(v for v in range(1, 7) if v not in fixed.values())
    lam = {v: fixed[v] if v in fixed else next(rest) for v in range(1, 7)}
    t = relabel(tree, lam)
    sig_t = circular_order(t)
    s2 = circular_order(ind.apply_R(t, frozenset(lam[v] for v in chain.vertices), 1, 3))
    assert sig_t(3) == 6 and s2 != sig_t and s2(3) == 5
    assert ind.sigma_invariance_witness(6, 3, 1, 2) is None
    assert ind.sigma_invariance_witness(6, 3, 2, 3) is None
    print(
        "ACCEPTANCE 7 PASS: R_{1,3} breaks the circular order at k=6, m=3 "
        "(with a sigma(3)=6 -> 5 witness); adjacent steps never do"
    )


def test_acceptance_8_angulation_dynamics():
    details = " | ".join(passed(angulation_suite(k, m)) for k, m in ((5, 3), (3, 4)))
    print(f"ACCEPTANCE 8 PASS: {details}, exact")


def test_acceptance_9_saturated_disconnected_exists():
    found = None
    for d in cnt.enumerate_diagrams(5, 3, noncrossing_only=True):
        if len(d.arcs) < 4 and not is_connected(d) and is_saturated(d):
            found = d
            break
    assert found is not None
    assert is_noncrossing(found)
    print(
        "ACCEPTANCE 9 PASS: a saturated but disconnected noncrossing diagram exists "
        f"at k=5, m=3 (e.g. arcs {found.arcs})"
    )
