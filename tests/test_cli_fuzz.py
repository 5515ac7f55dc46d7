"""Seeded fuzz of the command line.

Small valid inputs for every subcommand are mutated with a stdlib
random.Random of fixed seed: a key dropped, a value's JSON type swapped, an
integer moved to an edge of the range, the text truncated, or a malformed
--order, --m, steps list or work limit.  Every case runs through cli.main
in process and must end with an exit code 0-3 (argparse's usage exit 1
included), with no exception escaping and no traceback on stderr.

Integers stay within -3..12 and the work limit is 500 unless the case
mutates it, so that each case runs in milliseconds; the limit keeps run
time down, it does not hide a guard (a refused guard is exit 3).
"""
import copy
import io
import json
import random
import sys

import pytest

from clustercomb import cli

SEED = 20260
CASES_PER_BASE = 10
INTS = range(-3, 13)
WORK_LIMIT = "500"

TREE = '{"k":3,"m":3,"edges":[[1,2,1],[2,3,2]]}'
FOREST = '{"k":3,"m":3,"edges":[[1,2,1]]}'
ROOTED = '{"k":3,"m":3,"edges":[[1,2,2],[2,3,1]],"root":1}'
DIAGRAM = '{"k":3,"m":3,"arcs":[[[1,1],[2,1]],[[2,2],[3,2]]]}'
PLANE = '{"m":3,"word":[2,2,0,0,0]}'
_COLOURS = '"colours":{"1-2":3,"1-3":2,"1-4":1,"1-5":3,"2-3":1,"3-4":3,"4-5":2}'
ANGULATION = '{"m":3,"k":3,"diagonals":[[1,3],[1,4]]}'
COLOURED = '{"m":3,"k":3,"diagonals":[[1,3],[1,4]],' + _COLOURS + "}"
ROOTED_ANG = '{"m":3,"k":3,"diagonals":[[1,3],[1,4]],' + _COLOURS + ',"root":"1-2-3"}'
LABELLED = (
    '{"m":3,"k":3,"diagonals":[[1,3],[1,4]],' + _COLOURS
    + ',"labels":{"1-2-3":3,"1-3-4":2,"1-4-5":1}}'
)
STEPS = '[{"kind":"R","i":1,"j":2,"chain":[1,2,3]},{"kind":"L","i":2,"j":null,"chain":[1,2]}]'

# (argv, stdin): one valid case per command form; the JSON texts in argv
# (the steps list) and stdin are what the mutations work on
BASE_CASES = [
    (["count", "T", "--kmax", "4", "--m", "3,4"], None),
    (["count", "S", "--kmax", "5", "--m", "3", "--check"], None),
    (["count", "U", "--kmax", "3", "--m", "4"], None),
    (["count", "fuss", "--kmax", "3", "--m", "2"], None),
    (["enumerate", "trees", "--k", "3", "--m", "3", "--order", "desc"], None),
    (["enumerate", "trees", "--k", "3", "--m", "3", "--order", "cycle:1,3,2"], None),
    (["enumerate", "trees", "--k", "3", "--m", "3", "--order", "3,1,2"], None),
    (["enumerate", "diagrams", "--k", "2", "--m", "3", "--connected", "--noncrossing"], None),
    (["enumerate", "angulations", "--k", "3", "--m", "4"], None),
    (["map", "tree->angulation"], TREE),
    (["map", "tree->rooted"], TREE),
    (["map", "rooted->tree"], ROOTED),
    (["map", "forest->diagram"], FOREST),
    (["map", "diagram->forest"], DIAGRAM),
    (["map", "angulation->tree"], COLOURED),
    (["map", "tree->rooted-angulation"], TREE),
    (["map", "rooted-angulation->tree"], ROOTED_ANG),
    (["map", "tree->labelled-angulation"], TREE),
    (["map", "labelled-angulation->tree"], LABELLED),
    (["map", "families:4->6"], ANGULATION),
    (["map", "families:6->1"], PLANE),
    (["map", "families:1->3"], DIAGRAM),
    (["induct", STEPS], TREE),
    (["orbit"], TREE),
    (["verify", "formulas"], None),
    (["verify", "bijections", "--k", "2", "--m", "3"], None),
    (["verify", "induction", "--k", "2", "--m", "3"], None),
    (["verify", "angulation", "--k", "2", "--m", "3"], None),
    (["export"], TREE),
    (["export", "--format", "dot"], LABELLED),
    (["export"], ROOTED_ANG),
]

JUNK = [None, True, 2.5, "x", "", [], {}, [1], {"a": 1}]
ORDERS = ["", "desc", "cycle:", "cycle:1,5", "cycle:1,1", "a,b", "1,2", "1,1,1", "3,,1", ",", "cycle:3,2,1"]
M_LISTS = ["", ",", "3,,4", "a", "3,a", "-1", "0,1,2", "12"]
WORK_LIMITS = ["abc", " ", "-1", "0", "1e3", "2.5", "10", "0x10"]


def _paths(value, at=()):
    """Every position in a JSON value, as a key path."""
    yield at
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _paths(v, at + (key,))
    elif isinstance(value, list):
        for idx, v in enumerate(value):
            yield from _paths(v, at + (idx,))


def _mutate_value(rng, value):
    """One structural mutation of a JSON value: drop a key or item, swap a
    value's type, or put an integer at an edge of the range."""
    value = copy.deepcopy(value)
    path = rng.choice(list(_paths(value)))
    if not path:
        return rng.choice(JUNK)
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    how = rng.randrange(3)
    if how == 0:
        del parent[key]
    elif how == 1:
        parent[key] = rng.choice(JUNK)
    else:
        parent[key] = rng.choice(INTS)
    return value


def _mutate_text(rng, text):
    try:
        value = json.loads(text)
    except ValueError:  # truncated by an earlier mutation
        return text[: len(text) // 2]
    if rng.random() < 0.25:
        return text[: rng.randrange(len(text))]
    return json.dumps(_mutate_value(rng, value))


def _mutate_argv(rng, argv):
    argv = list(argv)
    numeric = [i for i, a in enumerate(argv) if a.lstrip("-").isdigit()]
    if "--order" in argv and rng.random() < 0.5:
        argv[argv.index("--order") + 1] = rng.choice(ORDERS)
    elif argv[0] == "count" and rng.random() < 0.5:
        argv[argv.index("--m") + 1] = rng.choice(M_LISTS)
    elif numeric:
        i = rng.choice(numeric)
        argv[i] = str(rng.choice(INTS)) if rng.random() < 0.8 else rng.choice(["x", "", "2.5"])
    else:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(["--k", "--m", "3", "-1", "--bogus"]))
    return argv


def cases():
    """A fixed list of (argv, stdin, work limit) cases, CASES_PER_BASE per
    base case, each with one or two mutations."""
    rng = random.Random(SEED)
    out = []
    for argv, stdin in BASE_CASES:
        for _ in range(CASES_PER_BASE):
            a, s, limit = list(argv), stdin, WORK_LIMIT
            for _ in range(rng.choice((1, 1, 2))):
                what = rng.randrange(4)
                if what == 0 and s is not None:
                    s = _mutate_text(rng, s)
                elif what == 1 and a[0] == "induct":
                    a[1] = _mutate_text(rng, a[1])
                elif what == 2:
                    limit = rng.choice(WORK_LIMITS)
                else:
                    a = _mutate_argv(rng, a)
            out.append((a, s, limit))
    return out


def test_cli_fuzz(monkeypatch):
    bad = []
    all_cases = cases()
    assert len(all_cases) >= 200
    for argv, stdin, limit in all_cases:
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", limit)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage error
            code = "argparse exit 1" if exc.code == 1 else f"SystemExit({exc.code!r})"
        except Exception as exc:  # the fuzz reports every escape
            code = f"escaped {exc!r}"
        if not (code in (0, 1, 2, 3) or code == "argparse exit 1") or "Traceback" in err.getvalue():
            bad.append((argv, stdin, limit, code, err.getvalue()[-200:]))
    monkeypatch.undo()
    assert not bad, "\n".join(map(repr, bad[:20])) + f"\n{len(bad)} of {len(all_cases)} cases failed"


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "argv,stdin",
    [(["orbit"], DEEP), (["map", "tree->angulation"], DEEP), (["induct", DEEP], TREE)],
    ids=["orbit", "map", "induct-steps"],
)
def test_deep_json_is_malformed(monkeypatch, argv, stdin):
    # nested beyond what json.loads can parse: a validation error (exit 3),
    # not a RecursionError traceback
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    code = cli.main(argv)
    monkeypatch.undo()
    assert code == 3 and out.getvalue() == ""
    assert err.getvalue() == "validation error: JSON document is nested too deeply\n"


HUGE_M = '{"k":3,"m":2000000,"edges":[[1,2,1],[2,3,2]]}'


@pytest.mark.parametrize(
    "argv,stdin",
    [
        (["orbit"], HUGE_M),
        (["export"], HUGE_M),
        (["map", "tree->angulation"], HUGE_M),
        (["induct", STEPS], HUGE_M),
        (["enumerate", "trees", "--k", "1", "--m", "2000000"], None),
    ],
    ids=["orbit", "export", "map", "induct", "enumerate"],
)
def test_huge_m_is_refused(monkeypatch, argv, stdin):
    # a palette too large for the slot table: a validation error (exit 3)
    # before the table is allocated, whatever the command
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    code = cli.main(argv)
    monkeypatch.undo()
    assert code == 3 and out.getvalue() == ""
    assert err.getvalue() == "validation error: m must be <= 1000, got 2000000\n"


HUGE_K = '{"k":2000000,"m":3,"edges":[]}'
HUGE_DIAGRAM = '{"k":2000000,"m":3,"arcs":[]}'


@pytest.mark.parametrize(
    "argv,stdin",
    [
        (["export"], HUGE_K),
        (["map", "forest->diagram"], HUGE_K),
        (["orbit"], HUGE_K),
        (["enumerate", "trees", "--k", "2000000", "--m", "3"], None),
        (["map", "families:1->2"], HUGE_DIAGRAM),
        (["map", "diagram->forest"], HUGE_DIAGRAM),
        (["enumerate", "diagrams", "--k", "2000000", "--m", "3"], None),
    ],
    ids=["export", "map", "orbit", "enumerate", "families", "diagram", "diagrams"],
)
def test_huge_k_is_refused(monkeypatch, argv, stdin):
    # a slot table of (k + 1)(m + 1) slots above the bound: a validation
    # error (exit 3) before the table is allocated, whatever the command
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    code = cli.main(argv)
    monkeypatch.undo()
    assert code == 3 and out.getvalue() == ""
    assert err.getvalue() == (
        "validation error: k = 2000000 at m = 3 needs 8000004 slots, more than 1000000\n"
    )
