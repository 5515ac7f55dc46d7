import json
import re
import sys

import pytest

from clustercomb import cli


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_rows(capsys):
    code, out, _ = run(capsys, ["count", "T", "--kmax", "6", "--m", "3"])
    assert code == 0
    assert out.strip() == "1\t1\t3\t9\t28\t90\t297"


def test_count_u_row(capsys):
    code, out, _ = run(capsys, ["count", "U", "--kmax", "6", "--m", "6"])
    assert code == 0
    assert out.strip().endswith("3946320")


def test_count_fuss(capsys):
    code, out, _ = run(capsys, ["count", "fuss", "--kmax", "0", "--m", "5"])
    assert code == 0 and out.strip() == "1"


def test_count_check_passes(capsys):
    code, _, _ = run(capsys, ["count", "S", "--kmax", "6", "--m", "3,4,5,6", "--check"])
    assert code == 0


def test_enumerate_trees(capsys):
    code, out, _ = run(capsys, ["enumerate", "trees", "--k", "3", "--m", "3", "--order", "desc"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all(json.loads(line)["k"] == 3 for line in lines)


def test_enumerate_trees_cycle_notation(capsys):
    # the cycle (3 2 1) is the descending circular order
    code, out, _ = run(
        capsys, ["enumerate", "trees", "--k", "3", "--m", "3", "--order", "cycle:3,2,1"]
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 9
    # an arbitrary other 3-cycle class has the same size
    code, out, _ = run(
        capsys, ["enumerate", "trees", "--k", "3", "--m", "3", "--order", "cycle:1,2,3"]
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 9


def test_enumerate_is_deterministic(capsys):
    _, out1, _ = run(capsys, ["enumerate", "angulations", "--k", "3", "--m", "3"])
    _, out2, _ = run(capsys, ["enumerate", "angulations", "--k", "3", "--m", "3"])
    assert out1 == out2


def test_map_round_trip(capsys, monkeypatch):
    tree = '{"k":2,"m":3,"edges":[[1,2,1]]}'
    code, out, _ = run(capsys, ["map", "tree->angulation"], stdin=tree, monkeypatch=monkeypatch)
    assert code == 0
    ang = json.loads(out)
    assert ang["k"] == 2 and ang["m"] == 3
    code, out2, _ = run(capsys, ["map", "angulation->tree"], stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    back = json.loads(out2)
    assert back["k"] == 2 and len(back["edges"]) == 1 and back["edges"][0][2] == 1


def test_map_families(capsys, monkeypatch):
    tree = '{"k":3,"m":3,"edges":[[1,2,2],[1,3,1]]}'
    code, out, _ = run(capsys, ["map", "families:2->6"], stdin=tree, monkeypatch=monkeypatch)
    assert code == 0
    plane = json.loads(out)
    assert plane["m"] == 3
    code, out2, _ = run(capsys, ["map", "families:6->2"], stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out2) == json.loads(tree)


def test_map_families_deep_fan_round_trip(capsys, monkeypatch):
    # the 900-face m = 3 fan is a 900-deep plane tree; family (6) is a flat
    # word, so 4 -> 6 -> 4 must not recurse
    k = 900
    fan = json.dumps({"m": 3, "k": k, "diagonals": [[1, v] for v in range(3, k + 2)]},
                     separators=(",", ":"))
    code, word, _ = run(capsys, ["map", "families:4->6"], stdin=fan, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(word)["word"] == [2] * k + [0] * (k + 1)
    code, back, _ = run(capsys, ["map", "families:6->4"], stdin=word, monkeypatch=monkeypatch)
    assert code == 0 and back.strip() == fan


def test_map_families_refuses_nested_plane_form(capsys, monkeypatch):
    # the nested {"plane": ...} form is not read: family (6) JSON is a word
    nested = '{"m":3,"plane":' + "[" * 500 + "]" * 500 + "}"
    code, out, err = run(capsys, ["map", "families:6->5"], stdin=nested, monkeypatch=monkeypatch)
    assert code == 3 and out == ""
    assert err.startswith("validation error:") and "Traceback" not in err


def test_induct(capsys, monkeypatch):
    tree = '{"k":3,"m":3,"edges":[[1,2,1],[2,3,2]]}'
    steps = '[{"kind":"R","i":1,"j":2,"chain":[1,2,3]}]'
    code, out, _ = run(capsys, ["induct", steps], stdin=tree, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["edges"] == [[1, 3, 2], [2, 3, 1]]


def test_induct_non_list_chain(capsys, monkeypatch):
    tree = '{"k":3,"m":3,"edges":[[1,2,1],[2,3,2]]}'
    steps = '[{"kind":"R","i":1,"j":2,"chain":5}]'
    code, out, err = run(capsys, ["induct", steps], stdin=tree, monkeypatch=monkeypatch)
    assert code == 3 and out == ""
    assert "not a list of vertices" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"k":"a","m":3,"edges":[]}',
        '{"m":3,"edges":[]}',
        '{"k":3,"m":3,"edges":[[1,2]]}',
        "[1,2]",
        '{"k":3,"m":3,"edges":5}',
        "5",
    ],
)
@pytest.mark.parametrize(
    "argv", [["orbit"], ["induct", "[]"], ["map", "tree->rooted"], ["export"]]
)
def test_malformed_tree_json(capsys, monkeypatch, argv, text):
    # an uncaught exception would fail the test before the exit code is seen
    code, out, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert code == 3 and out == ""
    assert err.startswith("validation error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["map", "tree->rooted"], ["export"]])
def test_rooted_tree_root_out_of_range(capsys, monkeypatch, argv):
    text = '{"k":2,"m":3,"edges":[[1,2,1]],"root":5}'
    code, out, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert code == 3 and out == "" and "root 5" in err


@pytest.mark.parametrize("m", ["1", "0", "-1"])
@pytest.mark.parametrize("family", ["T", "S", "U", "fuss"])
def test_count_few_colours(capsys, family, m):
    # an uncaught exception would fail the test before the exit code is seen
    code, out, err = run(capsys, ["count", family, "--kmax", "4", "--m", m])
    assert code in (0, 3)
    one_colour = {("T", "1"): "1 1 1 0 0", ("U", "1"): "1 1 0 0"}
    if (family, m) in one_colour:
        assert out.split() == one_colour[family, m].split()


def test_orbit(capsys, monkeypatch):
    tree = '{"k":3,"m":3,"edges":[[1,2,1],[2,3,2]]}'
    code, out, _ = run(capsys, ["orbit"], stdin=tree, monkeypatch=monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 9 and len(data["orbit"]) == 9


def test_orbit_output_matches_to_json(capsys, monkeypatch):
    from clustercomb.core import ColouredTree
    from clustercomb.induction import orbit

    tree = '{"k":5,"m":3,"edges":[[1,2,1],[2,3,2],[3,4,3],[3,5,1]]}'
    code, out, _ = run(capsys, ["orbit"], stdin=tree, monkeypatch=monkeypatch)
    assert code == 0
    orb = sorted(orbit(ColouredTree.from_json(tree)), key=lambda t: t.edges)
    old = json.dumps(
        {"size": len(orb), "orbit": [json.loads(t.to_json()) for t in orb]},
        separators=(",", ":"),
    )
    assert out == old + "\n"


def test_orbit_refused_by_work_limit(capsys, monkeypatch):
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "100")
    tree = '{"k":6,"m":3,"edges":[[1,2,1],[2,3,2],[3,4,3],[4,5,1],[5,6,2]]}'
    code, out, err = run(capsys, ["orbit"], stdin=tree, monkeypatch=monkeypatch)
    assert code == 3 and out == ""
    assert "297" in err and "100" in err


def _library_rendering(text):
    # the document `clustercomb orbit` wrote when it rendered the library's set
    from clustercomb.core import ColouredTree
    from clustercomb.induction import orbit

    orb = sorted(orbit(ColouredTree.from_json(text)), key=lambda t: t.edges)
    return json.dumps(
        {"size": len(orb), "orbit": [json.loads(t.to_json()) for t in orb]},
        separators=(",", ":"),
    ) + "\n"


def _one_tree_per_class():
    import itertools

    from clustercomb.core import CircularOrder
    from clustercomb.counting import enumerate_trees

    for kmax, m in ((6, 3), (5, 4), (4, 5), (4, 6)):
        for k in range(1, kmax + 1):
            for rest in itertools.permutations(range(2, k + 1)):
                order = CircularOrder.from_cycle((1, *rest))
                yield next(enumerate_trees(k, m, order)).to_json()
    for k in range(1, 41):
        edges = [[v, v + 1, 1 if v % 2 else 2] for v in range(1, k)]
        yield json.dumps({"k": k, "m": 2, "edges": edges})
    yield '{"k":1,"m":3,"edges":[]}'


def test_orbit_writes_the_library_set(capsys, monkeypatch):
    # one tree per sigma-class: the sorted edge tuples the CLI writes are
    # the library's set, sorted by edges, byte for byte
    from clustercomb import induction

    texts = list(_one_tree_per_class())
    assert len(texts) == 154 + 34 + 10 + 10 + 40 + 1
    want = [_library_rendering(text) for text in texts]

    def refuse(tree):
        raise AssertionError("clustercomb orbit builds the library's frozenset")

    monkeypatch.setattr(induction, "orbit", refuse)
    monkeypatch.setattr(cli, "orbit", refuse, raising=False)  # nor a copy of it
    for text, rendered in zip(texts, want):
        code, out, err = run(capsys, ["orbit"], stdin=text, monkeypatch=monkeypatch)
        assert (code, out, err) == (0, rendered, "")


def test_orbit_refuses_a_member_yielded_twice(capsys, monkeypatch):
    from clustercomb import induction

    real = induction._order_class

    def twice(m, order):
        members = real(m, order)
        first = next(members)
        yield first
        yield from members
        yield first

    monkeypatch.setattr(induction, "_order_class", twice)
    tree = '{"k":4,"m":3,"edges":[[1,2,1],[2,3,2],[3,4,3]]}'
    code, out, err = run(capsys, ["orbit"], stdin=tree, monkeypatch=monkeypatch)
    assert code == 3 and out == ""
    assert "twice" in err


def test_reused_parser_leaks_nothing_between_calls(monkeypatch):
    # main builds its parser once; each call still parses into a fresh
    # namespace, so every result equals that of a freshly built parser
    import contextlib
    import io

    from clustercomb import counting

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    calls = [
        ["count", "bogus-family"],
        ["enumerate", "trees", "--k", "3", "--m", "3", "--order", "desc"],
        ["enumerate", "trees", "--k", "3", "--m", "3"],
        ["verify", "induction", "--k", "3"],
        ["verify", "induction"],
        ["count", "T", "--check"],
        ["count", "T"],
    ]
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    reused = [call(argv) for argv in calls]
    assert len(built) == 1
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [call(argv) for argv in calls]
    assert len(built) == 1 + len(calls)
    assert reused == fresh
    usage, by_order, every, small, default, checked, plain = reused
    assert usage[:2] == (1, "") and "usage:" in usage[2]
    assert len(by_order[1].splitlines()) == counting.t_count(3, 3)
    assert len(every[1].splitlines()) == counting.u_count(3, 3)
    assert small[0] == default[0] == 0 and small[1] != default[1]
    assert checked == plain == (0, "1\t1\t3\t9\t28\t90\t297\n", "")
    assert cli.build_parser() is not cli.build_parser()


def test_verify_ok(capsys):
    code, out, _ = run(capsys, ["verify", "bijections", "--k", "2", "--m", "3"])
    assert code == 0
    assert all(line.startswith("ok") for line in out.strip().splitlines())
    assert "k<=2, m=3" in out


def test_verify_all_suites(capsys):
    code, out, _ = run(capsys, ["verify", "all", "--k", "3", "--m", "3"])
    assert code == 0
    assert all(line.startswith("ok") for line in out.strip().splitlines())
    assert "binomial convolution identity" in out and "snake induction" in out


def test_verify_all_prints_earlier_suites_before_a_later_error(monkeypatch):
    # the bijection suite refuses m = 2 after the formulas suite has run;
    # with one stream for both outputs, the formulas lines come first
    import io
    import sys

    both = io.StringIO()
    monkeypatch.setattr(sys, "stdout", both)
    monkeypatch.setattr(sys, "stderr", both)
    code = cli.main(["verify", "all", "--m", "2"])
    lines = both.getvalue().splitlines()
    assert code == 3
    assert lines[-1] == "validation error: the bijection suite needs m >= 3, got m = 2"
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "ok   closed forms vs reference tables",
        "ok   quadratic recursion",
        "ok   m-fold convolution",
        "ok   binomial convolution identity",
        "ok   T at m=3 is a Catalan difference",
        "ok   U = T*(k-1)!",
        "ok   U rewriting",
    ]


def test_map_empty_diagram_to_forest(capsys, monkeypatch):
    empty = '{"k":3,"m":3,"arcs":[]}'
    code, out, _ = run(capsys, ["map", "diagram->forest"], stdin=empty, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == {"k": 3, "m": 3, "edges": []}


def test_verify_failure_exit_code(capsys, monkeypatch):
    from clustercomb import verify as ver

    monkeypatch.setattr(ver, "formulas", lambda *a, **k: [("doomed", False, "injected")])
    code, out, _ = run(capsys, ["verify", "formulas"])
    assert code == 2 and "FAIL" in out


def test_verify_failure_names_the_failing_case(capsys, monkeypatch):
    from clustercomb import induction
    from clustercomb.counting import enumerate_trees
    from clustercomb.errors import InvariantBroken

    bad = next(enumerate_trees(3, 3))  # the first tree at k = 3 the suite steps from
    apply_L = induction.apply_L

    def broken(tree, *args):
        if tree == bad:
            raise InvariantBroken("injected")
        return apply_L(tree, *args)

    monkeypatch.setattr(induction, "apply_L", broken)
    code, out, _ = run(capsys, ["verify", "induction"])
    assert code == 2
    steps = next(line for line in out.splitlines() if "adjacent steps" in line)
    assert steps.startswith("FAIL")
    assert f"raises InvariantBroken('injected') at tree {bad.to_json()}, chain [" in steps


def _check_dot_syntax(text: str) -> bool:
    lines = [line.strip() for line in text.strip().splitlines()]
    if not (lines[0].startswith("graph") and lines[0].endswith("{") and lines[-1] == "}"):
        return False
    stmt = re.compile(r'^"[^"]+"( -- "[^"]+"( \[label="[^"]*"\])?)?;$')
    return all(stmt.match(line) for line in lines[1:-1])


def test_export_tree_dot(capsys, monkeypatch):
    tree = '{"k":2,"m":3,"edges":[[1,2,1]]}'
    code, out, _ = run(capsys, ["export", "--format", "dot"], stdin=tree, monkeypatch=monkeypatch)
    assert code == 0
    assert _check_dot_syntax(out)
    assert 'label="S1"' in out


def test_export_angulation_dot(capsys, monkeypatch):
    cang = (
        '{"m":3,"k":2,"diagonals":[[1,3]],'
        '"colours":{"1-2":2,"1-3":1,"1-4":3,"2-3":3,"3-4":2}}'
    )
    code, out, _ = run(capsys, ["export", "--format", "dot"], stdin=cang, monkeypatch=monkeypatch)
    assert code == 0
    assert _check_dot_syntax(out)


def test_export_enumerated_trees_all_parse(capsys, monkeypatch):
    from clustercomb.counting import enumerate_trees

    for t in list(enumerate_trees(4, 3))[::17]:
        code, out, _ = run(capsys, ["export", "--format", "dot"], stdin=t.to_json(), monkeypatch=monkeypatch)
        assert code == 0 and _check_dot_syntax(out)


def test_validation_error_exit_code(capsys, monkeypatch):
    bad = '{"k":3,"m":3,"edges":[[1,2,1],[1,3,1]]}'
    code, _, err = run(capsys, ["map", "tree->angulation"], stdin=bad, monkeypatch=monkeypatch)
    assert code == 3 and "validation" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "bogus-family"])
    assert exc.value.code == 1


def test_shell_pipeline_end_to_end():
    # the subcommands compose as real processes over JSON lines
    import subprocess
    import sys

    enum = subprocess.run(
        [sys.executable, "-m", "clustercomb.cli", "enumerate", "trees",
         "--k", "3", "--m", "3", "--order", "desc"],
        capture_output=True, text=True, check=True,
    )
    lines = enum.stdout.strip().splitlines()
    assert len(lines) == 9
    mapped = subprocess.run(
        [sys.executable, "-m", "clustercomb.cli", "map", "tree->rooted-angulation"],
        input=lines[0], capture_output=True, text=True, check=True,
    )
    back = subprocess.run(
        [sys.executable, "-m", "clustercomb.cli", "map", "rooted-angulation->tree"],
        input=mapped.stdout, capture_output=True, text=True, check=True,
    )
    assert json.loads(back.stdout) == json.loads(lines[0])


@pytest.mark.parametrize(
    "text",
    [
        '{"k":"a","m":3,"arcs":[]}',
        '{"k":3,"m":3,"arcs":5}',
        '{"k":3,"m":3,"arcs":[[[1,1],[2]]]}',
        '{"m":3,"k":2,"diagonals":5}',
        '{"m":"3","k":2,"diagonals":[[1,3]]}',
        '{"m":3,"k":2,"diagonals":[[1,3,4]]}',
        '{"m":3,"k":2,"diagonals":[[1,3]],"colours":[1]}',
        '{"m":3,"k":2,"diagonals":[[1,3]],"colours":{"1-x":2}}',
        '{"m":3,"k":2,"diagonals":[[1,3]],"colours":{"1-3":"S1"}}',
        '{"m":3,"k":2,"diagonals":[[1,3]],'
        '"colours":{"1-2":2,"1-3":1,"1-4":3,"2-3":3,"3-4":2},"root":5}',
        '{"m":3,"k":2,"diagonals":[[1,3]],'
        '"colours":{"1-2":2,"1-3":1,"1-4":3,"2-3":3,"3-4":2},"labels":{"1-2-3":"a"}}',
        '{"m":3,"plane":[5]}',
        '{"m":"3","plane":null}',
        '{"m":3,"word":[2,null,0]}',
        '{"m":3,"word":{"0":2}}',
    ],
)
@pytest.mark.parametrize(
    "argv", [["map", "diagram->forest"], ["map", "families:4->3"], ["export", "--format", "dot"]]
)
def test_malformed_diagram_angulation_plane_json(capsys, monkeypatch, argv, text):
    # an uncaught exception would fail the test before the exit code is seen
    code, out, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert code == 3 and out == ""
    assert err.startswith("validation error:") and "Traceback" not in err


ROOTED = '{"k":2,"m":3,"edges":[[1,2,1]],"root":2}'
TREE = '{"k":2,"m":3,"edges":[[1,2,1]]}'
DIAGRAM = '{"k":3,"m":3,"arcs":[]}'
ROOTED_ANGULATION = (
    '{"m":3,"k":2,"diagonals":[[1,3]],'
    '"colours":{"1-2":2,"1-3":1,"1-4":3,"2-3":3,"3-4":2},"root":"1-2-3"}'
)


@pytest.mark.parametrize(
    "name, text, named",
    [
        ("tree->rooted", ROOTED, "takes a ColouredTree, got a RootedTree"),
        ("tree->angulation", DIAGRAM, "takes a ColouredTree, got a RnaDiagram"),
        ("forest->diagram", DIAGRAM, "takes a ColouredForest, got a RnaDiagram"),
        ("diagram->forest", TREE, "takes a RnaDiagram, got a ColouredTree"),
        ("rooted->tree", TREE, "takes a RootedTree, got a ColouredTree"),
        (
            "angulation->tree",
            ROOTED_ANGULATION,
            "takes a ColouredAngulation, got a RootedAngulation",
        ),
        ("labelled-angulation->tree", ROOTED_ANGULATION, "got a RootedAngulation"),
        ("families:1->2", TREE, "family (1) holds RnaDiagrams, got a ColouredTree"),
        ("families:6->5", TREE, "family (6) holds PlaneTrees, got a ColouredTree"),
        ("families:a->2", TREE, "bad family route"),
        ("families:12", TREE, "bad family route"),
    ],
)
def test_map_refuses_wrong_input_type(capsys, monkeypatch, name, text, named):
    code, out, err = run(capsys, ["map", name], stdin=text, monkeypatch=monkeypatch)
    assert code == 3 and out == ""
    assert err.startswith("validation error:") and named in err


@pytest.mark.parametrize("suite", ["formulas", "bijections", "induction", "angulation", "all"])
@pytest.mark.parametrize("k", ["0", "-2"])
def test_verify_refuses_nonpositive_k(capsys, suite, k):
    code, out, err = run(capsys, ["verify", suite, "--k", k])
    assert code == 3 and out == ""
    assert "k >= 1" in err


def test_run_suite_refuses_nonpositive_k():
    from clustercomb import verify as ver
    from clustercomb.errors import VertexOutOfRange

    with pytest.raises(VertexOutOfRange):
        ver.run_suite("induction", k=0)
    assert ver.run_suite("induction", k=1)


INDUCT_TREE = '{"k":3,"m":3,"edges":[[1,2,1],[2,3,2]]}'


@pytest.mark.parametrize(
    "steps, named",
    [
        ("[{}]", '"i" must be an integer'),
        ("[1]", "expected a JSON object, got int"),
        ('{"a":1}', "steps must be a JSON list, got dict"),
        ('[{"kind":"R","i":"1","j":2,"chain":[1,2,3]}]', '"i" must be an integer'),
        ('[{"kind":"R","i":1,"j":"2","chain":[1,2,3]}]', '"j" must be an integer or null'),
        ('[{"kind":"X","i":1,"j":2,"chain":[1,2,3]}]', 'step kind must be "R" or "L"'),
    ],
)
def test_induct_refuses_malformed_steps(capsys, monkeypatch, steps, named):
    code, out, err = run(capsys, ["induct", steps], stdin=INDUCT_TREE, monkeypatch=monkeypatch)
    assert code == 3 and out == ""
    assert err.startswith("validation error:") and named in err


def test_induct_refuses_an_unreadable_steps_file(capsys, monkeypatch, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, ["induct", f"@{missing}"], stdin=INDUCT_TREE,
                         monkeypatch=monkeypatch)
    assert code == 3 and out == ""
    assert err.startswith("validation error: cannot read steps file") and len(err.splitlines()) == 1


def test_induct_step_without_j_means_i_plus_one(capsys, monkeypatch):
    outs = []
    for step in ('{"kind":"R","i":1,"chain":[1,2,3]}', '{"kind":"R","i":1,"j":null,"chain":[1,2,3]}'):
        code, out, _ = run(capsys, ["induct", f"[{step}]"], stdin=INDUCT_TREE,
                           monkeypatch=monkeypatch)
        assert code == 0
        outs.append(json.loads(out)["edges"])
    assert outs == [[[1, 3, 2], [2, 3, 1]]] * 2


@pytest.mark.parametrize("order", ["cycle:1,5", "a,b", "1,2", "1,1,1", "cycle:1,1,2", "cycle:"])
def test_enumerate_refuses_bad_orders(capsys, order):
    code, out, err = run(capsys, ["enumerate", "trees", "--k", "3", "--m", "3", "--order", order])
    assert code == 3 and out == ""
    assert err.startswith("validation error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "trees", "--k", "3", "--m", "3"],
        ["enumerate", "diagrams", "--k", "3", "--m", "3"],
        ["enumerate", "angulations", "--k", "3", "--m", "3"],
        ["orbit"],
    ],
)
def test_guarded_commands_refuse_a_non_integer_work_limit(capsys, monkeypatch, argv):
    monkeypatch.setenv("CLUSTERCOMB_MAX_WORK", "abc")
    code, out, err = run(capsys, argv, stdin=INDUCT_TREE, monkeypatch=monkeypatch)
    assert code == 3 and out == ""
    assert err.startswith("validation error: CLUSTERCOMB_MAX_WORK must be an integer")


def test_closed_stdout_ends_without_a_traceback():
    # `| head -1`: the reader takes one line and closes the pipe while the
    # enumeration (megabytes of output) is still writing
    import subprocess
    import sys

    proc = subprocess.Popen(
        [sys.executable, "-m", "clustercomb.cli", "enumerate", "trees", "--k", "6", "--m", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert json.loads(proc.stdout.readline())["k"] == 6
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0 and err == b""


@pytest.mark.parametrize(
    "suite, m, named",
    [
        ("induction", 1, "induction suite needs m >= 2"),
        ("bijections", 1, "bijection suite needs m >= 3"),
        ("bijections", 2, "bijection suite needs m >= 3"),
    ],
)
def test_verify_refuses_an_m_its_suite_cannot_take(capsys, suite, m, named):
    code, out, err = run(capsys, ["verify", suite, "--m", str(m)])
    assert code == 3 and out == ""
    assert err.startswith("validation error:") and named in err


@pytest.fixture
def str_digits_limit():
    """Python's integer string conversion limit, set to its default 4300
    digits for the test and restored after it."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        pytest.skip("this Python has no integer string conversion limit")
    before = get()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["count", "U", "--kmax", "1311", "--m", "3"],
         "count U --kmax 1311 at m = 3: its last entry has more than 4300 digits"),
        (["count", "U", "--kmax", "1320", "--m", "3"], "count U --kmax 1320 at m = 3"),
        (["count", "T", "--kmax", "7500", "--m", "3"], "count T --kmax 7500 at m = 3"),
        (["count", "U", "--kmax", "1320", "--m", "2,3"], "count U --kmax 1320 at m = 3"),
        (["count", "T", "--kmax", "-3"], "count T --kmax -3 gives an empty row"),
        (["count", "U", "--kmax", "0"], "count U --kmax 0 gives an empty row"),
        (["enumerate", "trees", "--k", "2000", "--m", "3"],
         "enumerate_trees: output bound (a 6932-digit number) exceeds work limit 1000000"),
        (["enumerate", "diagrams", "--k", "15", "--m", "1"],
         "enumerate_diagrams: output bound 2390480 exceeds work limit 1000000"),
        (["enumerate", "angulations", "--k", "0", "--m", "3"], "need m >= 3 and k >= 1"),
    ],
)
def test_refused_before_any_output(capsys, monkeypatch, str_digits_limit, argv, named):
    # exit 3 with one line on stderr and nothing on stdout, not a traceback
    # (a count row or a bound past 4300 digits cannot be written with str)
    # and not an empty row
    monkeypatch.delenv("CLUSTERCOMB_MAX_WORK", raising=False)
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert named in err and len(err.splitlines()) == 1


def test_count_rows_up_to_the_string_conversion_limit(capsys, str_digits_limit):
    # U(1310, 3) has 4298 digits and U(1311, 3) has 4301; at a limit of
    # 4298 digits the estimate leaves the 1310 row to the exact entry, and
    # without a limit every row prints
    from clustercomb.counting import u_count

    for limit, kmax in ((4300, 1300), (4300, 1310), (4298, 1310), (0, 1320)):
        sys.set_int_max_str_digits(limit)
        code, out, _ = run(capsys, ["count", "U", "--kmax", str(kmax), "--m", "3"])
        row = out.split("\t")
        assert code == 0 and len(row) == kmax and row[-1] == f"{u_count(kmax, 3)}\n"
    for limit, kmax in ((4300, 1311), (4297, 1310)):
        sys.set_int_max_str_digits(limit)
        code, out, _ = run(capsys, ["count", "U", "--kmax", str(kmax), "--m", "3"])
        assert code == 3 and out == ""
