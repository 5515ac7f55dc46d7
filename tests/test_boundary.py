"""The library boundary: every constructor checks the types of its own
integer fields, and so do the functions that take an edge argument.

Each row builds one object with one field, or one entry of a tuple field,
of a wrong type or width: a bool, a float, a numeric string or None where
an int belongs.  Each must be refused with MalformedJSON naming the field,
never a TypeError, and never accepted with the value coerced.

The core walks `cycle_of` and `symbol_action` also refuse a vertex or
colour out of range with VertexOutOfRange, and a walk that shows its
permutation is none with WrongCircularOrder, instead of hanging or raising
an unnamed error.
"""
import io
import json
import sys

import pytest

from clustercomb import cli
from clustercomb.angulations import (
    ColouredAngulation,
    LabelledAngulation,
    MAngulation,
    RootedAngulation,
    colour_from_seed,
    diagonal_rotate,
)
from clustercomb.bijections import PlaneTree
from clustercomb.core import (
    CircularOrder,
    ColouredForest,
    ColouredTree,
    canonical_rooted,
    symbol_action,
    validate_tree,
)
from clustercomb.diagrams import RnaDiagram
from clustercomb.errors import MalformedJSON, VertexOutOfRange, WrongCircularOrder
from clustercomb.induction import InductionStep

# the m = 3 angulation of the square and its labels, read by the rows below
ANG = MAngulation(3, 2, ((1, 3),))
COLOURED = colour_from_seed(ANG, (1, 2), 1)
LABELS = (((1, 2, 3), 1), ((1, 3, 4), 2))
TREE = validate_tree([(1, 2, 1), (2, 3, 2)], 3, 3)


def _recoloured(value, at=(1, 2)):
    return tuple((e, value if e == at else c) for e, c in COLOURED.colours)


def _last_colour(entry):
    return ColouredAngulation(ANG, COLOURED.colours[:-1] + (entry,))


def _relabelled(value):
    return ((LABELS[0][0], value), LABELS[1])


# row -> (field, a valid value, a build of the object with that field or
# entry set to a value); each row is tried with the wrong values below
SCALARS = {
    "forest k": ("k", 2, lambda x: ColouredForest(x, 3, ((1, 2, 1),))),
    "forest m": ("m", 1, lambda x: ColouredForest(2, x, ((1, 2, 1),))),
    "tree k": ("k", 1, lambda x: ColouredTree(x, 3, ())),
    "tree m": ("m", 1, lambda x: ColouredTree(2, x, ((1, 2, 1),))),
    "diagram k": ("k", 1, lambda x: RnaDiagram(x, 3, ())),
    "diagram m": ("m", 1, lambda x: RnaDiagram(2, x, (((1, 1), (2, 1)),))),
    "diagram arc vertex": ("arcs", 1, lambda x: RnaDiagram(2, 3, (((x, 1), (2, 1)),))),
    "diagram arc base": ("arcs", 1, lambda x: RnaDiagram(2, 3, (((1, 1), (2, x)),))),
    "angulation m": ("m", 3, lambda x: MAngulation(x, 1, ())),
    "angulation k": ("k", 1, lambda x: MAngulation(3, x, ())),
    "angulation diagonal": ("diagonals", 1, lambda x: MAngulation(3, 2, ((x, 3),))),
    "colour value": ("colours", 1, lambda x: ColouredAngulation(ANG, _recoloured(x))),
    "root face vertex": ("root", 1, lambda x: RootedAngulation(COLOURED, (x, 2, 3))),
    "label value": ("labels", 1, lambda x: LabelledAngulation(COLOURED, _relabelled(x))),
    "plane tree m": ("m", 1, lambda x: PlaneTree(x, (0,))),
    "plane tree word entry": ("word", 1, lambda x: PlaneTree(2, (1, x, 0))),
    "step i": ("i", 1, lambda x: InductionStep("R", x, 2, (1, 2))),
    "step j": ("j", 2, lambda x: InductionStep("R", 1, x, (1, 2))),
    "canonical_rooted root": ("root", 1, lambda x: canonical_rooted(TREE, x)),
    "symbol_action colour": ("r", 1, lambda x: symbol_action(TREE, x, 1)),
    "symbol_action vertex": ("v", 1, lambda x: symbol_action(TREE, 1, x)),
    "cycle_of vertex": ("v", 1, lambda x: CircularOrder.descending(3).cycle_of(x)),
    "seed edge": ("seed_edge", 1, lambda x: colour_from_seed(ANG, (x, 2), 1)),
    "seed colour": ("seed_colour", 1, lambda x: colour_from_seed(ANG, (1, 2), x)),
    "rotated diagonal": ("diag", 1, lambda x: diagonal_rotate(ANG, (x, 3))),
}


def _wrong(valid: int) -> dict:
    """The wrong values for an int field whose valid value is `valid`."""
    return {"bool": True, "float": float(valid), "string": str(valid), "None": None}


# rows with a wrong width or container
WIDTHS = {
    "forest edges not a list": ("edges", lambda: ColouredForest(3, 3, 5)),
    "tree edges None": ("edges", lambda: ColouredTree(1, 3, None)),
    "diagram slot of three": ("arcs", lambda: RnaDiagram(2, 3, (((1, 1, 5), (2, 1)),))),
    "diagram arc of three slots": (
        "arcs", lambda: RnaDiagram(3, 3, (((1, 1), (2, 1), (3, 1)),))),
    "diagram arcs None": ("arcs", lambda: RnaDiagram(2, 3, None)),
    "angulation diagonal of three": ("diagonals", lambda: MAngulation(3, 2, ((1, 3, 5),))),
    "angulation diagonals None": ("diagonals", lambda: MAngulation(3, 1, None)),
    "colour entry of three": ("colours", lambda: _last_colour(((3, 4), 2, 5))),
    "colour key of three": ("colours", lambda: _last_colour(((3, 4, 5), 2))),
    "root face a string": ("root", lambda: RootedAngulation(COLOURED, "1-2-3")),
    "root face None": ("root", lambda: RootedAngulation(COLOURED, None)),
    "label entry of three": (
        "labels", lambda: LabelledAngulation(COLOURED, (LABELS[0] + (5,), LABELS[1]))),
    "plane tree word None": ("word", lambda: PlaneTree(2, None)),
    "seed edge of floats": ("seed_edge", lambda: colour_from_seed(ANG, (1.7, 2.2), 1)),
    "seed edge of three": ("seed_edge", lambda: colour_from_seed(ANG, (1, 2, 3), 1)),
    "rotated diagonal of floats": ("diag", lambda: diagonal_rotate(ANG, (1.7, 3.2))),
    "rotated diagonal of strings": ("diag", lambda: diagonal_rotate(ANG, ("1", "3"))),
    "rotated diagonal None": ("diag", lambda: diagonal_rotate(ANG, None)),
}

ROWS = [
    (f"{name}: {kind}", field, lambda build=build, value=value: build(value))
    for name, (field, valid, build) in SCALARS.items()
    for kind, value in _wrong(valid).items()
    if not (name == "step j" and value is None)  # j = None means i + 1
] + [(name, field, build) for name, (field, build) in WIDTHS.items()]


@pytest.mark.parametrize("name,field,build", ROWS, ids=[r[0] for r in ROWS])
def test_constructor_refuses_a_field_of_the_wrong_type(name, field, build):
    with pytest.raises(MalformedJSON) as err:
        build()
    assert f'"{field}"' in str(err.value)


def test_the_valid_rows_are_accepted():
    # the objects the rows spoil are valid with the right values
    for _, valid, build in SCALARS.values():
        build(valid)
    assert ColouredAngulation(ANG, _recoloured(1)) == COLOURED
    assert LabelledAngulation(COLOURED, _relabelled(1)).labels == LABELS


# the walks on a vertex or colour out of range, and on a perm that is no
# permutation (the CircularOrder constructor checks nothing): each once
OUT_OF_RANGE = {
    "cycle_of vertex 0": (VertexOutOfRange, lambda: CircularOrder.descending(3).cycle_of(0)),
    "cycle_of vertex above k": (VertexOutOfRange, lambda: CircularOrder.descending(3).cycle_of(4)),
    "cycle_of a walk that never closes": (
        WrongCircularOrder, lambda: CircularOrder((1, 1, 1)).cycle_of(2)),
    "cycle_of a walk that leaves 1..k": (
        WrongCircularOrder, lambda: CircularOrder((2, 7)).cycle_of(1)),
    "symbol_action vertex above k": (VertexOutOfRange, lambda: symbol_action(TREE, 1, 99)),
    "symbol_action vertex 0": (VertexOutOfRange, lambda: symbol_action(TREE, 1, 0)),
    "symbol_action colour above m": (VertexOutOfRange, lambda: symbol_action(TREE, 4, 1)),
    "symbol_action colour 0": (VertexOutOfRange, lambda: symbol_action(TREE, 0, 1)),
}


@pytest.mark.parametrize("error,call", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_core_walks_refuse_inputs_out_of_range(error, call):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("root", ["true", "1.0", '"1"', "null"])
def test_cli_refuses_a_rooted_tree_root_of_another_type(monkeypatch, root):
    text = '{"k":3,"m":3,"edges":[[1,2,2],[2,3,1]],"root":' + root + "}"
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    code = cli.main(["map", "rooted->tree"])
    monkeypatch.undo()
    assert code == 3 and out.getvalue() == ""
    assert err.getvalue().startswith('validation error: "root" must be an integer')


def test_map_parses_and_validates_each_input_once(monkeypatch):
    # one json.loads of the input and one validation of its tree, for a
    # tree input and for a rooted one
    loads, checks = [], []
    real_loads, real_check = json.loads, ColouredForest.__post_init__

    def counted_loads(*args, **kwargs):
        loads.append(1)
        return real_loads(*args, **kwargs)

    def counted_check(self):
        checks.append(1)
        real_check(self)

    monkeypatch.setattr(json, "loads", counted_loads)
    monkeypatch.setattr(ColouredForest, "__post_init__", counted_check)
    for name, text in [
        ("tree->rooted", '{"k":3,"m":3,"edges":[[1,2,1],[2,3,2]]}'),
        ("rooted->tree", '{"k":3,"m":3,"edges":[[1,2,2],[2,3,1]],"root":1}'),
        ("forest->diagram", '{"k":3,"m":3,"edges":[[1,2,1]]}'),
    ]:
        loads.clear(), checks.clear()
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["map", name]) == 0 and out.getvalue()
        assert (len(loads), len(checks)) == (1, 1), name
