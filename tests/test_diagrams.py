import pytest

from clustercomb.counting import enumerate_diagrams
from clustercomb.diagrams import (
    RnaDiagram,
    arc_shift,
    is_connected,
    is_noncrossing,
    is_saturated,
    validate_diagram,
)
from clustercomb.errors import MalformedJSON, SelfArc, SlotReused, UnequalBases


def test_validate_examples():
    d = validate_diagram({"k": 2, "m": 3, "arcs": [[[1, 1], [2, 1]]]})
    assert d.arcs == (((1, 1), (2, 1)),)
    with pytest.raises(UnequalBases):
        RnaDiagram(2, 3, (((1, 1), (2, 2)),))
    with pytest.raises(SlotReused):
        RnaDiagram(3, 3, (((1, 1), (2, 1)), ((1, 1), (3, 1))))
    with pytest.raises(SelfArc):
        RnaDiagram(2, 3, (((1, 1), (1, 2)),))


@pytest.mark.parametrize("raw", [{"k": 2, "m": 3, "arcs": 5}, [1], {"k": 2, "m": "3", "arcs": []}])
def test_validate_diagram_rejects_bad_shapes(raw):
    with pytest.raises(MalformedJSON):
        validate_diagram(raw)


def test_noncrossing_examples():
    assert is_noncrossing(RnaDiagram(3, 2, ()))
    crossing = RnaDiagram(2, 2, (((1, 1), (2, 1)), ((1, 2), (2, 2))))
    assert not is_noncrossing(crossing)  # positions (1,3) and (2,4) interleave
    nested = RnaDiagram(3, 2, (((1, 1), (3, 1)), ((1, 2), (2, 2))))
    assert is_noncrossing(nested)


def test_connected_examples():
    assert is_connected(RnaDiagram(1, 3, ()))
    assert not is_connected(RnaDiagram(3, 3, (((1, 1), (2, 1)),)))


def test_connected_iff_k_minus_1_arcs():
    # over noncrossing diagrams, connectivity is exactly having k-1 arcs
    for k in range(1, 6):
        for m in (1, 2, 3):
            for d in enumerate_diagrams(k, m, noncrossing_only=True):
                assert is_connected(d) == (len(d.arcs) == k - 1)


def test_arc_shift_examples():
    d = RnaDiagram(2, 3, (((1, 2), (2, 2)),))
    assert arc_shift(d, 0) == d
    assert arc_shift(d, 1).arcs == (((1, 1), (2, 1)),)
    for r in (2, 3):
        dd = RnaDiagram(2, 3, (((1, r), (2, r)),))
        assert arc_shift(arc_shift(dd, r - 1), -(r - 1)) == dd


def test_noncrossing_invariant_under_vertex_rotation():
    for d in enumerate_diagrams(3, 3, noncrossing_only=False):
        rotated = arc_shift(d, d.m)  # one whole vertex step
        assert is_noncrossing(rotated) == is_noncrossing(d)


def test_connected_noncrossing_is_saturated():
    for d in enumerate_diagrams(3, 3, connected_only=True, noncrossing_only=True):
        assert is_saturated(d)


def test_json_round_trip():
    d = RnaDiagram(3, 2, (((1, 1), (3, 1)), ((1, 2), (2, 2))))
    assert RnaDiagram.from_json(d.to_json()) == d
