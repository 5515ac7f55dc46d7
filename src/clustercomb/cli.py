"""Command-line front end.

Subcommands: count (value tables), enumerate (exhaustive generation as JSON
lines), map (apply a named bijection to a JSON object on stdin), induct
(apply a step list to a tree), orbit (induction equivalence class), verify
(run a named check suite), export (DOT output).

Exit codes: 0 ok, 1 usage error, 2 verification mismatch, 3 validation error.
Set CLUSTERCOMB_MAX_WORK to raise the enumeration and orbit work ceiling.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import bijections as bij
from . import counting as cnt
from . import induction as ind
from . import verify as ver
from .angulations import (
    ColouredAngulation,
    LabelledAngulation,
    MAngulation,
    RootedAngulation,
    dual_tree_dot,
)
from .core import CircularOrder, ColouredForest, ColouredTree, tree_to_dot
from .core import _checked_object, _is_int, _json_loads
from .diagrams import RnaDiagram
from .errors import (
    ClustercombError,
    InvariantBroken,
    MalformedJSON,
    SizeLimitExceeded,
    ValidationError,
    VertexOutOfRange,
    WrongCircularOrder,
    WrongObjectType,
)
from .tables import S_TABLE, T_TABLE, U_TABLE


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _row_ks(family: str, m: int, kmax: int) -> range:
    """The k of a count row.  Before any entry is computed, a row is refused
    when it would be empty or when its last entry, its largest, has more
    digits than Python converts to text (sys.get_int_max_str_digits, 0 for
    no limit); the digits come from a closed-form estimate, and from the
    exact entry near the limit."""
    ks = range(1 if family == "U" else 0, kmax + 1)
    if not ks:
        raise VertexOutOfRange(f"count {family} --kmax {kmax} gives an empty row")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or kmax < 2 or m < 2:  # entries at k <= 1 or m < 2 are 0 or 1
        return ks
    est = cnt._log10_count(family, kmax, m)  # None past the float range
    digits = limit if est is None else est + 1
    if digits > limit + 1 or (
        digits > limit - 1 and cnt._COUNTS[family](kmax, m) >= 10**limit
    ):
        raise SizeLimitExceeded(
            f"count {family} --kmax {kmax} at m = {m}: its last entry has more "
            f"than {limit} digits, Python's integer string conversion limit"
        )
    return ks


def _cmd_count(args) -> int:
    tables = {"T": T_TABLE, "S": S_TABLE, "U": U_TABLE}
    status = 0
    rows = [(m, _row_ks(args.family, m, args.kmax)) for m in args.m]
    for m, ks in rows:
        row = [cnt._COUNTS[args.family](k, m) for k in ks]
        print("\t".join(str(v) for v in row))
        if args.check and args.family in tables:
            table = tables[args.family].get(m)
            if table is None:
                continue
            ref = list(table[: len(ks)])  # tables start at the row's first k
            if row[: len(ref)] != ref:
                print(f"mismatch against reference table at m={m}", file=sys.stderr)
                status = 2
    return status


def _parse_order(text: str | None, k: int) -> CircularOrder | None:
    """The --order value: None, "desc", "cycle:a,b,..." or "s1,s2,..."."""
    if not text:
        return None
    if text == "desc":
        return CircularOrder.descending(k)
    cycle = text.startswith("cycle:")
    try:
        values = tuple(int(x) for x in text.removeprefix("cycle:").split(","))
    except ValueError:
        raise WrongCircularOrder(f"bad --order {text!r}; expected 'desc', "
                                 "'cycle:a,b,...' or 's1,s2,...'") from None
    return CircularOrder.from_cycle(values) if cycle else CircularOrder(values)


def _cmd_enumerate(args) -> int:
    if args.family == "trees":
        order = _parse_order(args.order, args.k)
        for t in cnt.enumerate_trees(args.k, args.m, order):
            print(t.to_json())
    elif args.family == "diagrams":
        for d in cnt.enumerate_diagrams(args.k, args.m, args.connected, args.noncrossing):
            print(d.to_json())
    elif args.family == "angulations":
        for a in cnt.enumerate_angulations(args.k, args.m):
            print(a.to_json())
    return 0


def _load_object(text: str):
    """The object a JSON text encodes, told by its keys: one parse, one check."""
    d = _checked_object(_json_loads(text))
    if "edges" in d:
        if "root" in d:
            return bij.RootedTree.from_tree(ColouredTree.from_dict(d), d["root"])
        # with k - 1 edges the tree constructor refuses what the forest one does
        k, edges = d.get("k"), d["edges"]
        tree = _is_int(k) and isinstance(edges, list) and len(edges) == k - 1
        return (ColouredTree if tree else ColouredForest).from_dict(d)
    if "arcs" in d:
        return RnaDiagram.from_dict(d)
    if "word" in d:
        return bij.PlaneTree.from_dict(d)
    if "diagonals" in d:
        if "labels" in d:
            return LabelledAngulation.from_dict(d)
        if "root" in d:
            return RootedAngulation.from_dict(d)
        if "colours" in d:
            return ColouredAngulation.from_dict(d)
        return MAngulation.from_dict(d)
    raise MalformedJSON('unrecognized object JSON: expected an "edges", "arcs", "word" '
                        'or "diagonals" key')


def _dump_object(obj) -> str:
    if isinstance(obj, tuple):  # decomposition results
        return "[" + ",".join(map(_dump_object, obj)) + "]"
    return obj.to_json()


# each named map: the type of object it takes, and the map
_MAPS = {
    "diagram->forest": (RnaDiagram, bij.diagram_to_forest),
    "forest->diagram": (ColouredForest, bij.forest_to_diagram),
    "tree->rooted": (ColouredTree, bij.tree_to_rooted),
    "rooted->tree": (bij.RootedTree, bij.rooted_to_tree),
    "tree->angulation": (ColouredTree, bij.tree_to_angulation),
    "angulation->tree": (ColouredAngulation, lambda x: bij.angulation_to_tree(x).tree),
    "tree->rooted-angulation": (ColouredTree, bij.labelled_tree_to_rooted_angulation),
    "rooted-angulation->tree": (RootedAngulation, bij.rooted_angulation_to_tree),
    "tree->labelled-angulation": (ColouredTree, bij.labelled_tree_to_labelled_angulation),
    "labelled-angulation->tree": (LabelledAngulation, bij.labelled_angulation_to_tree),
}


def _cmd_map(args) -> int:
    text = sys.stdin.read()
    obj = _load_object(text)
    if args.name.startswith("families:"):
        route = args.name.split(":", 1)[1]
        try:
            frm, to = (int(x) for x in route.split("->"))
        except ValueError:
            raise ValidationError(f"bad family route {route!r}; expected families:A->B") from None
        out = bij.family_chain(obj, frm, to)
    elif args.name in _MAPS:
        takes, fn = _MAPS[args.name]
        if not isinstance(obj, takes):
            raise WrongObjectType(
                f"map {args.name} takes a {takes.__name__}, got a {type(obj).__name__}"
            )
        out = fn(obj)
    else:
        raise ValidationError(f"unknown map {args.name!r}; known: "
                              + ", ".join(sorted(_MAPS)) + ", families:A->B")
    print(_dump_object(out))
    return 0


def _cmd_induct(args) -> int:
    tree = ColouredTree.from_json(sys.stdin.read())
    text = args.steps
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                text = fh.read()
        except (OSError, UnicodeError) as exc:
            raise ValidationError(f"cannot read steps file {text[1:]!r}: {exc}") from None
    raw = _json_loads(text)
    if not isinstance(raw, list):
        raise MalformedJSON(f"steps must be a JSON list, got {type(raw).__name__}")
    steps = [ind.InductionStep.from_dict(d) for d in raw]
    print(ind.apply_steps(tree, steps).to_json())
    return 0


def _cmd_orbit(args) -> int:
    tree = ColouredTree.from_json(sys.stdin.read())
    edges = sorted(ind._class_members(tree))
    if any(map(tuple.__eq__, edges, edges[1:])):  # a repeat is a package fault
        raise InvariantBroken("the induction class yielded a member twice")
    # json writes the edge tuples as it writes lists
    orb = [{"k": tree.k, "m": tree.m, "edges": e} for e in edges]
    print(json.dumps({"size": len(orb), "orbit": orb}, separators=(",", ":")))
    return 0


def _cmd_verify(args) -> int:
    status = 0  # each suite's lines go out before the next suite can fail
    for suite in ver.SUITES if args.suite == "all" else (args.suite,):
        for name, ok, detail in ver.run_suite(suite, args.k, args.m):
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
            if not ok:
                status = 2
        sys.stdout.flush()
    return status


def _cmd_export(args) -> int:
    obj = _load_object(sys.stdin.read())
    if args.format != "dot":
        raise ValidationError(f"unsupported format {args.format!r}")
    if isinstance(obj, (ColouredTree, ColouredForest)):
        print(tree_to_dot(obj))
    elif isinstance(obj, bij.RootedTree):
        print(tree_to_dot(obj.tree))
    elif isinstance(obj, ColouredAngulation):
        print(dual_tree_dot(obj))
    elif isinstance(obj, (RootedAngulation, LabelledAngulation)):
        print(dual_tree_dot(obj.base))
    else:
        raise ValidationError("export supports trees and coloured angulations")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="clustercomb", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("count", help="print count tables")
    c.add_argument("family", choices=["T", "S", "U", "fuss"])
    c.add_argument("--kmax", type=int, default=6)
    c.add_argument("--m", type=lambda s: [int(x) for x in s.split(",")], default=[3])
    c.add_argument("--check", action="store_true", help="compare against reference tables")
    c.set_defaults(fn=_cmd_count)

    e = sub.add_parser("enumerate", help="exhaustive generation, one JSON per line")
    e.add_argument("family", choices=["trees", "diagrams", "angulations"])
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--m", type=int, required=True)
    e.add_argument(
        "--order",
        help="trees only: 'desc', 'cycle:a,b,...' (cycle notation), or "
        "comma-separated sigma values",
    )
    e.add_argument("--connected", action="store_true")
    e.add_argument("--noncrossing", action="store_true")
    e.set_defaults(fn=_cmd_enumerate)

    mp = sub.add_parser("map", help="apply a named bijection to stdin JSON")
    mp.add_argument("name")
    mp.set_defaults(fn=_cmd_map)

    ind = sub.add_parser("induct", help="apply a JSON step list to a tree on stdin")
    ind.add_argument("steps", help="JSON array of steps, or @file")
    ind.set_defaults(fn=_cmd_induct)

    orb = sub.add_parser("orbit", help="induction equivalence class of a tree on stdin")
    orb.set_defaults(fn=_cmd_orbit)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=[*ver.SUITES, "all"])
    v.add_argument("--k", type=int)
    v.add_argument("--m", type=int)
    v.set_defaults(fn=_cmd_verify)

    ex = sub.add_parser("export", help="export stdin JSON object")
    ex.add_argument("--format", default="dot")
    ex.set_defaults(fn=_cmd_export)
    return p


@functools.cache
def _parser() -> _Parser:  # built on main's first call; parse_args fills a new namespace
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): stop quietly, with
        # stdout on /dev/null so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except ClustercombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"validation error: bad JSON input: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
