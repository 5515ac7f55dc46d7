"""Spans around the package's public functions, installed from outside.

The tracer wraps each listed function and rebinds every module attribute of
the package that refers to it, so calls made inside the package (for
example `orbit` calling `apply_R`) are traced too.  Validation is traced by
wrapping the dataclasses' `__post_init__`.  No source file of the package
changes.

Each call leaves a span (name, start, end, parent).  A layer's self time is
its span minus the time of the spans nested directly inside it.  Totals are
kept per layer; the spans themselves are kept in memory up to a cap and
written out at the end.
"""
from __future__ import annotations

import json
import math
import statistics
from array import array
from collections import Counter, defaultdict
from time import perf_counter

SPAN_CAP = 20_000

# (module, attribute) -> layer.  A dotted attribute names a class method.
TARGETS = {
    ("core", "ColouredForest.__post_init__"): "core.validate",
    ("core", "maximal_chains"): "core.maximal_chains",
    ("core", "circular_order"): "core.circular_order",
    ("core", "canonical_unlabelled"): "core.canonical",
    ("core", "canonical_rooted"): "core.canonical",
    ("induction", "apply_R"): "induction.apply",
    ("induction", "apply_L"): "induction.apply",
    ("induction", "orbit"): "induction.orbit",
    ("induction", "normal_form"): "induction.normal_form",
    ("counting", "enumerate_trees"): "counting.enumerate",
    ("counting", "enumerate_diagrams"): "counting.enumerate",
    ("counting", "enumerate_angulations"): "counting.enumerate",
    ("diagrams", "RnaDiagram.__post_init__"): "diagrams.validate",
    ("angulations", "MAngulation.__post_init__"): "angulations.validate",
    ("angulations", "ColouredAngulation.__post_init__"): "angulations.validate",
    ("angulations", "RootedAngulation.__post_init__"): "angulations.validate",
    ("angulations", "LabelledAngulation.__post_init__"): "angulations.validate",
    ("angulations", "canonical_rotation"): "angulations.canonical_rotation",
    ("angulations", "rotate_one_step"): "angulations.rotate_one_step",
    ("angulations", "induct_R_on_angulation"): "angulations.snake_induct",
    ("angulations", "induct_R_on_labelled_angulation"): "angulations.snake_induct",
    ("bijections", "tree_to_angulation"): "bijections.embed",
    ("bijections", "labelled_tree_to_rooted_angulation"): "bijections.embed",
    ("bijections", "labelled_tree_to_labelled_angulation"): "bijections.embed",
    ("bijections", "angulation_to_tree"): "bijections.dual",
    ("bijections", "rooted_angulation_to_tree"): "bijections.dual",
    ("bijections", "labelled_angulation_to_tree"): "bijections.dual",
    ("bijections", "diagram_to_forest"): "bijections.diagram_forest",
    ("bijections", "forest_to_diagram"): "bijections.diagram_forest",
    ("cli", "main"): "cli.main",
}

GENERATORS = {"counting.enumerate"}
# layers whose self time is also fitted against k (first argument's .k)
SCALING = ("core.validate", "bijections.embed", "angulations.rotate_one_step")

LAYERS = sorted(set(TARGETS.values()))


class Tracer:
    """Per-layer totals and the first SPAN_CAP spans of one traced run."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()  # layer-specific counts
        self.by_parent: Counter = Counter()  # (parent layer, layer) -> calls
        self.by_k: dict[str, defaultdict] = {n: defaultdict(list) for n in SCALING}
        self.request = 0
        self._next_id = 1
        # open spans: [id, layer, time covered by direct children]
        self._stack: list[list] = [[0, "request", 0.0]]
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self._refusal = None  # the package's SizeLimitExceeded, set by install
        self._layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _close(self, frame, name, t0, t1, arg):
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        dur = t1 - t0
        parent[2] += dur
        own = dur - frame[2]
        self.calls[name] += 1
        self.self_s[name] += own
        self.by_parent[(parent[1], name)] += 1
        if name in self.by_k:
            k = getattr(arg, "k", None)
            if k is not None:
                self.by_k[name][k].append(own)
        if len(self.span_id) < SPAN_CAP:
            self.span_id.append(frame[0])
            self.span_parent.append(parent[0])
            self.span_request.append(self.request)
            self.span_layer.append(self._layer_ids[name])
            self.span_start.append(t0)
            self.span_end.append(t1)

    def _open(self, name):
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def wrap(self, name, fn):
        post = _POST.get(name)

        def traced(*args, **kwargs):
            frame = self._open(name)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(frame, name, t0, perf_counter(), args[0] if args else None)
            if post is not None:
                post(self, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        """Time spent inside each `next` of the generator counts as one span;
        a guard refusal is the error raised by the first `next`."""

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = self._open(name)
                t0 = perf_counter()
                try:
                    obj = next(gen)
                except StopIteration:
                    return
                except Exception as exc:
                    if isinstance(exc, self._refusal):
                        self.extra["counting.guard_refusals"] += 1
                    raise
                finally:
                    self._close(frame, name, t0, perf_counter(), None)
                self.extra["counting.enumerate.objects"] += 1
                yield obj

        traced.__wrapped__ = fn
        return traced

    # -- installing -------------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every target and rebind each package module attribute that
        refers to the original function."""
        self._refusal = modules["errors"].SizeLimitExceeded
        originals = {}
        for (mod, attr), name in TARGETS.items():
            owner = modules[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(name, fn))
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap_generator if name in GENERATORS else self.wrap
            originals[id(fn)] = (fn, wrapper(name, fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results --------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["counting.enumerate.objects"] = self.extra["counting.enumerate.objects"]
        out["counting.guard_refusals"] = self.extra["counting.guard_refusals"]
        successors = self.by_parent[("induction.orbit", "induction.apply")]
        added = self.extra["induction.orbit.added"]
        out["induction.orbit.new_ratio"] = added / successors if successors else 0.0
        out["induction.normal_form.steps"] = self.extra["induction.normal_form.steps"]
        out["angulations.rotate_one_step.mutations"] = self.extra[
            "angulations.rotate_one_step.mutations"
        ]
        for layer in SCALING:
            out[f"{layer}.k_exponent"] = k_exponent(self.by_k[layer])
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: [id, parent id, request, layer, start, end];
        parent 0 is the request itself.  Times are seconds of perf_counter."""
        with open(path, "w") as fh:
            for idx in range(len(self.span_id)):
                fh.write(
                    json.dumps(
                        [
                            self.span_id[idx],
                            self.span_parent[idx],
                            self.span_request[idx],
                            LAYERS[self.span_layer[idx]],
                            self.span_start[idx],
                            self.span_end[idx],
                        ]
                    )
                    + "\n"
                )


def _orbit_post(tracer, args, out):
    tracer.extra["induction.orbit.added"] += len(out) - 1


def _normal_form_post(tracer, args, out):
    tracer.extra["induction.normal_form.steps"] += len(out[1])


def _rotate_post(tracer, args, out):
    tracer.extra["angulations.rotate_one_step.mutations"] += len(out[1])


_POST = {
    "induction.orbit": _orbit_post,
    "induction.normal_form": _normal_form_post,
    "angulations.rotate_one_step": _rotate_post,
}


def k_exponent(by_k: dict[int, list[float]]) -> float:
    """Least-squares slope of log(median self time) against log(k) over the
    distinct k seen; 0 when fewer than two sizes were seen."""
    pts = [
        (math.log(k), math.log(statistics.median(ts)))
        for k, ts in sorted(by_k.items())
        if k > 0 and statistics.median(ts) > 0
    ]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
