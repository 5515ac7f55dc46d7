"""clustercomb benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload orbit|scan|large --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Set-up imports the package afresh and builds the seeded inputs, nine
times, and reports the median.  With --trace 0 the requests run for S
seconds untraced and the end-to-end metrics are printed.  With --trace 1 a
fixed number of request cycles (proportional to S, the same requests for a
given seed) runs once untraced and once traced, and the per-layer metrics
are printed; the spans go to perfbench/out/.  Every output is checked.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import traceback
from itertools import islice
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("errors", "core", "diagrams", "angulations", "bijections", "counting",
           "induction", "verify", "tables", "cli")
SETUP_REPEATS = 9
WINDOW_S = 1.0  # objects_per_s is the median over windows of whole cycles


class Package:
    """The package's modules as attributes, from one fresh import."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "clustercomb" or n.startswith("clustercomb.")]:
            del sys.modules[name]
        self.modules = {name: importlib.import_module(f"clustercomb.{name}") for name in MODULES}
        for name, module in self.modules.items():
            setattr(self, name, module)


def run_requests(work, cycles, errors, seconds=None, tracer=None):
    """Run whole cycles of requests until they run out or, with `seconds`,
    until the next cycle would likely end after `seconds`.  Only `work.run`
    is timed.  A raised package error, another exception or a failed check
    counts as a failed request and the run goes on.  Returns the latencies,
    (objects, busy seconds) per cycle, failures and requests attempted."""
    lat, per_cycle, failed, attempted = [], [], 0, 0
    start = perf_counter()
    for done, cycle in enumerate(cycles):
        elapsed = perf_counter() - start
        if seconds is not None and done and elapsed * (done + 1) / done > seconds:
            break
        first, objects = len(lat), 0
        for req in cycle:
            attempted += 1
            if tracer is not None:
                tracer.request = attempted
            t0 = perf_counter()
            try:
                out = work.run(req)
            except errors.ClustercombError as exc:
                lat.append(perf_counter() - t0)
                failed += 1
                print(f"request {attempted}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            except Exception:
                lat.append(perf_counter() - t0)
                failed += 1
                if failed <= 3:
                    traceback.print_exc()
                continue
            lat.append(perf_counter() - t0)
            try:
                n, ok = work.check(req, out)
            except Exception:
                if failed < 3:
                    traceback.print_exc()
                n, ok = 0, False
            objects += n
            if not ok:
                failed += 1
                print(f"request {attempted}: check failed", file=sys.stderr)
        per_cycle.append((objects, sum(lat[first:])))
    return lat, per_cycle, failed, attempted


def window_rates(per_cycle) -> list[float]:
    """Objects per second of request time in consecutive windows of whole
    cycles, each at least WINDOW_S long (the last one may be shorter and
    joins its predecessor)."""
    rates, objects, busy = [], 0, 0.0
    for n, t in per_cycle:
        objects, busy = objects + n, busy + t
        if busy >= WINDOW_S:
            rates.append((objects, busy))
            objects, busy = 0, 0.0
    if busy and rates:
        last = rates.pop()
        rates.append((last[0] + objects, last[1] + busy))
    elif busy:
        rates.append((objects, busy))
    return [n / t for n, t in rates]


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def with_units(values: dict, spec: list[dict]) -> dict:
    """Attach each metric's unit as BENCHMARK.json names it."""
    units = {m["name"]: m["unit"] for m in spec}
    return {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}


def end_to_end(work, pkg, seconds, setup_s):
    """Untraced requests for `seconds`; the end-to-end metrics."""
    lat, per_cycle, failed, attempted = run_requests(work, work.cycles(), pkg.errors, seconds)
    objects = sum(n for n, _ in per_cycle)
    values = {
        "objects_per_s": statistics.median(window_rates(per_cycle)),
        "request_p50_ms": statistics.median(lat) * 1e3,
        "request_p90_ms": percentile(lat, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - failed / attempted,
        "setup_s": setup_s,
    }
    print(
        f"{work.name}: {attempted} requests, {objects} objects, error_rate "
        f"{failed / attempted:.4g}",
        file=sys.stderr,
    )
    return attempted, failed, values


def per_layer(cls, work, pkg, seed, seconds):
    """The same fixed cycles untraced on `work`, then traced on a fresh
    set-up; the per-layer metrics of the traced pass."""
    n = max(1, round(cls.TRACE_CYCLES_PER_S * seconds))
    _, per_cycle, failed, attempted = run_requests(work, islice(work.cycles(), n), pkg.errors)
    plain_rate = statistics.median(window_rates(per_cycle))
    traced_work = cls(pkg, seed)
    tracer = Tracer()
    tracer.install(pkg.modules)
    try:
        _, per_cycle, failed2, attempted2 = run_requests(
            traced_work, islice(traced_work.cycles(), n), pkg.errors, tracer=tracer
        )
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values["cli.stdout_bytes"] = getattr(traced_work, "cli_bytes", 0)
    values["trace.overhead_frac"] = 1 - statistics.median(window_rates(per_cycle)) / plain_rate
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{cls.name}-{seed}.jsonl")
    return attempted + attempted2, failed + failed2, values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "clustercomb" / "__init__.py").is_file():
        print(f"perfbench: no package source under {src}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    # enumerations run under the package's default work guard
    os.environ.pop("CLUSTERCOMB_MAX_WORK", None)
    sys.path.insert(0, str(src))

    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pkg = Package()
        work = cls(pkg, args.seed)
        times.append(perf_counter() - t0)
    if not pkg.core.__file__.startswith(str(src)):
        print(f"perfbench: imported {pkg.core.__file__}, not the checkout's", file=sys.stderr)
        return 2
    setup_s = statistics.median(times)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        attempted, failed, values = per_layer(cls, work, pkg, args.seed, args.seconds)
        metrics = with_units(values, spec["per_layer"])
    else:
        attempted, failed, values = end_to_end(work, pkg, args.seconds, setup_s)
        metrics = with_units(values, spec["end_to_end"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
