"""Self-test of the benchmark at tiny size (about a minute).

    python3 perfbench/selftest.py

From the root of a checkout: runs every workload for one second in both
modes and checks that every metric BENCHMARK.json names is printed with its
unit, that no request failed (error rate 0), and that two traced runs with
one seed report identical per-layer counts.  It also checks that the
benchmark refuses to run, printing no result, without the package source.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = {"count", "B"}


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {message}")


def bench(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(workload: str, trace: int) -> dict:
    proc = bench(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)])
    check(proc.returncode == 0, f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(out: dict, spec: list[dict], label: str) -> None:
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    check(got == want, f"{label}: metrics differ: {set(got) ^ set(want)}")
    check(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, f"{label}: {out}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        plain = result(name, 0)
        expect_metrics(plain, spec["end_to_end"], f"{name} --trace 0")
        check(plain["metrics"]["success_rate"]["value"] == 1.0, f"{name}: error rate above 0")
        first, second = result(name, 1), result(name, 1)
        for out in (first, second):
            expect_metrics(out, spec["per_layer"], f"{name} --trace 1")
        counts = [
            {k: m["value"] for k, m in out["metrics"].items()
             if m["unit"] in COUNT_UNITS or k.endswith("new_ratio")}
            for out in (first, second)
        ]
        check(counts[0] == counts[1], f"{name}: traced counts differ between runs")
        print(f"ok {name}: {plain['attempted']} requests, {len(counts[0])} counts repeat")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(["--workload", "orbit", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "ran without the package source")
    print("ok refuses to run without the package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
