#!/usr/bin/env python3
"""Self-test of the benchmark on tiny runs of every workload.

    python3 bench/selftest.py

For each workload it checks that
  - an untraced and a traced run print every metric they must, with units;
  - two runs on one seed give identical digests and identical counts, and
    the traced replay gives the untraced run's digest;
  - a deliberately wrong --expect-digest makes the command exit 1;
  - the traced run's spans (--spans) nest inside their parents and items;
and that, in a directory holding only BENCHMARK.json and bench/, the
benchmark exits non-zero without printing a result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import END_TO_END, HERE, PER_LAYER, ROOT, unit_of

ITEMS = 12
SEED = 7
WORKLOADS = ("fuzz-big", "closure", "cli-mix")

# Every layer metric the traced run must report on its `layers` line.
LAYER_METRICS = [f"polynomials.mul.{m}" for m in
                 ("calls", "self_s", "term_products", "out_terms", "frac_share", "max_coeff_bits")]
LAYER_METRICS += [f"polynomials.{op}.{m}" for op in ("add", "partial", "str")
                  for m in ("calls", "self_s")]
LAYER_METRICS += [f"automorphisms.{op}.{m}" for op in ("compose", "invert", "factor")
                  for m in ("calls", "self_s")]
LAYER_METRICS += [f"derivations.{op}.{m}" for op in ("apply", "bracket", "exponential")
                  for m in ("calls", "self_s")]
LAYER_METRICS += ["lie.closure.calls", "lie.closure.self_s", "lie.closure.brackets",
                  "lie.closure.bracket_yield", "lie.series.self_s", "lie.series.brackets",
                  "lie.dimension_sum", "harness.calls", "harness.self_s", "parsing.calls",
                  "parsing.self_s", "parsing.bytes", "cli.run.calls", "cli.run.self_s",
                  "trace.overhead_s", "other.self_s"]

failures: list[str] = []


def check(condition: bool, message: str):
    print(("PASS " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def bench(workload: str, *extra: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    command = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "0", "--items", str(ITEMS), *extra]
    done = subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=170)
    return done.returncode, done.stdout.splitlines()


def parse(lines: list[str], workload: str) -> tuple[dict, dict, str]:
    result = json.loads(lines[-1])
    digest = next(l.split()[-1] for l in lines if l.startswith(f"{workload} digest "))
    layers = next((json.loads(l.split(" ", 2)[2]) for l in lines
                   if l.startswith(f"{workload} layers ")), {})
    return result, layers, digest


def counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if unit_of(k) != "s"}


def spans_nest(path: str) -> bool:
    with open(path, encoding="utf-8") as handle:
        spans = {s[0]: s for s in map(json.loads, handle)}
    for _, parent, item, name, start, end in spans.values():
        if parent is None:
            if name != "item":
                return False
            continue
        outer = spans.get(parent)
        if outer is None or outer[2] != item or not outer[4] <= start <= end <= outer[5]:
            return False
    return bool(spans)


def test_workload(workload: str):
    runs = {}
    spans = os.path.join(HERE, ".work", f"spans-{workload}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    for trace in ("0", "1"):
        for attempt in range(2):
            extra = ("--spans", spans) if trace == "1" and attempt == 0 else ()
            code, lines = bench(workload, "--trace", trace, *extra)
            check(code == 0, f"{workload} trace={trace} run {attempt} exits 0")
            runs[trace, attempt] = parse(lines, workload)
    expected = {"0": set(END_TO_END), "1": set(PER_LAYER)}
    for trace in ("0", "1"):
        result, _, _ = runs[trace, 0]
        metrics = result["metrics"]
        check(set(metrics) == expected[trace]
              and all(m["unit"] == unit_of(k) for k, m in metrics.items()),
              f"{workload} trace={trace} prints the full metric key set with units")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= ITEMS,
              f"{workload} trace={trace} is correct")
    check(spans_nest(spans), f"{workload} spans nest inside their parents and items")
    os.remove(spans)
    layers = runs["1", 0][1]
    missing = [m for m in LAYER_METRICS if m not in layers]
    check(not missing, f"{workload} traced run reports every layer metric {missing or ''}")
    digests = {runs[key][2] for key in runs}
    check(len(digests) == 1, f"{workload} digests agree across runs and tracing")
    check(counts(runs["1", 0][1]) == counts(runs["1", 1][1]),
          f"{workload} traced counts repeat exactly on one seed")
    code, lines = bench(workload, "--expect-digest", "0" * 64)
    check(code == 1 and not json.loads(lines[-1])["correct"],
          f"{workload} fails on a wrong expected digest")
    code, lines = bench(workload, "--expect-digest", digests.pop())
    check(code == 0, f"{workload} passes on the right expected digest")


def test_without_library():
    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        code, lines = bench("fuzz-big", cwd=bare)
        check(code != 0 and not any(l.startswith("{") for l in lines),
              "without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for workload in WORKLOADS:
        test_workload(workload)
    test_without_library()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
