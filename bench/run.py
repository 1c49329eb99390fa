#!/usr/bin/env python3
"""Benchmark of the triaut library: three seeded workloads, checked outputs.

    python3 bench/run.py --workload {fuzz-big,closure,cli-mix,all} \\
        --seed N --seconds S --trace {0,1} [--items K] [--expect-digest HEX] \\
        [--spans FILE]

Run from the repository root.  The library is imported from `src/` next
to this directory and nowhere else.  Each workload runs in a fresh,
single-threaded interpreter; `all` runs the three one after another,
each in its own child process.

Untraced (`--trace 0`): the workload's items are run once as a warm-up,
then timed one library call at a time, the whole list repeated until
`--seconds` have passed; the metrics are taken over every timed call of
the repeats, each expressed at a fixed reference speed (see untraced).
Every output is checked outside the timed region, and every repeat must
give the same digest.  Prints items_per_s, item_p50_ms, item_p95_ms, setup_s
(median of SETUP_PROBES fresh interpreters, from spawn to the first item
being ready: import plus input generation), peak_rss_mb and error_rate.

Traced (`--trace 1`): the items are timed untraced, then with every
public library function wrapped (see tracer.py), then untraced again,
and the per-layer metrics of the traced pass are printed.

Every run prints the SHA-256 digest of the items' checked outputs.  The
last line of stdout is one JSON object {correct, attempted, failed,
metrics}.  The exit code is 1 if any item raised or failed its check, or
if the digest differs from --expect-digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 11
# Timings are expressed at the speed at which the reference loop takes
# REFERENCE_MS, judged from the loop's median time over REFERENCE_WINDOW
# calls on either side of each timed call.
REFERENCE_MS = 0.3
REFERENCE_WINDOW = 10
CHILD_TIMEOUT_S = 170

END_TO_END = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_p95_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}

# Layer metrics carried in the traced run's JSON line: exact counts, and
# the times that are nonzero on every workload.  The full table, with a
# self time for every layer, is printed on the `layers` line before it.
PER_LAYER = (
    "polynomials.mul.calls", "polynomials.mul.self_s", "polynomials.mul.term_products",
    "polynomials.mul.out_terms", "polynomials.mul.frac_share", "polynomials.mul.max_coeff_bits",
    "polynomials.add.calls", "polynomials.add.self_s", "polynomials.partial.calls",
    "polynomials.substitute.calls", "polynomials.str.calls", "polynomials.misc.calls",
    "polynomials.misc.self_s",
    "automorphisms.compose.calls", "automorphisms.invert.calls", "automorphisms.factor.calls",
    "derivations.apply.calls", "derivations.bracket.calls", "derivations.exponential.calls",
    "lie.closure.calls", "lie.closure.brackets", "lie.closure.bracket_yield",
    "lie.series.calls", "lie.series.brackets", "lie.dimension_sum",
    "harness.calls", "parsing.calls", "parsing.bytes", "cli.run.calls",
    "other.self_s", "trace.overhead_s", "trace.bookkeeping_s",
)


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    suffix = metric.rsplit(".", 1)[-1]
    if suffix.endswith("_s"):
        return "s"
    return {"frac_share": "ratio", "bracket_yield": "ratio", "max_coeff_bits": "bits",
            "bytes": "bytes"}.get(suffix, "count")


def load_workloads():
    """Import triaut from this checkout's src/ (never an installed copy)."""
    sys.path.insert(0, SRC)
    import triaut
    if not os.path.abspath(triaut.__file__).startswith(SRC + os.sep):
        raise ImportError(f"triaut imported from {triaut.__file__}, not from {SRC}")
    import workloads
    return workloads


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fuzz-big", "closure", "cli-mix", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--items", type=int, default=None,
                        help="run only the first K items (small self-test runs)")
    parser.add_argument("--expect-digest", default=None,
                        help="fail unless the output digest equals this hex string")
    parser.add_argument("--spans", default=None,
                        help="traced run: write the recorded spans to this file as JSON lines")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Run:
    """One workload in this process: inputs, timed items, checks, digest."""

    def __init__(self, args, workloads):
        self.args = args
        self.workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
        self.workload = workloads.WORKLOADS[args.workload](args.seed, self.workdir)
        self.check_failed = workloads.CheckFailed
        os.makedirs(self.workdir)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def items(self) -> list:
        items = self.workload.items()
        return items if self.args.items is None else items[:self.args.items]

    def run_items(self, items, timed_call, deadline=None) -> tuple[list, str]:
        """Time the items with timed_call(index, run, item) -> (output, seconds),
        checking each output after its call, until the monotonic clock
        passes `deadline`.  Returns the durations (None for an item that
        raised) and the digest of the checked outputs."""
        digest = hashlib.sha256()
        durations = []
        run, check = self.workload.run, self.workload.check
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            for index, item in enumerate(items):
                if deadline is not None and time.monotonic() >= deadline:
                    break
                self.attempted += 1
                try:
                    output, seconds = timed_call(index, run, item)
                except Exception as exc:  # an item that raises is a failed item
                    self.fail(f"item {index} raised {type(exc).__name__}: {exc}")
                    durations.append(None)
                    continue
                durations.append(seconds)
                try:
                    digest.update(check(item, output))
                except self.check_failed as exc:
                    self.fail(f"item {index}: {exc}")
                digest.update(b"\0")
        finally:
            os.chdir(cwd)
        return durations, digest.hexdigest()

    def fail(self, message: str):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def expect(self, digest: str):
        expected = self.args.expect_digest
        if expected is not None and expected != digest:
            self.fail(f"digest {digest} differs from the expected {expected}")


def plain_call(index, run, item):
    t0 = time.perf_counter()
    output = run(item)
    return output, time.perf_counter() - t0


def reference_loop() -> None:
    """Fixed big-integer Fraction and dict arithmetic, about 0.3 ms, that
    uses nothing of triaut: its time follows the speed the machine gives
    this process at the moment, and no change to the library moves it."""
    total, counts = Fraction(0), {}
    for i in range(1, 120):
        total += Fraction(3 ** i % 1009, i)
        counts[i % 17] = counts.get(i % 17, 0) + i * i


class ReferencedCall:
    """A timed_call that times the reference loop just before each item."""

    def __init__(self):
        self.reference: list[float] = []

    def __call__(self, index, run, item):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.reference.append(t1 - t0)
        output = run(item)
        return output, time.perf_counter() - t1


def at_reference_speed(spent: list, reference: list[float]) -> list:
    """Each call's seconds times REFERENCE_MS over the median reference
    time around it (None stays None)."""
    scaled = []
    for i, seconds in enumerate(spent):
        if seconds is None:
            scaled.append(None)
            continue
        window = reference[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1]
        local = statistics.median(window)
        scaled.append(seconds * REFERENCE_MS / 1e3 / local)
    return scaled


def timings(durations: list[float]) -> dict:
    return {
        "items_per_s": len(durations) / sum(durations) if durations else 0.0,
        "item_p50_ms": quantile_ms(durations, 50),
        "item_p95_ms": quantile_ms(durations, 95),
    }


def quantile_ms(durations: list[float], q: int) -> float:
    if len(durations) < 2:
        return durations[0] * 1e3 if durations else float("nan")
    return statistics.quantiles(durations, n=100)[q - 1] * 1e3


def probe_setup(args) -> float:
    """Median seconds from spawning a fresh interpreter to its inputs being ready."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.items is not None:
        command += ["--items", str(args.items)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def untraced(run: Run, args) -> tuple[dict, dict]:
    """Run all items once as a warm-up, then repeat them until --seconds
    have passed (the last repeat may stop part-way), timing the reference
    loop before every item.  The metrics are taken over every timed call
    of the repeats (the warm-up's only if no repeat ran), each expressed
    at the reference speed.  The shared machine switches between faster
    and slower phases that last seconds and take a different share of
    each run; the reference loop slows with them, so the scaled timings
    do not."""
    setup_s = probe_setup(args)
    deadline = time.monotonic() + args.seconds
    call = ReferencedCall()
    items = run.items()
    count = len(items)
    warmup, digest = run.run_items(items, call)
    spent = []
    repeats = 1
    while time.monotonic() < deadline:
        items = run.items()
        repeat_spent, repeat_digest = run.run_items(items, call, deadline)
        if len(repeat_spent) == len(items) and repeat_digest != digest:
            run.fail(f"repeat {repeats} digest {repeat_digest} differs from {digest}")
        spent += repeat_spent
        repeats += 1
    run.expect(digest)
    scaled = at_reference_speed(warmup + spent, call.reference)
    durations = [d for d in (scaled[len(warmup):] or scaled) if d is not None]
    measured = [d for d in (spent or warmup) if d is not None]
    metrics = timings(durations)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {"items": count, "samples": len(durations), "repeats": repeats, "digest": digest,
            "measured": timings(measured),
            "reference_ms": statistics.median(call.reference) * 1e3}
    return metrics, info


def traced(run: Run, args, workloads) -> tuple[dict, dict]:
    """Time the items untraced, traced, then untraced again; the untraced
    time is the mean of the two passes around the traced one, so that
    warm-up and drift of the machine's speed do not count as overhead."""
    from tracer import Tracer

    def untraced_pass() -> tuple[float, str]:
        spent, digest = run.run_items(run.items(), plain_call)
        return sum(d for d in spent if d is not None), digest

    before_s, digest = untraced_pass()
    tracer = Tracer()
    items = run.items()
    tracer.install(extra_modules=[workloads])
    try:
        traced_spent, traced_digest = run.run_items(items, tracer.run_item)
    finally:
        tracer.uninstall()
    after_s, after_digest = untraced_pass()
    untraced_s = (before_s + after_s) / 2
    if not digest == traced_digest == after_digest:
        run.fail(f"digests differ: untraced {digest}, traced {traced_digest}, "
                 f"untraced again {after_digest}")
    error = tracer.accounting_error()
    if error > 1e-6 * max(tracer.item_s, 1.0):
        run.fail(f"layer self times miss the traced item time by {error:.3g} s")
    run.expect(digest)
    layers = tracer.metrics()
    layers["trace.overhead_s"] = sum(d for d in traced_spent if d is not None) - untraced_s
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    info = {"items": len(items), "samples": len(traced_spent), "repeats": 1, "digest": digest,
            "layers": layers}
    return {name: layers[name] for name in PER_LAYER}, info


def run_one(args) -> int:
    workloads = load_workloads()
    run = Run(args, workloads)
    try:
        if args.setup_probe:
            run.items()
            print(time.monotonic())
            return 0
        if args.trace:
            metrics, info = traced(run, args, workloads)
        else:
            metrics, info = untraced(run, args)
    finally:
        run.close()
    name = args.workload
    error_rate = run.failed / max(run.attempted, 1)
    for failure in run.failures:
        print(f"{name} FAILED {failure}")
    print(f"{name} items {info['items']} repeats {info['repeats']} "
          f"timed calls {info['samples']} seed {args.seed}")
    print(f"{name} digest {info['digest']}")
    for metric, value in metrics.items():
        print(f"{name} {metric} {value:.6g} {unit_of(metric)}")
    if "measured" in info:
        print(f"{name} unscaled " + " ".join(f"{metric} {value:.6g} {unit_of(metric)}"
                                             for metric, value in info["measured"].items())
              + f" reference loop median {info['reference_ms']:.4g} ms")
    print(f"{name} error_rate {error_rate:.6g} ratio")
    if "layers" in info:
        print(f"{name} layers " + json.dumps(info["layers"], sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("fuzz-big", "closure", "cli-mix"):
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.items is not None:
            command += ["--items", str(args.items)]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=args.seconds + CHILD_TIMEOUT_S)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode not in (0, 1) or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    args = parse_args()
    if args.workload == "all":
        if args.expect_digest or args.spans:
            raise SystemExit("--expect-digest and --spans need a single workload")
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
