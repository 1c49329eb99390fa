#!/usr/bin/env python3
"""Rebuild catalogue.json: every catalogue entry of `fuzz-big` and `closure`,
sorted by its measured cost.

    python3 bench/catalogue.py [fuzz-big|closure ...]

The runs use this order only to cut the catalogue into strata of similar
cost (see workloads.py).  A stale order, after the library got faster in
some places than in others, still gives unbiased draws; it only widens
the run-to-run spread.  Rebuilding it changes every run's inputs, so it
belongs in a change of its own, with the baseline measured again.
Each cost is the fastest of PASSES timings, in milliseconds; fuzz-big
words are timed with their pool's inverses already computed.
"""

from __future__ import annotations

import json
import sys
import time

from run import load_workloads

PASSES = 7


def entries(cls):
    if cls.name == "fuzz-big":
        from triaut import invert
        pools = cls.build_pools()
        inverses = [[invert(g) for g in pool] for pool in pools]
        for i in range(cls.catalogue_size()):
            p, letters = cls.entry(i)
            yield pools[p], inverses[p], letters
    else:
        for i in range(cls.catalogue_size()):
            yield cls.entry(i)


def costs(cls) -> list[float]:
    """Each entry's fastest timing over PASSES passes through the whole
    catalogue: the machine's slow phases last seconds, so timings of one
    entry taken back to back share a phase, and taken a pass apart do not."""
    items = list(entries(cls))
    best = [float("inf")] * len(items)
    for _ in range(PASSES):
        for i, item in enumerate(items):
            t0 = time.perf_counter()
            cls.run(item)
            best[i] = min(best[i], time.perf_counter() - t0)
    return [b * 1e3 for b in best]


def main(names) -> None:
    workloads = load_workloads()
    try:
        with open(workloads.CATALOGUE_FILE, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        table = {}
    for name in names:
        cost = costs(workloads.WORKLOADS[name])
        order = sorted(range(len(cost)), key=lambda i: (cost[i], i))
        table[name] = {"order": order, "cost_ms": [round(cost[i], 3) for i in order]}
        print(f"{name}: {len(order)} entries, {sum(cost) / 1e3:.1f} s in total", file=sys.stderr)
    with open(workloads.CATALOGUE_FILE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:] or ["fuzz-big", "closure"])
