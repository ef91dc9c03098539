"""Checks of the benchmark itself; run once after changing it.

    python3 qbdbench/selfcheck.py

- The benchmark's generator makes exactly the blocks `qbdshift gen`
  makes, for the parameters the workloads use.
- BENCHMARK.json lists exactly the workloads and metrics run.py knows.

(Every run checks that its correctness checks reject a corrupted G.)

Exits 0 and prints "selfcheck ok" when all hold.
"""

import json
import sys

import numpy as np

import run
import workloads

CASES = [
    (kind, n, seed, gamma)
    for kind in (workloads.POSITIVE, workloads.NULL, workloads.TRANSIENT)
    for n, seed, gamma in ((4, 0, 0.5), (16, 4004, 0.5), (64, 7, 0.5), (96, 2, 5e-4),
                           (128, 5, 0.5), (8, 3, 1e-8))
]


def main():
    cli = run.import_program()["cli"]
    for kind, n, seed, gamma in CASES:
        ours = workloads.gen_blocks(kind, n, seed, gamma)
        triple, _ = cli.generate(kind, n, seed, gamma=gamma)
        theirs = (triple.a_minus, triple.a_zero, triple.a_plus)
        if not all(np.array_equal(a, b) for a, b in zip(ours, theirs)):
            sys.exit(f"generator differs from qbdshift gen: {kind} n={n} seed={seed}")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if sorted(listed) != sorted(run.END_TO_END_UNITS.items()):
        sys.exit("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if listed != run.layer_metric_names():
        sys.exit("BENCHMARK.json per_layer differs from run.layer_metric_names()")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        sys.exit("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    print("selfcheck ok")


if __name__ == "__main__":
    main()
