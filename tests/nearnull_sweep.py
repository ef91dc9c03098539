"""Sweep the near-null band: exit codes and n/a certificates per gamma.

    python tests/nearnull_sweep.py [SRC]

SRC is the `src/` directory of the qbdshift tree to run (default: this
checkout's). The sweep generates positive and transient models
(`qbdshift gen KIND -n N --seed S --gamma GAMMA`) at gamma 1e-2 ... 1e-14,
n in {2, 8, 32} and seeds 0-2, 234 models, solves each with `qbdshift
solve --json`, and prints one line per gamma: the exit codes with their
counts, the mean number of n/a certificates per written report, and the
n/a count split by the guard each certificate's context names (GUARDS,
then "other"). The root gap shrinks with gamma; below `NULL_DRIFT_TOL`
the models are solved as null recurrent. pytest does not collect this
file.
"""

import collections
import json
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
GAMMAS = tuple(10.0 ** -k for k in range(2, 15))
KINDS = ("positive", "transient")
SIZES = (2, 8, 32)
SEEDS = (0, 1, 2)
# guard: the text an n/a context carries when that guard set it
GUARDS = {"amplification": "amplification", "admissibility margin": "inadmissible",
          "null recurrence": "null recurren"}


def guard_of(context):
    return next((guard for guard, text in GUARDS.items() if text in context), "other")


def main():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC.resolve()))
    from qbdshift import cli

    print(f"qbdshift from {SRC}")
    with tempfile.TemporaryDirectory() as tmp:
        model, report = Path(tmp) / "model.json", Path(tmp) / "report.json"
        for gamma in GAMMAS:
            codes = collections.Counter()
            guards = collections.Counter(dict.fromkeys([*GUARDS, "other"], 0))
            na = []
            for kind in KINDS:
                for n in SIZES:
                    for seed in SEEDS:
                        gen = ["gen", kind, "-n", str(n), "--seed", str(seed),
                               "--gamma", repr(gamma), "--out", str(model)]
                        if cli.main(gen) != 0:
                            raise SystemExit(f"gen failed: {' '.join(gen)}")
                        report.unlink(missing_ok=True)
                        codes[cli.main(["solve", str(model), "--json", str(report),
                                        "--quiet"])] += 1
                        if report.exists():
                            certs = json.loads(report.read_text())["certificates"]
                            contexts = [c["context"] for c in certs if c["status"] == "n/a"]
                            guards.update(map(guard_of, contexts))
                            na.append(len(contexts))
            mean = f"{sum(na) / len(na):.2f}" if na else "-"
            exits = ", ".join(f"{code}: {count}" for code, count in sorted(codes.items()))
            split = ", ".join(f"{guard}: {count}" for guard, count in guards.items())
            print(f"gamma {gamma:.0e}: exit {{{exits}}}, mean n/a per report {mean} "
                  f"({len(na)} reports), n/a by guard {{{split}}}")


if __name__ == "__main__":
    main()
