"""Benchmark of certified QBD solves, end to end and per layer.

    python3 qbdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
The run writes the workload's seeded model files, measures set-up time in
child processes, then repeats whole rounds of the workload's operations
for about S seconds:

- certified solve: `cli.main(["solve", MODEL, "--json", REPORT, "--quiet"])`
  in this process;
- solution: `shift.reference_solution(triple, model.classify(triple))`.

Every output is checked with the benchmark's own numpy code (checks.py).
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

import os

# One BLAS thread for the measured process and its set-up children: with
# the default two threads the timings on a two-core machine are slower and
# much noisier (see README.md). Must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MODULES = ("cli", "model", "matpoly", "kernel", "solvers", "shift", "verify")
# Set-up is measured this many times before the timed rounds and as many
# after them, so that the median spans the run.
SETUP_REPEATS = 3

# Per-layer metrics, per certified solve: `<module>.<function>.self_s`
# (span minus child spans) and `.calls`, `.total_s` (whole span) for the
# functions in TOTALS, and `.raised` for those in RAISES. `.raised` counts
# the exceptions raised through the function per round, failed operations
# included, so it shows where a failing operation fails. The same under
# `solution.` per solution. A function a workload never calls reads 0.
SOLVE_LAYERS = (
    "cli.main", "cli.read_model", "cli.solve_report",
    "model.validate", "model.classify", "model.perron_data",
    "model.complete_perron_data",
    "matpoly.roots", "matpoly.multiset_distance", "matpoly.factorization_residual",
    "kernel.stein_solve", "kernel.solve_linear", "kernel.scc_partition",
    "kernel.perron_pair", "kernel.dominant_pair", "kernel.spectral_radius",
    "solvers.solve_all", "solvers.cyclic_reduction", "solvers.solve_min_g",
    "solvers.derive_r_k", "solvers.compute_w",
    "shift.build_transform", "shift.solve_via", "shift.reference_solution",
    "shift.shifted_hats_nonnull", "shift.shifted_hats_nullrec",
    "verify.check_identity_suite",
)
SOLUTION_LAYERS = (
    "model.classify", "model.perron_data", "matpoly.roots",
    "kernel.stein_solve", "kernel.solve_linear", "kernel.perron_pair",
    "kernel.spectral_radius",
    "solvers.solve_all", "solvers.cyclic_reduction", "solvers.solve_min_g",
    "solvers.derive_r_k", "solvers.compute_w",
    "shift.build_transform", "shift.solve_via", "shift.reference_solution",
)
TOTALS = (
    "cli.read_model", "kernel.stein_solve", "solvers.compute_w", "solvers.solve_all",
    "solvers.cyclic_reduction", "shift.solve_via", "shift.reference_solution",
    "verify.check_identity_suite",
)
RAISES = (
    "cli.read_model", "model.classify", "kernel.stein_solve", "kernel.solve_linear",
    "solvers.solve_min_g", "solvers.compute_w",
    "shift.shifted_hats_nonnull", "shift.shifted_hats_nullrec",
)

END_TO_END_UNITS = {
    "setup_s": "s", "solve_s": "s", "solution_s": "s", "peak_rss_mb": "MB",
    "residual_digits": "digits", "stochastic_digits": "digits",
    "certs_passed": "count",
}


def layer_metric_names():
    """Every per-layer metric name with its unit, in output order."""
    out = [("traced.solve_s", "s"), ("traced.solution_s", "s")]
    for prefix, names in (("", SOLVE_LAYERS), ("solution.", SOLUTION_LAYERS)):
        for name in names:
            out.append((f"{prefix}{name}.self_s", "s"))
            out.append((f"{prefix}{name}.calls", "count"))
            if name in TOTALS:
                out.append((f"{prefix}{name}.total_s", "s"))
            if name in RAISES:
                out.append((f"{prefix}{name}.raised", "count"))
        out.append((f"{prefix}solvers.cr_sweeps", "count"))
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="a non-negative integer")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def import_program():
    """The qbdshift modules, imported from this checkout's src/."""
    if not (SRC / "qbdshift" / "__init__.py").is_file():
        raise SystemExit(f"no qbdshift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"qbdshift.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve().parent.parent
    if origin != SRC:
        raise SystemExit(f"qbdshift imported from {origin}, not from {SRC}")
    return mods


def measure_setup(paths, repeats, discard_first=False):
    """Seconds from starting a fresh interpreter to having imported
    qbdshift and read every model file, once per repeat. With
    `discard_first`, one more start runs first and is not counted: it
    compiles bytecode and pulls the libraries into the page cache, which a
    user pays once, not on every run."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *map(str, paths)]
    times = []
    for _ in range(repeats + discard_first):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"set-up probe failed (exit {proc.returncode})")
        times.append(ready - start)
    return times[discard_first:]


def digits(worst):
    """-log10 of a relative error, floored at half an ulp of 1."""
    return -math.log10(max(worst, 2.0 ** -53))


class Bench:
    def __init__(self, args, mods):
        self.args = args
        self.mods = mods
        self.tracer = spans.Tracer() if args.trace else None
        self.ops = []  # one dict per attempted operation
        self.errors = []  # correctness failures of operations that succeeded
        self.worst_res = 0.0
        self.worst_defect = 0.0
        self.certs = {}  # model name -> certificates passed
        self.checked = {}  # model name -> last solution that was checked
        self.self_check_done = False
        self.rounds = 0

    def timed(self, op, fn):
        """Run fn() as operation `op`; record its time and any exception."""
        op["id"] = len(self.ops)
        self.ops.append(op)
        ctx = (self.tracer.op(op["id"], f"op.{op['op']}") if self.tracer
               else contextlib.nullcontext())
        start = time.perf_counter()
        out = None
        try:
            with ctx:
                out = fn()
            op["ok"] = True
        except Exception as exc:  # a failed operation is counted, not fatal
            op["ok"] = False
            op["error"] = f"{type(exc).__name__}: {exc}"
        op["seconds"] = time.perf_counter() - start
        return out

    def certified_solve(self, inst, path, report_path):
        cli = self.mods["cli"]
        op = {"op": "solve", "model": inst.name, "probe": inst.probe}
        argv = ["solve", str(path), "--json", str(report_path), "--quiet"]
        code = self.timed(op, lambda: cli.main(argv))
        if op["ok"] and code != 0:
            op["ok"] = False
            op["error"] = f"exit {code}"
        if not op["ok"]:
            return
        report = json.loads(Path(report_path).read_text(encoding="utf-8"))
        if not inst.probe:
            self.certs[inst.name] = report["certificate_summary"]["pass"]
        for err in checks.check_report(inst.blocks, inst.kind, report):
            self.errors.append(f"solve {inst.name}: {err}")

    def solution(self, inst, triple):
        model, shift = self.mods["model"], self.mods["shift"]
        op = {"op": "solution", "model": inst.name, "probe": False}
        sol = self.timed(op, lambda: shift.reference_solution(triple, model.classify(triple)))
        if not op["ok"]:
            return
        # the program is deterministic: an output equal to one already
        # checked needs no second check
        mats = (sol.g, sol.r, sol.ghat, sol.rhat)
        seen = self.checked.get(inst.name)
        if seen is not None and all(np.array_equal(a, b) for a, b in zip(seen, mats)):
            return
        self.checked[inst.name] = mats
        errs, res, defect = checks.check_solution(inst.blocks, inst.kind, sol)
        self.errors.extend(f"solution {inst.name}: {e}" for e in errs)
        self.worst_res = max(self.worst_res, res)
        if defect is not None:
            self.worst_defect = max(self.worst_defect, defect)
        if not self.self_check_done:
            if not checks.corrupted_g_rejected(inst.blocks, inst.kind, sol):
                raise SystemExit("self-check failed: a corrupted G passed the checks")
            self.self_check_done = True

    def warm_up(self, work):
        """One untimed certified solve and solution on a small model, so
        lazy library set-up is not charged to the first measured op."""
        inst = workloads.Instance(
            "warm-up", workloads.POSITIVE, workloads.gen_blocks(workloads.POSITIVE, 4, 0)
        )
        path = work / "warm-up.json"
        workloads.write_model(path, inst)
        cli = self.mods["cli"]
        code = cli.main(["solve", str(path), "--json", str(work / "warm-up.report.json"),
                         "--quiet"])
        triple, _ = cli.read_model(path)
        self.mods["shift"].reference_solution(triple, self.mods["model"].classify(triple))
        if code != 0:
            raise SystemExit(f"warm-up solve exited {code}")

    def run(self):
        args, cli = self.args, self.mods["cli"]
        insts = workloads.instances(args.workload, args.seed)
        work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        work.mkdir(parents=True, exist_ok=True)
        paths = [work / f"{inst.name}.json" for inst in insts]
        for inst, path in zip(insts, paths):
            workloads.write_model(path, inst)
        setup = [] if args.trace else measure_setup(paths, SETUP_REPEATS, True)
        triples = {inst.name: cli.read_model(path)[0]
                   for inst, path in zip(insts, paths) if inst.solutions}
        self.warm_up(work)
        if self.tracer:
            self.tracer.install(self.mods)
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for inst, path in zip(insts, paths):
                self.certified_solve(inst, path, work / f"{inst.name}.report.json")
                for _ in range(inst.solutions):
                    self.solution(inst, triples[inst.name])
            self.rounds += 1
            now = time.perf_counter()
            # stop once another round would overrun by more than half a round
            if now - start >= args.seconds - (now - round_start) / 2:
                break
        if not self.tracer:
            setup += measure_setup(paths, SETUP_REPEATS)
        return setup

    def ok_ops(self, kind):
        return [op for op in self.ops if op["op"] == kind and op["ok"] and not op["probe"]]

    def end_to_end(self, setup):
        solve_s = statistics.median(op["seconds"] for op in self.ok_ops("solve"))
        solution_s = statistics.median(op["seconds"] for op in self.ok_ops("solution"))
        return {
            "setup_s": statistics.median(setup),
            "solve_s": solve_s,
            "solution_s": solution_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "residual_digits": digits(self.worst_res),
            "stochastic_digits": digits(self.worst_defect),
            "certs_passed": sum(self.certs.values()),
        }

    def per_layer(self):
        values = {}
        for prefix, kind in (("", "solve"), ("solution.", "solution")):
            ok = self.ok_ops(kind)
            summary = self.tracer.summary(op["id"] for op in ok)
            values[f"traced.{kind}_s"] = statistics.median(op["seconds"] for op in ok)
            sweeps = summary.get(spans.CR, {}).get("sweeps", 0)
            values[f"{prefix}solvers.cr_sweeps"] = sweeps / len(ok)
            for name, agg in summary.items():
                for field in ("self_s", "total_s", "calls"):
                    values[f"{prefix}{name}.{field}"] = agg[field] / len(ok)
            every = self.tracer.summary(op["id"] for op in self.ops if op["op"] == kind)
            for name, agg in every.items():
                values[f"{prefix}{name}.raised"] = agg["raised"] / self.rounds
        return {name: (values.get(name, 0.0), unit) for name, unit in layer_metric_names()}

    def dump_trace(self):
        path = OUT / f"trace-{self.args.workload}-seed{self.args.seed}.json"
        self.tracer.dump(path, self.ops)
        ok = self.ok_ops("solve")
        summary = self.tracer.summary(op["id"] for op in ok)
        top = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:8]
        print(f"trace: {path.relative_to(ROOT)}; largest self time per certified solve:",
              file=sys.stderr)
        for name, agg in top:
            print(f"  {name:40s} {agg['self_s'] / len(ok):9.4f} s "
                  f"{agg['calls'] / len(ok):8.1f} calls", file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    mods = import_program()
    bench = Bench(args, mods)
    setup = bench.run()
    for op in bench.ops:
        if not op["ok"]:
            tag = "probe" if op["probe"] else "UNEXPECTED"
            print(f"failed ({tag}): {op['op']} {op['model']}: {op['error']}",
                  file=sys.stderr)
    for err in bench.errors:
        print(f"INCORRECT: {err}", file=sys.stderr)
    failed = sum(not op["ok"] for op in bench.ops)
    print(f"{args.workload} seed {args.seed}: {bench.rounds} round(s), "
          f"{len(bench.ops)} operations, {failed} failed", file=sys.stderr)
    if args.trace:
        bench.dump_trace()
        metrics = bench.per_layer()
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in bench.end_to_end(setup).items()}
    result = {
        "correct": not bench.errors,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
