"""Time two qbdshift source trees on one benchmark workload, alternating.

    python tests/interleave_bench.py PARENT_SRC CHANGE_SRC WORKLOAD [ROUNDS [SEED]]

PARENT_SRC and CHANGE_SRC are the `src/` directories of two checkouts.
WORKLOAD is a workload of `qbdbench/workloads.py`, drawn at SEED. ROUNDS
defaults to 10 and SEED to 1; a before-and-after timing can take seeds
that were not used while the change was built.

The script starts one worker process per tree, each with one BLAS thread
and its own copy of the workload's model files. Each worker runs one
untimed round, then the two take turns: one round in one worker, then one
in the other, the parent first in even rounds and the change first in odd
ones. A round is a benchmark round plus reads: per model one read
(`cli.read_model(MODEL)`: parsing and `model.validate`, the work the
benchmark's `setup_s` does per model file), one certified solve
(`cli.main(["solve", MODEL, "--json", REPORT, "--quiet"])`) and its
solution operations (`shift.reference_solution(triple,
model.classify(triple))`). Reads are timed on every model; probes are
solved but their solves are not timed, and no operation that fails is
timed; failures are counted. The worker wraps `solvers.cyclic_reduction`
and records the sweeps (`CrOutcome.iterations`) each timed solve and
solution makes.

Timings of one process drift with the machine's load; alternating rounds
puts the two trees under the same drift, so their difference shows where
back-to-back runs of `qbdbench/run.py` would not. The script prints, per
operation, the median seconds of each side over every round, the
relative change, in how many rounds the change's median was the lower,
and the mean cyclic-reduction sweeps per operation of each side; then,
per operation and side, the sum over models of each model's fastest time
in the run, which load spikes leave alone; then the failed operations
per round of each side. pytest does not collect this file.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "qbdbench"))

import workloads  # noqa: E402

OPS = ("read", "solve", "solution")


def worker(src, workload, seed, work):
    """Serve rounds on stdin: each line "round" runs one and answers with
    one JSON line {op: [[model, seconds, sweeps], ...], "failed": count};
    end of input stops."""
    sys.path.insert(0, src)
    from qbdshift import cli, model, shift, solvers

    sweeps = [0]
    reduce = solvers.cyclic_reduction

    def counted(*args, **kwargs):
        out = reduce(*args, **kwargs)
        sweeps[0] += out.iterations
        return out

    solvers.cyclic_reduction = counted

    insts = workloads.instances(workload, int(seed))
    paths = [Path(work) / f"{inst.name}.json" for inst in insts]
    for inst, path in zip(insts, paths):
        workloads.write_model(path, inst)
    triples = {inst.name: cli.read_model(path)[0]
               for inst, path in zip(insts, paths) if inst.solutions}

    def one_round():
        times = {op: [] for op in OPS}
        times["failed"] = 0
        for inst, path in zip(insts, paths):
            start = time.perf_counter()
            try:
                cli.read_model(path)
            except Exception:  # a failed operation is counted, not timed
                times["failed"] += 1
            else:
                times["read"].append((inst.name, time.perf_counter() - start, 0))
            report = str(path.with_suffix(".report.json"))
            sweeps[0] = 0
            start = time.perf_counter()
            try:
                code = cli.main(["solve", str(path), "--json", report, "--quiet"])
            except Exception:  # a failed operation is counted, not timed
                code = None
            elapsed = time.perf_counter() - start
            times["failed"] += code != 0
            if code == 0 and not inst.probe:
                times["solve"].append((inst.name, elapsed, sweeps[0]))
            for _ in range(inst.solutions):
                triple = triples[inst.name]
                sweeps[0] = 0
                start = time.perf_counter()
                try:
                    shift.reference_solution(triple, model.classify(triple))
                except Exception:  # a failed operation is counted, not timed
                    times["failed"] += 1
                    continue
                times["solution"].append((inst.name, time.perf_counter() - start,
                                          sweeps[0]))
        return times

    one_round()
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() == "round":
            print(json.dumps(one_round()), flush=True)


def start_worker(src, workload, seed, work):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH="")
    proc = subprocess.Popen(
        [sys.executable, __file__, "--worker", str(src), workload, str(seed), str(work)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
    if proc.stdout.readline().strip() != "ready":
        raise SystemExit(f"worker for {src} failed to start")
    return proc


def run_round(proc):
    proc.stdin.write("round\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise SystemExit("a worker exited early")
    return json.loads(line)


def main(argv):
    if len(argv) not in (3, 4, 5):
        sys.exit(__doc__)
    sides = [Path(p).resolve() for p in argv[:2]]
    workload = argv[2]
    rounds = int(argv[3]) if len(argv) > 3 else 10
    seed = int(argv[4]) if len(argv) > 4 else 1
    for src in sides:
        if not (src / "qbdshift" / "__init__.py").is_file():
            sys.exit(f"no qbdshift package under {src}")
    if workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {workload!r}; one of {sorted(workloads.WORKLOADS)}")
    times = [{op: [] for op in OPS} for _ in sides]
    failed = [0, 0]
    round_medians = [{op: [] for op in OPS} for _ in sides]
    fastest = [{op: {} for op in OPS} for _ in sides]
    sweeps = [{op: [] for op in OPS} for _ in sides]
    with tempfile.TemporaryDirectory() as tmp:
        procs = []
        for label, src in zip(("parent", "change"), sides):
            (Path(tmp) / label).mkdir()
            procs.append(start_worker(src, workload, seed, Path(tmp) / label))
        try:
            for i in range(rounds):
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    got = run_round(procs[side])
                    failed[side] += got["failed"]
                    for op in OPS:
                        seconds = [t for _, t, _ in got[op]]
                        times[side][op] += seconds
                        sweeps[side][op] += [k for _, _, k in got[op]]
                        if seconds:
                            round_medians[side][op].append(statistics.median(seconds))
                        for name, t, _ in got[op]:
                            best = fastest[side][op]
                            best[name] = min(t, best.get(name, t))
        finally:
            for proc in procs:
                proc.stdin.close()
                proc.wait()
    print(f"{workload} seed {seed}: {rounds} alternating rounds per side")
    print(f"{'op':10s} {'parent':>12s} {'change':>12s} {'change':>9s}  change lower"
          f"  CR sweeps per op")
    for op in OPS:
        if not times[0][op] or not times[1][op]:
            print(f"{op:10s} no timed operations on one side")
            continue
        old, new = (statistics.median(t[op]) for t in times)
        wins = sum(b < a for a, b in zip(round_medians[0][op], round_medians[1][op]))
        rounds_run = min(len(round_medians[0][op]), len(round_medians[1][op]))
        old_k, new_k = (statistics.mean(k[op]) for k in sweeps)
        print(f"{op:10s} {old * 1e3:9.3f} ms {new * 1e3:9.3f} ms {new / old - 1.0:+8.1%}  "
              f"{wins} of {rounds_run} rounds  {old_k:g} -> {new_k:g}")
    print("sum over models of each model's fastest time:")
    for op in OPS:
        old, new = (sum(f[op].values()) for f in fastest)
        if old and new:
            print(f"{op:10s} {old * 1e3:9.3f} ms {new * 1e3:9.3f} ms {new / old - 1.0:+8.1%}")
    print(f"failed per round: parent {failed[0] / rounds:g}, change {failed[1] / rounds:g}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:6])
    else:
        sys.exit(main(sys.argv[1:]))
