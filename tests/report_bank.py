"""Compare the solve reports and the solution sets of two qbdshift source
trees on one bank of models.

    python tests/report_bank.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src/` directories of two checkouts,
for example of a commit and of its parent. The script

1. writes the bank of model files into a temporary directory:
   - the four benchmark workloads at seed 1, probes included
     (`qbdbench/workloads.py`);
   - 3 classes x n in {1, 2, 4, 8, 16, 32} x seeds 0-2;
   - positive and transient models at gamma 1e-3 ... 1e-8 x n in
     {4, 8, 16} x seeds 0-1;
   - the `patterned` (3-41) and `null_patterned` (0-29) models of
     `tests/test_verify.py`;
2. runs `cli.main(["solve", MODEL, "--json", REPORT, "--quiet"])` on every
   model, and then the benchmark's solution operation,
   `shift.reference_solution(triple, model.classify(triple))`, in one fresh
   interpreter per side with one BLAS thread;
3. prints the line count of each tree's Python files, then the status
   differences: in exit code and stderr, in the
   certificate names of each report (matched by name: a name on one side
   only, or shared names in another order) and in the status and context
   of each shared name; then the value differences: in report fields
   other than `timing` and in the tolerance of each shared name; then the
   number of certificate residuals that moved, the largest relative move
   and the largest move as a fraction of the certificate's tolerance, and
   then, per model, each residual that moved with its relative move.
   A field that differs is shown with each key present on one side only,
   for each matrix present on both sides its largest entry move relative
   to its largest entry, and each other single value that changed;
4. prints the differences in the solution sets: route, sweeps or the
   exception raised, and each of G, R, Ghat, Rhat that is not the same bit
   for bit, with its largest entry move relative to its largest entry.

A schema-2 report is compared in the schema-3 layout (`as_schema3`): its
direct solve was the set it wrote, so its `direct` matrices, sweeps and
residuals are matched with the `solution` block of route "direct", and
the bank prints how far each written matrix moved where the certified set
took a shift route. A schema-4 or schema-5 report is compared in the
schema-3 layout as well: each base64 matrix of its `solution` block is
decoded with the change's `cli.unpack_matrix` into the flat list schema 3
wrote, so two matrices compare equal exactly when they are equal bit for
bit, and a failed certificate's null residual becomes the infinity schema
3 wrote there. Schema 5 only dropped schema 4's `"via": "auto"`, so a
schema-4 report loses that field (any other `via` is kept, and shows as
a difference) and every other field is compared. The optional `direct`
block of a schema-3 report (the sweeps and residuals of a direct solve)
is compared where both sides write it; where only the parent's report
has it, the bank counts those reports in one line and compares the rest.
A difference that recurs on several models (a certificate context that
changed wording, say) is printed once, with the number of models and the
first of them.

It exits 0 when the two sides agree bit for bit, 1 otherwise. pytest does
not collect this file.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "qbdbench")]

import workloads  # noqa: E402

CLASSES = (workloads.POSITIVE, workloads.NULL, workloads.TRANSIENT)
GAMMAS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)

# Runs in a fresh interpreter: argv is SRC BANK_DIR REPORT_DIR; prints one
# JSON object {"solve": {model name: {"code", "stderr"}}, "solution": {model
# name: {"route", "iterations"} or {"raised"}}}, the sweeps read from the
# set or from its two routes, and writes the G, R, Ghat,
# Rhat of each solution set to REPORT_DIR/MODEL.npz. A traceback of a solve
# is recorded as the code "raised" with the exception as stderr. Every
# warning is shown, as in one process per model.
RUNNER = """
import contextlib, io, json, sys, warnings
src, bank, reports = sys.argv[1:4]
sys.path.insert(0, src)
from pathlib import Path
import numpy as np
from qbdshift import cli, model, shift
warnings.simplefilter("always")
out, solutions = {}, {}
for path in sorted(Path(bank).glob("*.json")):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(["solve", str(path), "--json",
                             str(Path(reports) / path.name), "--quiet"])
        except Exception as exc:
            code = "raised"
            print(f"{type(exc).__name__}: {exc}", file=err)
    out[path.stem] = {"code": code, "stderr": err.getvalue()}
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            triple, _ = cli.read_model(path)
            sol = shift.reference_solution(triple, model.classify(triple))
        except Exception as exc:
            solutions[path.stem] = {"raised": f"{type(exc).__name__}: {exc}"}
            continue
    np.savez(Path(reports) / f"{path.stem}.npz", G=sol.g, R=sol.r, Ghat=sol.ghat,
             Rhat=sol.rhat)
    # a set of one route per side keeps the sweeps on its routes
    iterations = (sol.iterations if hasattr(sol, "iterations")
                  else {"G": sol.fwd.cr.iterations, "Ghat": sol.rev.cr.iterations})
    solutions[path.stem] = {"route": sol.route, "iterations": iterations}
print(json.dumps({"solve": out, "solution": solutions}))
"""

MATRICES = ("G", "R", "Ghat", "Rhat")


def bank_instances():
    """Every model of the bank as a workloads.Instance."""
    out = [inst for name in workloads.WORKLOADS for inst in workloads.instances(name, 1)]
    out += [workloads.Instance(f"{kind}-n{n}-seed{seed}", kind,
                               workloads.gen_blocks(kind, n, seed))
            for kind in CLASSES for n in (1, 2, 4, 8, 16, 32) for seed in range(3)]
    out += [workloads.Instance(f"{kind}-n{n}-seed{seed}-gamma{gamma:g}", kind,
                               workloads.gen_blocks(kind, n, seed, gamma))
            for kind in (workloads.POSITIVE, workloads.TRANSIENT) for gamma in GAMMAS
            for n in (4, 8, 16) for seed in range(2)]
    from test_verify import TestPatternedInstances as patterned

    for family, seeds in (("patterned", range(3, 42)), ("null_patterned", range(30))):
        for seed in seeds:
            m = getattr(patterned, family)(seed)
            out.append(workloads.Instance(f"{family}-{seed}", "", (m.a_minus, m.a_zero, m.a_plus)))
    return out


def src_lines(src):
    """The number of lines of the Python files under `src`."""
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))


def run_side(src, bank, reports):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH="")
    done = subprocess.run([sys.executable, "-c", RUNNER, str(src), str(bank), str(reports)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def canonical(value):
    """Exact text of a JSON value: float repr, NaN and infinities included."""
    return json.dumps(value, sort_keys=True)


def is_matrix(value):
    """A flat list of numbers, as the report writes matrices."""
    return (isinstance(value, list) and bool(value)
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value))


def field_changes(old, new, path):
    """Describe how one differing report field moved: the keys present on
    one side only, for each matrix on both sides the largest entry move
    over the largest entry modulus (0 when both are zero), and each other
    single value that changed."""
    out = []
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) ^ set(new)):
            out.append(f"{path}.{key} only in {'parent' if key in old else 'change'}")
        for key in sorted(set(old) & set(new)):
            out += field_changes(old[key], new[key], f"{path}.{key}")
    elif is_matrix(old) and is_matrix(new) and len(old) == len(new):
        scale = max(max(abs(x) for x in old), max(abs(x) for x in new))
        worst = max(abs(a - b) for a, b in zip(old, new))
        out.append(f"{path} moved {worst / scale if scale else 0.0:.3g}")
    elif not isinstance(old, (dict, list)) and not isinstance(new, (dict, list)):
        if canonical(old) != canonical(new):
            out.append(f"{path} {canonical(old)} -> {canonical(new)}")
    return out


NULL_W_REASON = "W series diverges at null recurrence"


def as_schema3(report):
    """`report` in the schema-3 layout. A schema-2 report wrote the direct
    solve's G, R, Ghat, Rhat and W under `direct`: they become the
    `solution` of route "direct", and `direct` keeps its sweeps and
    residuals. A schema-4 or schema-5 report's packed matrices become flat
    lists, and the null residual of a failed certificate infinity; a
    schema-4 report also loses its `"via": "auto"`, which schema 5 dropped.
    Other reports are returned as they are."""
    if report.get("schema") in (4, 5):
        from qbdshift.cli import unpack_matrix

        if report["schema"] == 4 and report.get("via") == "auto":
            del report["via"]
        solution = report["solution"]
        for key in (*MATRICES, "W"):
            if solution[key] is not None:
                solution[key] = unpack_matrix(solution[key]).reshape(-1).tolist()
        for cert in report["certificates"]:
            if cert["status"] == "fail" and cert["residual"] is None:
                cert["residual"] = float("inf")
        report["schema"] = 3
        return report
    if report.get("schema") != 2:
        return report
    direct = report.pop("direct")
    report["schema"] = 3
    report["solution"] = {"route": "direct", **direct,
                          "W_reason": NULL_W_REASON if direct["W"] is None else None}
    report["direct"] = {key: direct[key] for key in ("iterations", "residuals")}
    return report


def compare_reports(name, old, new, statuses, values):
    """Append certificate name, order, status and context differences to
    `statuses`, field and tolerance differences to `values`; return the
    residual moves
    as (relative move, move over tolerance, model, certificate name), the
    second None without a positive finite tolerance."""
    moves = []
    old_certs, new_certs = old.pop("certificates", []), new.pop("certificates", [])
    for key in sorted((set(old) | set(new)) - {"timing"}):
        if canonical(old.get(key)) != canonical(new.get(key)):
            changes = field_changes(old.get(key), new.get(key), key)
            values.append(f"{name}: field {key!r} differs"
                         + "".join(f"; {c}" for c in changes))
    old_by_name = {c["name"]: c for c in old_certs}
    new_by_name = {c["name"]: c for c in new_certs}
    for cert in old_certs + new_certs:
        if (cert["name"] in old_by_name) != (cert["name"] in new_by_name):
            side = "parent" if cert["name"] in old_by_name else "change"
            statuses.append(f"{name}: {cert['name']} ({cert['status']}) only in {side}")
    shared = [n for n in old_by_name if n in new_by_name]
    if shared != [n for n in new_by_name if n in old_by_name]:
        statuses.append(f"{name}: certificates shared by both sides come in another order")
    for a, b in ((old_by_name[n], new_by_name[n]) for n in shared):
        for key in ("name", "status", "tolerance", "context"):
            if canonical(a[key]) != canonical(b[key]):
                (values if key == "tolerance" else statuses).append(
                    f"{name}: {a['name']} {key} {a[key]!r} -> {b[key]!r}")
        ra, rb, tol = a["residual"], b["residual"], a["tolerance"]
        if canonical(ra) != canonical(rb):
            if ra is None or rb is None:
                moves.append((float("inf"), None, name, a["name"]))
            else:
                scale = max(abs(ra), abs(rb))
                of_tol = (abs(ra - rb) / tol
                          if isinstance(tol, float) and 0.0 < tol < float("inf") else None)
                moves.append((abs(ra - rb) / scale if scale else 0.0, of_tol,
                              name, a["name"]))
    return moves


def compare_solutions(name, old, new, old_dir, new_dir):
    """The differences of one model's solution sets: route, sweeps or the
    exception raised, and each matrix that is not the same bit for bit."""
    if canonical(old) != canonical(new):
        return [f"{name}: solution {canonical(old)} -> {canonical(new)}"]
    if "raised" in old:
        return []
    diffs = []
    with np.load(old_dir / f"{name}.npz") as a, np.load(new_dir / f"{name}.npz") as b:
        for key in MATRICES:
            x, y = a[key], b[key]
            if x.shape != y.shape:
                diffs.append(f"{name}: solution {key} shape {x.shape} -> {y.shape}")
            elif x.tobytes() != y.tobytes():
                scale = max(np.max(np.abs(x)), np.max(np.abs(y)))
                worst = np.max(np.abs(x - y))
                diffs.append(f"{name}: solution {key} moved "
                             f"{worst / scale if scale else 0.0:.3g}")
    return diffs


def grouped(diffs):
    """The lines "MODEL: TEXT" of `diffs`, each TEXT once, in order of
    first appearance; a TEXT of several models is given with their number
    and the first of them."""
    models = {}
    for line in diffs:
        name, _, text = line.partition(": ")
        models.setdefault(text, []).append(name)
    return [f"{names[0]}: {text}" if len(names) == 1
            else f"{text} (on {len(names)} models, first {names[0]})"
            for text, names in models.items()]


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    sides = [Path(p).resolve() for p in argv]
    for src in sides:
        if not (src / "qbdshift" / "__init__.py").is_file():
            sys.exit(f"no qbdshift package under {src}")
    sys.path[:0] = [str(HERE), str(sides[1])]
    with tempfile.TemporaryDirectory() as tmp:
        bank = Path(tmp) / "bank"
        bank.mkdir()
        instances = bank_instances()
        for inst in instances:
            workloads.write_model(bank / f"{inst.name}.json", inst)
        outcomes = []
        for label, src in zip(("parent", "change"), sides):
            reports = Path(tmp) / label
            reports.mkdir()
            outcomes.append((reports, run_side(src, bank, reports)))
        (old_dir, old_side), (new_dir, new_side) = outcomes
        old, new = old_side["solve"], new_side["solve"]
        solution_diffs = [
            line for name in sorted(old_side["solution"])
            for line in compare_solutions(name, old_side["solution"][name],
                                          new_side["solution"][name], old_dir, new_dir)]
        statuses, values, moves = [], [], []
        certificates = dropped_direct = 0
        for name in sorted(old):
            if old[name] != new[name]:
                statuses.append(f"{name}: exit {old[name]['code']} {old[name]['stderr']!r} "
                             f"-> {new[name]['code']} {new[name]['stderr']!r}")
            paths = [d / f"{name}.json" for d in (old_dir, new_dir)]
            if paths[0].is_file() != paths[1].is_file():
                statuses.append(f"{name}: a report is written on one side only")
            elif paths[0].is_file():
                a, b = (as_schema3(json.loads(p.read_text(encoding="utf-8")))
                        for p in paths)
                if "direct" in a and "direct" not in b:
                    del a["direct"]
                    dropped_direct += 1
                certificates += len(a.get("certificates", []))
                moves += compare_reports(name, a, b, statuses, values)
    codes = {}
    for outcome in old.values():
        codes[outcome["code"]] = codes.get(outcome["code"], 0) + 1
    lines = [src_lines(src) for src in sides]
    print(f"src/ lines: parent {lines[0]}, change {lines[1]} ({lines[1] - lines[0]:+d})")
    print(f"{len(instances)} models; parent exit codes "
          + ", ".join(f"{k}: {v}" for k, v in sorted(codes.items(), key=str)))
    if dropped_direct:
        print(f"{dropped_direct} parent reports have a `direct` block the change does "
              "not write (not compared)")
    print(f"{len(statuses)} status differences in exit code, stderr or certificate "
          "name, status or context")
    for line in grouped(statuses):
        print("  " + line)
    print(f"{len(values)} value differences in report fields or certificate tolerances")
    for line in grouped(values):
        print("  " + line)
    print(f"{len(moves)} of {certificates} certificate residuals moved", end="")
    if moves:
        worst = max(moves, key=lambda m: m[0])
        print(f"; largest relative move {worst[0]:.3g} ({worst[3]} on {worst[2]})", end="")
        scaled = [m for m in moves if m[1] is not None]
        if scaled:
            worst = max(scaled, key=lambda m: m[1])
            print(f"; largest move over tolerance {worst[1]:.3g} "
                  f"({worst[3]} on {worst[2]})", end="")
    print()
    by_model = {}
    for move in moves:
        by_model.setdefault(move[2], []).append(f"{move[3]} {move[0]:.3g}")
    for name, moved in by_model.items():
        print(f"  {name}: {', '.join(moved)}")
    raised = sum("raised" in s for s in old_side["solution"].values())
    print(f"{len(solution_diffs)} differences in the solution sets of "
          f"shift.reference_solution (parent raised on {raised} models)")
    for line in solution_diffs:
        print("  " + line)
    return 1 if statuses or values or moves or solution_diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
