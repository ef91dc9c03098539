"""Command-line surface: model file I/O, seeded instance generation,
end-to-end solve pipelines with certificates, and benchmarking.

Model files are UTF-8 JSON with fields {"n", "a_minus", "a_zero",
"a_plus", "meta"?}, matrices flattened row-major. Reports are JSON
documents carrying "schema": 1; every number is reproducible from the
model file and the flags (the "timing" field excepted).

Exit codes: 0 ok, 2 parse error, 3 validation error, 4 solver failure,
5 certificate failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from . import kernel, model as model_mod, shift as shift_mod, solvers, verify

__all__ = [
    "EXIT_CERTIFICATE",
    "EXIT_PARSE",
    "EXIT_SOLVER",
    "EXIT_VALIDATION",
    "ParseError",
    "bench_rows",
    "generate",
    "main",
    "read_model",
    "write_model",
]

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4
EXIT_CERTIFICATE = 5

SCHEMA_VERSION = 1

GEN_KINDS = ("positive", "null", "transient")
CYCLE_WEIGHT = 1e-3


class ParseError(ValueError):
    """Model file is missing, malformed, or structurally wrong."""


def generate(kind, n, seed, gamma=0.5):
    """Seeded random instance of the requested class.

    Blocks are positive uniform draws normalized to a stochastic sum. The
    class is forced structurally, not by rejection: null recurrence by
    A_1 := A_-1 exactly (drift identically zero), the recurrent/transient
    classes by adding gamma-scaled positive mass to the heavy side (the
    drift then has a strict sign). A_0 gets a Hamiltonian cycle bumped by
    1e-3 before normalization so the block sum is always irreducible.
    """
    if kind not in GEN_KINDS:
        raise ValueError(f"kind must be one of {GEN_KINDS}, got {kind!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    x_zero = rng.uniform(0.1, 1.0, (n, n))
    for i in range(n):
        x_zero[i, (i + 1) % n] += CYCLE_WEIGHT
    base = rng.uniform(0.1, 1.0, (n, n))
    if kind == "null":
        x_minus = base
        x_plus = base.copy()
    else:
        extra = gamma * rng.uniform(0.1, 1.0, (n, n))
        if kind == "positive":
            x_minus, x_plus = base + extra, base.copy()
        else:
            x_minus, x_plus = base.copy(), base + extra
    row = (x_minus + x_zero + x_plus).sum(axis=1)[:, None]
    triple = model_mod.validate(x_minus / row, x_zero / row, x_plus / row)
    meta = {"name": f"{kind}-n{n}-seed{seed}", "class": kind, "seed": seed,
            "gamma": gamma if kind != "null" else 0.0}
    return triple, meta


def _flat(matrix):
    return [float(x) for x in np.asarray(matrix).reshape(-1)]


def model_payload(triple, meta=None):
    payload = {
        "n": triple.n,
        "a_minus": _flat(triple.a_minus),
        "a_zero": _flat(triple.a_zero),
        "a_plus": _flat(triple.a_plus),
    }
    if meta:
        payload["meta"] = meta
    return payload


def write_model(path, triple, meta=None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_payload(triple, meta), fh, indent=1)
        fh.write("\n")


def read_model(path):
    """Parse and validate a model file; returns (QbdTriple, meta)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    for field in ("n", "a_minus", "a_zero", "a_plus"):
        if field not in raw:
            raise ParseError(f"{path}: missing field {field!r}")
    n = raw["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"{path}: n must be a positive integer, got {n!r}")
    try:
        blocks = []
        for field in ("a_minus", "a_zero", "a_plus"):
            arr = np.asarray(raw[field], dtype=float)
            if arr.shape != (n * n,):
                raise ParseError(
                    f"{path}: {field} has {arr.size} entries, expected n^2 = {n * n}"
                )
            blocks.append(arr.reshape(n, n))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"{path}: {exc}") from exc
    triple = model_mod.validate(*blocks)
    return triple, raw.get("meta")


def _roots_payload(rootset):
    return {
        "finite": [[float(z.real), float(z.imag)] for z in rootset.finite],
        "n_infinite": rootset.n_infinite,
    }


def _solution_payload(sol):
    out = {
        "G": _flat(sol.g),
        "R": _flat(sol.r),
        "Ghat": _flat(sol.ghat),
        "Rhat": _flat(sol.rhat),
        "K": _flat(sol.k),
        "Khat": _flat(sol.khat),
        "W": None if sol.w is None else _flat(sol.w),
        "iterations": dict(sol.iterations),
        "residuals": {k: float(v) for k, v in sol.residuals.items()},
    }
    return out


def solve_report(triple, meta=None, via="auto", tol=None, max_iter=solvers.CR_MAX_ITER,
                 samples=16, kinds=("right", "left", "double"), seed=None):
    """Full pipeline on one model: classify, solve (direct, plus the shift
    route unless via='direct'), certify, assemble the report dict."""
    start = time.perf_counter()
    cls = model_mod.classify(triple)
    direct = solvers.solve_all(triple, cls, tol=tol, max_iter=max_iter)
    report = {
        "schema": SCHEMA_VERSION,
        "meta": meta,
        "classification": {
            "kind": cls.kind.value,
            "drift": cls.drift,
            "xi_n": cls.xi_n,
            "xi_n1": cls.xi_n1,
        },
        "roots": _roots_payload(cls.roots),
        "via": via,
        "direct": _solution_payload(direct),
    }
    if via != "direct":
        route_kind = shift_mod.pick_kind(cls).value if via == "auto" else via
        route = shift_mod.solve_via(triple, cls, kind=route_kind)
        bm, b0, bp = triple.a_minus, triple.b_zero(), triple.a_plus
        report["shift_route"] = {
            "kind": route_kind,
            "iterations": route.iterations,
            "G": _flat(route.g),
            "R": _flat(route.r),
            "recovery_residual": max(
                solvers.residual_g(bm, b0, bp, route.g),
                solvers.residual_r(bm, b0, bp, route.r),
            ),
        }
    # Certify against the most accurate solution available: the direct
    # route is only ~1e-7 accurate at null recurrence, which would show up
    # as transport-residual noise rather than genuine identity failures.
    reference = direct
    if cls.kind is model_mod.Kind.NULL_RECURRENT:
        reference = shift_mod.reference_solution(triple, cls)
    det_seed = verify.DET_SEED if seed is None else seed
    certificates = verify.check_identity_suite(
        triple, cls, reference, kinds=kinds, samples=samples, det_seed=det_seed
    )
    report["certificates"] = [c.to_dict() for c in certificates]
    report["certificate_summary"] = {
        "pass": sum(c.status == "pass" for c in certificates),
        "fail": sum(c.status == "fail" for c in certificates),
        "n/a": sum(c.status == "n/a" for c in certificates),
        "info": sum(c.status == "info" for c in certificates),
    }
    report["timing"] = {"seconds": time.perf_counter() - start}
    return report


def _print_matrix(name, flat, n, out):
    mat = np.asarray(flat).reshape(n, n)
    print(f"  {name} =", file=out)
    for row in mat:
        print("    [" + "  ".join(f"{x: .12g}" for x in row) + "]", file=out)


def print_human_report(report, out=None):
    out = out or sys.stdout
    n = int(round(len(report["direct"]["G"]) ** 0.5))
    cls = report["classification"]
    print(f"classification: {cls['kind']}  drift={cls['drift']:.6g}  "
          f"xi_n={cls['xi_n']:.12g}  xi_n+1={cls['xi_n1']:.12g}", file=out)
    mods = sorted(
        [abs(complex(re, im)) for re, im in report["roots"]["finite"]]
    ) + [float("inf")] * report["roots"]["n_infinite"]
    print("root moduli: " + "  ".join(f"{m:.6g}" for m in mods), file=out)
    print(f"iterations: {report['direct']['iterations']}", file=out)
    print("equation residual exponents: "
          + "  ".join(
              f"{k}:{np.log10(max(v, 1e-300)):.1f}"
              for k, v in report["direct"]["residuals"].items()
          ), file=out)
    if n <= 8:
        for name in ("G", "R", "Ghat", "Rhat"):
            _print_matrix(name, report["direct"][name], n, out)
    if "shift_route" in report:
        rt = report["shift_route"]
        print(f"shift route [{rt['kind']}]: iterations={rt['iterations']}  "
              f"recovery residual={rt['recovery_residual']:.3e}", file=out)
    summary = report["certificate_summary"]
    print(f"certificates: {summary['pass']} pass, {summary['fail']} fail, "
          f"{summary['n/a']} n/a, {summary['info']} info", file=out)
    for cert in report["certificates"]:
        if cert["status"] == "fail":
            print(f"  FAIL {cert['name']}: residual {cert['residual']:.3e} "
                  f"> {cert['tolerance']:.1e}", file=out)
        elif cert["status"] == "info":
            print(f"  info {cert['name']}: residual {cert['residual']:.6g} "
                  f"({cert['context']})", file=out)


def _accuracy_probe(kind_value, g):
    """Stochasticity defect of G; the exact G is stochastic in both
    recurrent classes, so this measures forward error independently of
    equation residuals (which collapse at the double root)."""
    if kind_value == model_mod.Kind.TRANSIENT.value:
        return None
    return float(np.max(np.abs(np.asarray(g).sum(axis=1) - 1.0)))


def bench_rows(kind, n, count, seed, tol=1e-8, max_iter=solvers.CR_MAX_ITER, gamma=0.5):
    """Per-instance direct vs shifted comparison rows.

    Both routes run cyclic reduction at the same tolerance; rows carry
    sweep counts, per-sweep rate estimates, residuals, and the
    stochasticity accuracy probe (recurrent classes only).
    """
    rows = []
    for i in range(count):
        triple, meta = generate(kind, n, seed + i, gamma=gamma)
        cls = model_mod.classify(triple)
        bm, b0, bp = triple.a_minus, triple.b_zero(), triple.a_plus
        direct = solvers.cyclic_reduction(bm, b0, bp, tol=tol, max_iter=max_iter)
        perron = model_mod.perron_data(triple, cls)
        transform = shift_mod.build_transform(
            triple, cls, perron, shift_mod.pick_kind(cls)
        )
        sh = transform.shifted
        shifted = solvers.cyclic_reduction(
            sh.a_minus, sh.b_zero(), sh.a_plus, tol=tol, max_iter=max_iter
        )
        r_shifted, _ = solvers.derive_r_k(sh.b_zero(), sh.a_plus, shifted.g, nonneg=False)
        g_rec, r_rec = shift_mod.recover_gr(
            shifted.g, r_shifted, transform, triple, res_tol=max(1e-10, 10.0 * tol)
        )
        recovery_residual = max(
            solvers.residual_g(bm, b0, bp, g_rec),
            solvers.residual_r(bm, b0, bp, r_rec),
        )
        rows.append({
            "seed": seed + i,
            "kind": cls.kind.value,
            "direct_iterations": direct.iterations,
            "direct_residual": direct.residual,
            "direct_converged": direct.converged,
            "direct_rate_estimate": direct.rate_estimate,
            "direct_accuracy": _accuracy_probe(cls.kind.value, direct.g),
            "shifted_kind": transform.kind.value,
            "shifted_iterations": shifted.iterations,
            "shifted_residual": shifted.residual,
            "shifted_rate_estimate": shifted.rate_estimate,
            "recovery_residual": recovery_residual,
            "recovered_accuracy": _accuracy_probe(cls.kind.value, g_rec),
        })
    return rows


def bench_report(kind, n, count, seed, tol=1e-8, max_iter=solvers.CR_MAX_ITER,
                 gamma=0.5):
    start = time.perf_counter()
    rows = bench_rows(kind, n, count, seed, tol=tol, max_iter=max_iter, gamma=gamma)
    med = lambda key: float(statistics.median(r[key] for r in rows))
    report = {
        "schema": SCHEMA_VERSION,
        "bench": {"class": kind, "n": n, "count": count, "seed": seed,
                  "tol": tol, "max_iter": max_iter, "gamma": gamma},
        "rows": rows,
        "medians": {
            "direct_iterations": med("direct_iterations"),
            "shifted_iterations": med("shifted_iterations"),
            "direct_residual": med("direct_residual"),
            "shifted_residual": med("shifted_residual"),
            "recovery_residual": med("recovery_residual"),
        },
        "timing": {"seconds": time.perf_counter() - start},
    }
    return report


def _write_json(payload, path=None, out=None):
    text = json.dumps(payload, indent=1)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text, file=out or sys.stdout)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qbdshift",
        description="Shift technique for QBD quadratic matrix equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a model file and certify")
    p_solve.add_argument("path", help="model file (JSON)")
    p_solve.add_argument("--via", default="auto",
                         choices=("direct", "right", "left", "double", "auto"))
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--max-iter", type=int, default=solvers.CR_MAX_ITER)
    p_solve.add_argument("--samples", type=int, default=16)
    p_solve.add_argument("--seed", type=int, default=None,
                         help="seed for the determinant spot-check points")
    p_solve.add_argument("--json", dest="json_out", metavar="PATH", default=None,
                         help="write the structured report here")
    p_solve.add_argument("--quiet", action="store_true")

    p_gen = sub.add_parser("gen", help="generate a seeded instance")
    p_gen.add_argument("klass", metavar="class", choices=GEN_KINDS)
    p_gen.add_argument("-n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--gamma", type=float, default=0.5)
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")

    p_bench = sub.add_parser("bench", help="direct vs shifted benchmark")
    p_bench.add_argument("klass", metavar="class", choices=GEN_KINDS)
    p_bench.add_argument("-n", type=int, required=True)
    p_bench.add_argument("--count", type=int, default=20)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--tol", type=float, default=1e-8)
    p_bench.add_argument("--max-iter", type=int, default=solvers.CR_MAX_ITER)
    p_bench.add_argument("--gamma", type=float, default=0.5)
    p_bench.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            try:
                triple, meta = read_model(args.path)
            except ParseError as exc:
                print(f"parse error: {exc}", file=sys.stderr)
                return EXIT_PARSE
            except model_mod.ValidationError as exc:
                print(f"validation error: {exc}", file=sys.stderr)
                return EXIT_VALIDATION
            report = solve_report(
                triple, meta, via=args.via, tol=args.tol,
                max_iter=args.max_iter, samples=args.samples, seed=args.seed,
            )
            if args.json_out:
                _write_json(report, args.json_out)
            if not args.quiet:
                print_human_report(report)
            if report["certificate_summary"]["fail"]:
                return EXIT_CERTIFICATE
            return 0
        if args.command == "gen":
            triple, meta = generate(args.klass, args.n, args.seed, gamma=args.gamma)
            _write_json(model_payload(triple, meta), args.out)
            return 0
        if args.command == "bench":
            report = bench_report(
                args.klass, args.n, args.count, args.seed,
                tol=args.tol, max_iter=args.max_iter, gamma=args.gamma,
            )
            _write_json(report, args.out)
            return 0
    except (kernel.ConvergenceError, kernel.SingularMatrixError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except model_mod.ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
