"""Command-line surface: model file I/O, seeded instance generation,
end-to-end solve pipelines with certificates, and benchmarking.

Model files are UTF-8 JSON with fields {"n", "a_minus", "a_zero",
"a_plus", "meta"?}, matrices flattened row-major. Input and output are
strict RFC 8259 JSON, read and written by orjson: a model file with NaN,
Infinity or a number that overflows a double is not valid JSON, and a
report writes a non-finite value as null. Reports are JSON documents
carrying "schema": 5; every number is reproducible from the
model file alone (the "timing" field excepted). The "solution" block
holds the set the certificates judged: its route (the class-matched
forward shift kind), G, R, Ghat, Rhat, W (or null, with the reason in
"W_reason"), the sweeps and the equation residuals; each matrix is exact:
{"shape": [n, n], "dtype": "<f8", "b64": base64 of its little-endian bytes},
read by `unpack_matrix`. "shift_route" holds the class-matched route, the
one the solution's G and R come from, with its sweeps, recovery residual
and G and R, still decimal for the benchmark's checks. No report writes K
or Khat: K = A_0 - I + A_1 G, Khat = A_0 - I + A_-1 Ghat. `bench` compares
the direct solve with the shifted one.

Exit codes: 0 ok, 2 parse error or unwritable output path, 3 validation
error, 4 solver failure, 5 certificate failure.
"""

from __future__ import annotations

import argparse
import binascii
import math
import os
import sys
import time

import numpy as np
import orjson

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
    "unpack_matrix",
]

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4
EXIT_CERTIFICATE = 5

SCHEMA_VERSION = 5

GEN_KINDS = ("positive", "null", "transient")
CYCLE_WEIGHT = 1e-3


class ParseError(ValueError):
    """Model file is missing, malformed, or structurally wrong, or an
    output path cannot be written."""


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
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be finite and above 0, got {gamma}")
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
    return np.asarray(matrix, dtype=float).reshape(-1).tolist()


def _packed(matrix):
    a = np.ascontiguousarray(matrix, dtype="<f8")
    return {"shape": list(a.shape), "dtype": "<f8",
            "b64": binascii.b2a_base64(a.tobytes(), newline=False).decode("ascii")}


def unpack_matrix(packed):
    """The float64 array of a report matrix {"shape", "dtype", "b64"}."""
    raw = bytearray(binascii.a2b_base64(packed["b64"]))
    return np.frombuffer(raw, dtype=packed["dtype"]).reshape(packed["shape"])


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


def read_model(path):
    """Parse and validate a model file; returns (QbdTriple, meta)."""
    try:
        with open(path, "rb") as fh:
            raw = orjson.loads(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except orjson.JSONDecodeError as exc:
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
    meta = raw.get("meta")
    try:
        # a report writes meta back at this depth, and orjson refuses to
        # nest deeper than 254 levels
        orjson.dumps({"meta": meta})
    except orjson.JSONEncodeError as exc:
        raise ParseError(f"{path}: meta cannot be written back: {exc}") from exc
    triple = model_mod.validate(*blocks)
    return triple, meta


def _roots_payload(rootset):
    return {
        "finite": [[float(z.real), float(z.imag)] for z in rootset.finite],
        "n_infinite": rootset.n_infinite,
    }


def _solution_payload(sol):
    """The certified set: its route, matrices, sweeps and residuals; W is
    null, with the reason, where it is undefined or the Stein guard fails."""
    try:
        w, reason = sol.w, solvers.NULL_W_REASON if sol.null else None
    except kernel.ConvergenceError as exc:
        w, reason = None, str(exc)
    return {
        "route": sol.route,
        "G": _packed(sol.g),
        "R": _packed(sol.r),
        "Ghat": _packed(sol.ghat),
        "Rhat": _packed(sol.rhat),
        "W": None if w is None else _packed(w),
        "W_reason": reason,
        "iterations": dict(sol.iterations),
        "residuals": {k: float(v) for k, v in sol.residuals.items()},
    }


def solve_report(triple, meta=None):
    """Full pipeline on one model: classify, solve the certified set
    (reference_solution: classify's class-matched shifted solve and the
    reversed model's), take one route per shift kind (shift_routes:
    classify's `cls.matched` for the class-matched kind), certify,
    assemble the report dict. The report's shift route is `cls.matched`,
    the route the certified G and R come from."""
    start = time.perf_counter()
    cls = model_mod.classify(triple)
    reference = shift_mod.reference_solution(triple, cls)
    perron = model_mod.complete_perron_data(model_mod.perron_data(triple, cls), reference)
    route = cls.matched
    report = {
        "schema": SCHEMA_VERSION,
        "meta": meta,
        "classification": {
            "kind": cls.kind.value,
            "drift": cls.drift,
            "xi_n": cls.xi_n,
            "xi_n1": cls.xi_n1,
        },
        # eig(G) + 1/eig(R), which spec:eig(G)+1/eig(R)=roots(B) certifies
        "roots": _roots_payload(reference.roots),
        "solution": _solution_payload(reference),
        "shift_route": {
            "kind": route.transform.kind.value,
            "iterations": route.cr.iterations,
            "G": _flat(route.g),
            "R": _flat(route.r),
            "recovery_residual": route.recovery_residual,
        },
    }
    # one route per kind serves each kind's round-trip certificate; a
    # failed round trip is a certificate failure
    transforms, routes = shift_mod.shift_routes(triple, cls, perron)
    certificates = verify.check_identity_suite(triple, cls, reference, perron, transforms,
                                               routes)
    report["certificates"] = [c.to_dict() for c in certificates]
    report["certificate_summary"] = {
        status: sum(c.status == status for c in certificates)
        for status in ("pass", "fail", "n/a", "info")
    }
    report["timing"] = {"seconds": time.perf_counter() - start}
    return report


def _exponents(residuals):
    return "  ".join(f"{k}:{np.log10(max(v, 1e-300)):.1f}" for k, v in residuals.items())


def print_human_report(report, out=None):
    out = out or sys.stdout
    sol = report["solution"]
    cls = report["classification"]
    print(f"classification: {cls['kind']}  drift={cls['drift']:.6g}  "
          f"xi_n={cls['xi_n']:.12g}  xi_n+1={cls['xi_n1']:.12g}", file=out)
    mods = sorted(
        [abs(complex(re, im)) for re, im in report["roots"]["finite"]]
    ) + [float("inf")] * report["roots"]["n_infinite"]
    print("root moduli: " + "  ".join(f"{m:.6g}" for m in mods), file=out)
    sweeps = sol["iterations"]
    print(f"solution [{sol['route']}]: sweeps G={sweeps['G']} Ghat={sweeps['Ghat']}",
          file=out)
    print(f"equation residual exponents: {_exponents(sol['residuals'])}", file=out)
    if sol["G"]["shape"][0] <= 8:
        for name in ("G", "R", "Ghat", "Rhat"):
            print(f"  {name} =", file=out)
            for row in unpack_matrix(sol[name]):
                print("    [" + "  ".join(f"{x: .12g}" for x in row) + "]", file=out)
    rt = report["shift_route"]
    print(f"shift route [{rt['kind']}]: iterations={rt['iterations']}  "
          f"recovery residual={rt['recovery_residual']:.3e}", file=out)
    summary = report["certificate_summary"]
    print(f"certificates: {summary['pass']} pass, {summary['fail']} fail, "
          f"{summary['n/a']} n/a, {summary['info']} info", file=out)
    for cert in report["certificates"]:
        if cert["status"] == "fail" and cert["residual"] is None:
            print(f"  FAIL {cert['name']}: {cert['context']}", file=out)
        elif cert["status"] == "fail":
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

    The shifted route is the class-matched shift at the unit root
    (shift.matched_transform). Both routes run cyclic reduction at `tol`
    and `max_iter`; rows carry
    sweep counts, per-sweep rate estimates, residuals, and the
    stochasticity accuracy probe (recurrent classes only).
    """
    rows = []
    for i in range(count):
        triple, _ = generate(kind, n, seed + i, gamma=gamma)
        cls = model_mod.classify(triple)
        bm, b0, bp = triple.a_minus, triple.b_zero(), triple.a_plus
        direct = solvers.cyclic_reduction(
            bm, b0, bp, tol=tol, max_iter=max_iter, res_tol=np.inf
        )
        route = shift_mod.solve_via(triple, shift_mod.matched_transform(triple, cls),
                                    tol=tol, max_iter=max_iter)
        rows.append({
            "seed": seed + i,
            "kind": cls.kind.value,
            "direct_iterations": direct.iterations,
            "direct_residual": direct.residual,
            "direct_converged": direct.converged,
            "direct_rate_estimate": direct.rate_estimate,
            "direct_accuracy": _accuracy_probe(cls.kind.value, direct.g),
            "shifted_kind": route.transform.kind.value,
            "shifted_iterations": route.cr.iterations,
            "shifted_residual": route.cr.residual,
            "shifted_rate_estimate": route.cr.rate_estimate,
            "recovery_residual": route.recovery_residual,
            "recovered_accuracy": _accuracy_probe(cls.kind.value, route.g),
        })
    return rows


def bench_report(kind, n, count, seed, tol=1e-8, max_iter=solvers.CR_MAX_ITER,
                 gamma=0.5):
    start = time.perf_counter()
    rows = bench_rows(kind, n, count, seed, tol=tol, max_iter=max_iter, gamma=gamma)
    med = lambda key: float(np.median([r[key] for r in rows]))
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


def _write_json(payload, path=None):
    # orjson refuses numpy scalars: every payload holds plain Python types
    data = orjson.dumps(payload, option=orjson.OPT_APPEND_NEWLINE)
    if not path:
        sys.stdout.write(data.decode())
        return
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_output_path(path):
    """Reject an unwritable output path before any work; open nothing."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(parent):
        reason = "it is a directory" if os.path.isdir(path) else f"no directory {parent}"
        raise ParseError(f"cannot write {path}: {reason}")


def _int_at_least(low):
    """argparse type: an int >= low, rejected at parse time (exit 2)."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _finite_float(low, strict=False):
    """argparse type: a finite float >= low (> low if strict), rejected at
    parse time (exit 2)."""
    bound = f"{'above' if strict else 'at least'} {low:g}"

    def number(text):
        value = float(text)
        if not math.isfinite(value) or value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(f"must be finite and {bound}, got {text}")
        return value
    return number


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qbdshift",
        description="Shift technique for QBD quadratic matrix equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a model file and certify")
    p_solve.add_argument("path", help="model file (JSON)")
    p_solve.add_argument("--json", dest="json_out", metavar="PATH", default=None,
                         help="write the structured report here")
    p_solve.add_argument("--quiet", action="store_true")

    p_gen = sub.add_parser("gen", help="generate a seeded instance")
    p_gen.add_argument("klass", metavar="class", choices=GEN_KINDS)
    p_gen.add_argument("-n", type=_int_at_least(1), required=True)
    p_gen.add_argument("--seed", type=_int_at_least(0), default=0)
    p_gen.add_argument("--gamma", type=_finite_float(0.0, strict=True), default=0.5)
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")

    p_bench = sub.add_parser("bench", help="direct vs shifted benchmark")
    p_bench.add_argument("klass", metavar="class", choices=GEN_KINDS)
    p_bench.add_argument("-n", type=_int_at_least(1), required=True)
    p_bench.add_argument("--count", type=_int_at_least(1), default=20)
    p_bench.add_argument("--seed", type=_int_at_least(0), default=0)
    p_bench.add_argument("--tol", type=_finite_float(0.0), default=1e-8)
    p_bench.add_argument("--max-iter", type=_int_at_least(1), default=solvers.CR_MAX_ITER)
    p_bench.add_argument("--gamma", type=_finite_float(0.0, strict=True), default=0.5)
    p_bench.add_argument("--out", default=None)
    return parser


# built once per process: every in-process main call parses with it
_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        out_path = args.json_out if args.command == "solve" else args.out
        if out_path:
            _check_output_path(out_path)
        if args.command == "solve":
            triple, meta = read_model(args.path)
            report = solve_report(triple, meta)
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
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (kernel.ConvergenceError, kernel.SingularMatrixError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except model_mod.ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
