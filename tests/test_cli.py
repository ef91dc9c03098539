import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qbdshift import (
    Kind,
    check_identity_suite,
    classify,
    complete_perron_data,
    perron_data,
    reference_solution,
    shift_routes,
)
from qbdshift import cli, solvers


# every finite double: signed zeros, subnormals, the extremes and the rest
FINITE_DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 0.1, 1e16, 1e-5]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True,
              min_value=-2.3e-308, max_value=2.3e-308),
)


class TestGenerate:
    def test_deterministic(self):
        a, meta_a = cli.generate("positive", 4, seed=7)
        b, meta_b = cli.generate("positive", 4, seed=7)
        np.testing.assert_array_equal(a.a_minus, b.a_minus)
        np.testing.assert_array_equal(a.a_zero, b.a_zero)
        np.testing.assert_array_equal(a.a_plus, b.a_plus)
        assert meta_a == meta_b

    def test_null_family_is_exact(self):
        triple, _ = cli.generate("null", 3, seed=5)
        np.testing.assert_array_equal(triple.a_minus, triple.a_plus)
        assert classify(triple).drift == 0.0

    @pytest.mark.parametrize("kind,expected", [
        ("positive", Kind.POSITIVE_RECURRENT),
        ("null", Kind.NULL_RECURRENT),
        ("transient", Kind.TRANSIENT),
    ])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_class_is_forced(self, kind, expected, n):
        for seed in (0, 1, 2):
            triple, _ = cli.generate(kind, n, seed)
            assert classify(triple).kind is expected

    def test_strict_drift_sign(self):
        for seed in range(5):
            assert classify(cli.generate("positive", 4, seed)[0]).drift < 0
            assert classify(cli.generate("transient", 4, seed)[0]).drift > 0

    def test_gamma_scales_drift(self):
        near = classify(cli.generate("positive", 4, 3, gamma=1e-3)[0]).drift
        far = classify(cli.generate("positive", 4, 3, gamma=0.5)[0]).drift
        assert abs(near) < abs(far)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            cli.generate("oscillatory", 2, 0)

    @pytest.mark.parametrize("gamma", [0.0, -0.5, float("nan"), float("inf")])
    def test_rejects_bad_gamma(self, gamma):
        # 0 returned a null-recurrent model labelled positive, -0.5 failed
        # on "a_minus has a negative entry", inf warned before failing
        with pytest.raises(ValueError, match="gamma must be finite and above 0"):
            cli.generate("positive", 4, 0, gamma=gamma)


class TestModelFiles:
    def test_round_trip_is_bit_faithful(self, tmp_path):
        triple, meta = cli.generate("transient", 3, seed=11)
        path = tmp_path / "m.json"
        cli._write_json(cli.model_payload(triple, meta), path)
        loaded, loaded_meta = cli.read_model(path)
        np.testing.assert_array_equal(loaded.a_minus, triple.a_minus)
        np.testing.assert_array_equal(loaded.a_zero, triple.a_zero)
        np.testing.assert_array_equal(loaded.a_plus, triple.a_plus)
        assert loaded_meta == meta

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(cli.ParseError):
            cli.read_model(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 1, "a_minus": [0.5], "a_zero": [0.2]}))
        with pytest.raises(cli.ParseError, match="a_plus"):
            cli.read_model(path)

    def test_wrong_length(self, tmp_path):
        path = tmp_path / "m.json"
        payload = {"n": 2, "a_minus": [0.1] * 3, "a_zero": [0.1] * 4, "a_plus": [0.1] * 4}
        path.write_text(json.dumps(payload))
        with pytest.raises(cli.ParseError, match="entries"):
            cli.read_model(path)

    @pytest.mark.parametrize("n", [0, 2.7, True, "2"])
    def test_bad_n(self, tmp_path, n):
        # n = 0 used to crash in validate; n = 2.7 was truncated to 2
        path = tmp_path / "m.json"
        size = 4 if n == 2.7 else 0
        payload = {"n": n, "a_minus": [0.25] * size, "a_zero": [0.25] * size,
                   "a_plus": [0.0] * size}
        path.write_text(json.dumps(payload))
        with pytest.raises(cli.ParseError, match="positive integer"):
            cli.read_model(path)
        assert cli.main(["solve", str(path), "--quiet"]) == cli.EXIT_PARSE

    @pytest.mark.parametrize("flags, message", [
        (["gen", "positive", "-n", "0"], "must be at least 1"),
        (["gen", "positive", "-n", "2", "--seed", "-1"], "must be at least 0"),
        (["bench", "null", "-n", "2", "--count", "0"], "must be at least 1"),
        (["bench", "null", "-n", "2", "--seed", "-1"], "must be at least 0"),
        (["bench", "null", "-n", "2", "--tol", "-1"], "must be finite and at least 0"),
        (["bench", "null", "-n", "2", "--max-iter", "0"], "must be at least 1"),
        (["gen", "positive", "-n", "2", "--gamma", "-1"], "must be finite and above 0"),
        (["gen", "positive", "-n", "2", "--gamma", "nan"], "must be finite and above 0"),
        (["gen", "positive", "-n", "2", "--gamma", "0"], "must be finite and above 0"),
        (["bench", "null", "-n", "2", "--gamma", "inf"], "must be finite and above 0"),
    ], ids=["gen-n-0", "gen-seed-neg",
            "bench-count-0", "bench-seed-neg", "bench-tol-neg", "bench-max-iter-0",
            "gen-gamma-neg", "gen-gamma-nan", "gen-gamma-0",
            "bench-gamma-inf"])
    def test_out_of_range_flags(self, tmp_path, capsys, flags, message):
        # a negative seed, n, count or tol exited 1 with a traceback; a nan or
        # infinite tol and a max-iter below 1 exited 4 on a valid model; a
        # gamma of 0 wrote a null-recurrent model labelled positive
        model = write_scalar_model(tmp_path, (0.5, 0.2, 0.3))
        with pytest.raises(SystemExit) as exc:
            cli.main([f.format(model=model) for f in flags])
        assert exc.value.code == cli.EXIT_PARSE
        assert message in capsys.readouterr().err

    def test_samples_flag_is_gone(self, tmp_path, capsys):
        # the factorization certificates bound the whole unit circle, so
        # there is no sample count to choose; the report's route is always
        # the class-matched one and the root check reads fixed points, so
        # there is no route or seed to choose either: each is a usage error
        model = write_scalar_model(tmp_path, (0.5, 0.2, 0.3))
        for flag in ("--samples 16", "--via left", "--seed 1"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["solve", str(model), *flag.split()])
            assert exc.value.code == cli.EXIT_PARSE
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        b'{"n": 1, "a_minus": [0.5], "a_zero": [0.2], "a_plus": [0.3], "meta": "\xff"}',
        b'{"n": 1, "a_minus": ' + b"[" * 100000 + b"0.5" + b"]" * 100000
        + b', "a_zero": [0.2], "a_plus": [0.3]}',
        b'{"n": 1, "a_minus": [1' + b"0" * 400 + b'], "a_zero": [0.2], "a_plus": [0.3]}',
    ], ids=["not-utf8", "nested-100000-deep", "401-digit-integer"])
    def test_unreadable_bytes_exit_code(self, tmp_path, capsys, text):
        # each ended in a traceback under the standard library's json:
        # UnicodeDecodeError, RecursionError, and OverflowError from np.asarray
        path = tmp_path / "m.json"
        path.write_bytes(text)
        assert cli.main(["solve", str(path), "--quiet"]) == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"parse error: {path}")

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_numbers_are_not_json(self, tmp_path, capsys, entry):
        # RFC 8259 has no NaN or Infinity, and 1e400 overflows a double: the
        # standard library's json read all of them and validate refused the
        # model (exit 3); they are now a parse error (exit 2)
        path = tmp_path / "m.json"
        path.write_text(f'{{"n": 1, "a_minus": [{entry}], "a_zero": [0.2], "a_plus": [0.3]}}')
        assert cli.main(["solve", str(path), "--quiet"]) == cli.EXIT_PARSE
        assert f"{path} is not valid JSON (line 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("depth, code", [(254, 0), (255, cli.EXIT_PARSE),
                                             (100000, cli.EXIT_PARSE)])
    def test_meta_must_be_writable(self, tmp_path, capsys, depth, code):
        # orjson writes at most 254 nested levels; a meta the report cannot
        # hold is refused when the model is read, before any work
        path = tmp_path / "m.json"
        path.write_text('{"n": 1, "a_minus": [0.5], "a_zero": [0.2], "a_plus": [0.3], '
                        '"meta": ' + "[" * depth + "]" * depth + "}")
        report = tmp_path / "r.json"
        assert cli.main(["solve", str(path), "--json", str(report), "--quiet"]) == code
        if code:
            assert "meta cannot be written back" in capsys.readouterr().err
            assert not report.exists()
        else:
            meta = json.loads(report.read_text())["meta"]
            for _ in range(depth - 1):
                meta, = meta
            assert meta == []

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n), *[st.lists(FINITE_DOUBLES, min_size=n * n, max_size=n * n)] * 3)))
    def test_reads_stdlib_files_to_the_same_bits(self, tmp_path, monkeypatch, drawn):
        # the benchmark writes its model files with json.dumps(..., indent=1);
        # read_model parses them to the bits json.loads gives
        n, *blocks = drawn
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": n, "a_minus": blocks[0], "a_zero": blocks[1],
                                    "a_plus": blocks[2]}, indent=1) + "\n")
        monkeypatch.setattr(cli.model_mod, "validate", lambda *parsed: parsed)
        parsed, _ = cli.read_model(path)
        expected = json.loads(path.read_text())
        for field, block in zip(("a_minus", "a_zero", "a_plus"), parsed):
            assert block.tobytes() == np.array(expected[field], dtype=float).tobytes()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(FINITE_DOUBLES, max_size=20))
    def test_writes_what_stdlib_reads_to_the_same_bits(self, tmp_path, values):
        path = tmp_path / "out.json"
        cli._write_json({"values": values}, path)
        read = json.loads(path.read_text(encoding="utf-8"))["values"]
        assert np.array(read, dtype=float).tobytes() == np.array(values, dtype=float).tobytes()

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(cli.GEN_KINDS), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.floats(1e-8, 2.0))
    def test_gen_output_reads_back_bit_for_bit(self, tmp_path, kind, n, seed, gamma):
        path = tmp_path / "gen.json"
        assert cli.main(["gen", kind, "-n", str(n), "--seed", str(seed),
                         "--gamma", repr(gamma), "--out", str(path)]) == 0
        written = json.loads(path.read_text(encoding="utf-8"))
        triple, meta = cli.generate(kind, n, seed, gamma=gamma)
        assert written["meta"] == meta
        for field in ("a_minus", "a_zero", "a_plus"):
            block = np.array(written[field], dtype=float).reshape(n, n)
            assert block.tobytes() == getattr(triple, field).tobytes()


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """`text` parsed by a decoder that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_no_constant)


class TestStrictOutput:
    """Every writer's output is strict RFC 8259 JSON: the standard
    library's decoder reads it with NaN and Infinity refused."""

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("kind", cli.GEN_KINDS)
    def test_solve_report(self, tmp_path, kind, n):
        model, report = tmp_path / "m.json", tmp_path / "r.json"
        assert cli.main(["gen", kind, "-n", str(n), "--seed", "1", "--out", str(model)]) == 0
        assert cli.main(["solve", str(model), "--json", str(report), "--quiet"]) == 0
        assert strict_json(report.read_bytes())["schema"] == cli.SCHEMA_VERSION

    def test_gen(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        argv = ["gen", "positive", "-n", "3", "--seed", "2"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        assert printed == out.read_text(encoding="utf-8")
        assert strict_json(printed)["n"] == 3

    def test_bench(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        argv = ["bench", "transient", "-n", "2", "--count", "2", "--seed", "3"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert cli.main(argv) == 0
        printed = strict_json(capsys.readouterr().out)
        written = strict_json(out.read_bytes())
        assert len(written["rows"]) == 2
        for report in (printed, written):
            report.pop("timing")
        assert printed == written


def write_scalar_model(tmp_path, blocks, name="m.json"):
    path = tmp_path / name
    payload = {
        "n": 1,
        "a_minus": [blocks[0]],
        "a_zero": [blocks[1]],
        "a_plus": [blocks[2]],
    }
    path.write_text(json.dumps(payload))
    return path


class TestMain:
    def test_solve_p1(self, tmp_path, capsys):
        path = write_scalar_model(tmp_path, (0.5, 0.2, 0.3))
        code = cli.main(["solve", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "positive-recurrent" in out
        assert "certificates:" in out

    def test_solve_json_report(self, tmp_path):
        path = write_scalar_model(tmp_path, (0.5, 0.2, 0.3))
        out_path = tmp_path / "report.json"
        code = cli.main(["solve", str(path), "--quiet", "--json", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == 5
        assert "via" not in report
        assert report["classification"]["kind"] == "positive-recurrent"
        assert report["solution"]["route"] == "right"
        g, r = (cli.unpack_matrix(report["solution"][k]) for k in ("G", "R"))
        assert g.tolist() == [[pytest.approx(1.0, abs=1e-12)]]
        assert r.tolist() == [[pytest.approx(0.6, abs=1e-12)]]
        assert report["certificate_summary"]["fail"] == 0

    def test_direct_keys(self, tmp_path):
        # no K or Khat: each is one product away from G or Ghat; the
        # certified set's matrices are written once, under "solution", and
        # no direct solve runs, so there is no "direct" block
        path = write_scalar_model(tmp_path, (0.5, 0.2, 0.3))
        report = cli.solve_report(*cli.read_model(path))
        assert set(report["solution"]) == {"route", "G", "R", "Ghat", "Rhat", "W",
                                           "W_reason", "iterations", "residuals"}
        assert "direct" not in report
        assert set(report["shift_route"]) >= {"G", "R"}

    def test_report_byte_stable_modulo_timing(self, tmp_path):
        path = write_scalar_model(tmp_path, (0.3, 0.2, 0.5))
        reports = []
        for name in ("a.json", "b.json"):
            out_path = tmp_path / name
            assert cli.main(["solve", str(path), "--quiet", "--json", str(out_path)]) == 0
            data = json.loads(out_path.read_text())
            data.pop("timing")
            reports.append(json.dumps(data, sort_keys=True))
        assert reports[0] == reports[1]

    def test_null_via_double_shift(self, tmp_path):
        path = tmp_path / "model.json"
        assert cli.main(["gen", "null", "-n", "1", "--seed", "0", "--out", str(path)]) == 0
        out_path = tmp_path / "report.json"
        code = cli.main(["solve", str(path), "--quiet", "--json", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        # the report's route is the class-matched one: double at null
        # recurrence
        route = report["shift_route"]
        assert route["kind"] == "double"
        assert route["G"] == [pytest.approx(1.0, abs=1e-10)]
        assert route["R"] == [pytest.approx(1.0, abs=1e-10)]
        assert route["recovery_residual"] <= 1e-10
        # the certified set took the double shift too; the direct solve of
        # the same model, which only bench runs, takes more sweeps
        assert report["solution"]["route"] == "double"
        assert "direct" not in report
        row, = cli.bench_rows("null", 1, count=1, seed=0)
        assert route["iterations"] < row["direct_iterations"]

    @pytest.mark.parametrize("n", [2, 16, 128])
    def test_null_certified_r_and_rhat_to_machine_accuracy(self, n):
        # the double shift's left projector is built from theta: solved at
        # its exact root 1 it keeps R and Rhat at a few ulps, while a theta
        # off by 1e-12 leaves them near 1e-13
        report = cli.solve_report(*cli.generate("null", n, 1))
        residuals = report["solution"]["residuals"]
        assert report["solution"]["route"] == "double"
        assert residuals["R"] <= 1e-14
        assert residuals["Rhat"] <= 1e-14

    @pytest.mark.parametrize("kind", ["positive", "null", "transient"])
    def test_recovery_residual_is_the_routes(self, kind):
        # the report's route is the class-matched solve classify made
        triple, meta = cli.generate(kind, 4, seed=5)
        report = cli.solve_report(triple, meta)
        route = classify(triple).matched
        bm, b0, bp = triple.a_minus, triple.b_zero(), triple.a_plus
        expected = max(solvers.residual_g(bm, b0, bp, route.g),
                       solvers.residual_r(bm, b0, bp, route.r))
        assert route.recovery_residual == expected
        assert report["shift_route"]["recovery_residual"] == expected

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["solve", str(path)]) == cli.EXIT_PARSE

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["solve", str(tmp_path / "nope.json")]) == cli.EXIT_PARSE

    @pytest.mark.parametrize("command", ["gen", "solve", "bench"])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, monkeypatch, command):
        # the path is checked before any solve runs
        def never(*args, **kwargs):
            raise AssertionError("ran before the output path was checked")

        monkeypatch.setattr(cli, "solve_report", never)
        monkeypatch.setattr(cli, "bench_report", never)
        model = write_scalar_model(tmp_path, (0.5, 0.2, 0.3))
        out = tmp_path / "missing" / "out.json"
        argv = {
            "gen": ["gen", "positive", "-n", "2", "--out", str(out)],
            "solve": ["solve", str(model), "--json", str(out), "--quiet"],
            "bench": ["bench", "null", "-n", "1", "--count", "1", "--out", str(out)],
        }[command]
        assert cli.main(argv) == cli.EXIT_PARSE
        assert f"cannot write {out}: " in capsys.readouterr().err
        assert not out.parent.exists()

    def test_directory_output_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "solve_report", None)
        model = write_scalar_model(tmp_path, (0.5, 0.2, 0.3))
        argv = ["solve", str(model), "--json", str(tmp_path), "--quiet"]
        assert cli.main(argv) == cli.EXIT_PARSE
        assert f"cannot write {tmp_path}: " in capsys.readouterr().err

    def test_existing_output_kept_until_written(self, tmp_path, monkeypatch):
        # a solve that fails leaves an existing report as it was
        from qbdshift import kernel

        def boom(*a, **k):
            raise kernel.ConvergenceError("forced")

        model = write_scalar_model(tmp_path, (0.5, 0.2, 0.3))
        out = tmp_path / "report.json"
        out.write_text("old")
        monkeypatch.setattr(cli.solvers, "cyclic_reduction", boom)
        argv = ["solve", str(model), "--json", str(out), "--quiet"]
        assert cli.main(argv) == cli.EXIT_SOLVER
        assert out.read_text() == "old"

    def test_validation_error_exit_code(self, tmp_path):
        path = write_scalar_model(tmp_path, (0.5, 0.6, 0.3))
        assert cli.main(["solve", str(path)]) == cli.EXIT_VALIDATION

    def test_alternating_chain_exit_code(self, tmp_path, capsys):
        # A_-1 = e_2 e_1^T, A_0 = 0, A_1 = e_1 e_2^T: stochastic and
        # irreducible, but B(z) = [[-z, z^2], [1, -z]] has det B(z) = 0 for
        # every z: a validation error, not a solver failure
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "a_minus": [0.0, 0.0, 1.0, 0.0],
                                    "a_zero": [0.0] * 4, "a_plus": [0.0, 1.0, 0.0, 0.0]}))
        assert cli.main(["solve", str(path), "--quiet"]) == cli.EXIT_VALIDATION
        assert "det B(z) vanishes identically" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_levels_that_never_communicate_exit_code(self, tmp_path, capsys, n):
        # A_-1 = A_1 = 0 with a cyclic-permutation A_0 exited 4 ("matrix is
        # exactly singular"); the standing assumptions exclude it
        path = tmp_path / "m.json"
        zero = [0.0] * (n * n)
        path.write_text(json.dumps({"n": n, "a_minus": zero, "a_plus": zero,
                                    "a_zero": np.roll(np.eye(n), 1, axis=1).ravel().tolist()}))
        assert cli.main(["solve", str(path), "--quiet"]) == cli.EXIT_VALIDATION
        assert "never communicate" in capsys.readouterr().err

    def test_certificate_failure_exit_code(self, tmp_path, monkeypatch):
        from qbdshift.verify import Certificate

        path = write_scalar_model(tmp_path, (0.5, 0.2, 0.3))
        monkeypatch.setattr(
            cli.verify,
            "check_identity_suite",
            lambda *a, **k: [Certificate("forced", 1.0, 0.0, "fail", "")],
        )
        assert cli.main(["solve", str(path), "--quiet"]) == cli.EXIT_CERTIFICATE

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch):
        from qbdshift import kernel

        def boom(*a, **k):
            raise kernel.ConvergenceError("forced")

        path = write_scalar_model(tmp_path, (0.5, 0.2, 0.3))
        monkeypatch.setattr(cli.solvers, "cyclic_reduction", boom)
        assert cli.main(["solve", str(path), "--quiet"]) == cli.EXIT_SOLVER

    @pytest.mark.parametrize("kind", ["positive", "null"])
    def test_roots_computed_once(self, tmp_path, monkeypatch, kind):
        # the report's roots are assembled once, from the reference
        # solution's spectra; classify computes no root, and root surgery
        # reads the shifted roots from the spectra of the shifted solutions
        from qbdshift import matpoly

        calls = []
        real = matpoly.RootSet.from_spectra.__func__

        def counted(cls, *args):
            calls.append(args)
            return real(cls, *args)

        path = tmp_path / "gen.json"
        assert cli.main(["gen", kind, "-n", "4", "--seed", "1", "--out", str(path)]) == 0
        monkeypatch.setattr(matpoly.RootSet, "from_spectra", classmethod(counted))
        triple, _ = cli.read_model(path)
        classify(triple)
        assert not calls
        assert cli.main(["solve", str(path), "--quiet"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("kind, expected", [
        ("positive", {"cyclic_reduction": 4, "perron_data": 1, "det_b": 8}),
        ("null", {"cyclic_reduction": 4, "perron_data": 1, "det_b": 8}),
    ])
    def test_each_quantity_computed_once(self, tmp_path, monkeypatch, kind, expected):
        # classify makes the class-matched shifted solve (right here, double
        # at null recurrence), the reversed model's class-matched solve
        # gives Ghat (no direct run), classify's solve is the route of its
        # kind and the other two kinds are solved once each for the route
        # and its round trip, Perron data is computed once per triple (for the
        # certificates: no shift route reads it), and det B(z) is taken once
        # per determinant point, of the model only: validate probes B(z)
        # with an inverse, and no shifted triple is probed
        from qbdshift import model, solvers

        counts = dict.fromkeys(expected, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        path = tmp_path / "gen.json"
        assert cli.main(["gen", kind, "-n", "16", "--seed", "1", "--out", str(path)]) == 0
        monkeypatch.setattr(solvers, "cyclic_reduction",
                            counting("cyclic_reduction", solvers.cyclic_reduction))
        monkeypatch.setattr(model, "perron_data", counting("perron_data", model.perron_data))
        evaluated = []
        real_b_of, real_det = model.QbdTriple.b_of, np.linalg.det

        def b_of(triple, z):
            evaluated.append(triple)
            return real_b_of(triple, z)

        def det(a):
            counts["det_b"] += np.iscomplexobj(a)
            return real_det(a)

        monkeypatch.setattr(model.QbdTriple, "b_of", b_of)
        monkeypatch.setattr(np.linalg, "det", det)
        assert cli.main(["solve", str(path), "--quiet"]) == 0
        assert counts == expected
        # one probe of validate, then the determinant points, on one triple
        assert len(evaluated) == 1 + expected["det_b"]
        assert all(triple is evaluated[0] for triple in evaluated)

    @pytest.mark.parametrize("kind, beyond_sweeps, bordered", [
        ("positive", 10, 6), ("transient", 10, 6), ("null", 6, 5),
    ])
    def test_factorizations_per_certified_solve(self, monkeypatch, kind, beyond_sweeps,
                                                bordered):
        # every LU factorization of a certified solve is an inverse or a
        # bordered Perron solve. Beyond one inverse per cyclic-reduction
        # sweep: one Dh^-1 per cyclic reduction (4), which also gives R of
        # its route, K^-1 and Khat^-1, and off null recurrence W^-1 and the
        # W_s^-1 of the right, left and double hat transports (the double
        # transport's admissibility reads its W_s^-1). Bordered solves:
        # theta in classify, the vector at the non-unit root, and the four
        # solution-side vectors
        from qbdshift import solvers

        calls = {"inv": 0, "solve": 0}
        sweeps = []
        cyclic_reduction = solvers.cyclic_reduction

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def counted_cr(*args, **kwargs):
            out = cyclic_reduction(*args, **kwargs)
            sweeps.append(out.iterations)
            return out

        triple, meta = cli.generate(kind, 16, 1)
        monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        monkeypatch.setattr(solvers, "cyclic_reduction", counted_cr)
        cli.solve_report(triple, meta)
        assert len(sweeps) == 4
        assert calls == {"inv": sum(sweeps) + beyond_sweeps, "solve": bordered}

    @pytest.mark.parametrize("kind", ["positive", "null", "transient"])
    def test_eq_certificates_equal_the_solution_residuals(self, kind):
        # the eq:* certificates measure the set's matrices themselves and
        # read, bit for bit, the residuals the report's solution block shows
        for n in (1, 4, 16):
            report = cli.solve_report(*cli.generate(kind, n, 2))
            certs = {c["name"]: c["residual"] for c in report["certificates"]}
            for name, residual in report["solution"]["residuals"].items():
                assert certs[f"eq:{name}"] == residual

    @pytest.mark.parametrize("kind, gamma, route", [
        ("positive", 0.5, "right"), ("transient", 0.5, "left"),
        ("positive", 1e-5, "right"), ("transient", 1e-5, "left"),
        ("null", 0.5, "double"),
    ])
    def test_no_class_runs_a_direct_solve(self, monkeypatch, kind, gamma, route):
        # on or off the near-null band (root gap of 1.2e-5 at gamma 1e-5)
        # the certified set takes the class-matched shift pair in every
        # class, every class makes 4 cyclic reductions, each on a shifted
        # middle block, and the report's route is classify's class-matched
        # solve
        from qbdshift import solvers

        middles = []
        cyclic_reduction = solvers.cyclic_reduction

        def counting(b_minus, b_zero, b_plus, **kwargs):
            middles.append(b_zero)
            return cyclic_reduction(b_minus, b_zero, b_plus, **kwargs)

        triple, meta = cli.generate(kind, 4, 1, gamma=gamma)
        monkeypatch.setattr(solvers, "cyclic_reduction", counting)
        report = cli.solve_report(triple, meta)
        assert report["solution"]["route"] == route
        assert "direct" not in report
        assert report["certificate_summary"]["fail"] == 0
        assert len(middles) == 4
        assert not any(np.array_equal(b0, triple.b_zero()) for b0 in middles)
        matched = classify(triple).matched
        assert report["shift_route"]["iterations"] == matched.cr.iterations
        assert report["shift_route"]["G"] == cli._flat(matched.g)

    @pytest.mark.parametrize("kind", ["positive", "null"])
    @pytest.mark.parametrize("n", ["4", "16"])
    def test_eigvals_per_solve(self, tmp_path, monkeypatch, kind, n):
        # eig(G) and eig(R), which the report's roots and the tiling
        # certificate read; the surgery and replacement certificates read
        # Brauer's hypotheses, and classify makes none
        calls = []
        real_eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(a.shape)
            return real_eigvals(a)

        path = tmp_path / "gen.json"
        assert cli.main(["gen", kind, "-n", n, "--seed", "1", "--out", str(path)]) == 0
        monkeypatch.setattr(np.linalg, "eigvals", counted)
        assert cli.main(["solve", str(path), "--quiet"]) == 0
        size = int(n)
        assert calls == [(size, size)] * 2

    @pytest.mark.parametrize("kind", ["positive", "null"])
    def test_block_sum_perron_once(self, tmp_path, monkeypatch, kind):
        # classify keeps the left Perron vector of A_-1 + A_0 + A_1, one
        # one-sided call on its transpose; perron_data reads it at the unit
        # root instead of recomputing it, and nothing asks for its right one
        from qbdshift import kernel

        path = tmp_path / "gen.json"
        assert cli.main(["gen", kind, "-n", "16", "--seed", "1", "--out", str(path)]) == 0
        triple, _ = cli.read_model(path)
        left_on_sum, right_on_sum = [], []
        real_perron = kernel.perron

        def counted(m, root):
            left_on_sum.append(np.array_equal(m.T, triple.a_sum()))
            right_on_sum.append(np.array_equal(m, triple.a_sum()))
            return real_perron(m, root)

        monkeypatch.setattr(kernel, "perron", counted)
        assert cli.main(["solve", str(path), "--quiet"]) == 0
        assert sum(left_on_sum) == 1
        assert sum(right_on_sum) == 0

    @pytest.mark.parametrize("kind, expected", [("positive", 3), ("transient", 3),
                                                ("null", 2)])
    def test_power_iterations_per_solve(self, tmp_path, monkeypatch, kind, expected):
        # power iteration serves only the radii whose eigenvalue is not
        # known in advance: classify 1 (rho of the matched shift's R or G,
        # none at null recurrence), rho(Ghat) and rho(Rhat) 2; the Stein
        # divergence guard reads the solution's radii; no Perron vector
        from qbdshift import kernel

        path = tmp_path / "gen.json"
        assert cli.main(["gen", kind, "-n", "8", "--seed", "1", "--out", str(path)]) == 0
        calls = []
        real_power = kernel._power

        def counted(a):
            calls.append(a.shape)
            return real_power(a)

        monkeypatch.setattr(kernel, "_power", counted)
        assert cli.main(["solve", str(path), "--quiet"]) == 0
        assert len(calls) == expected

    @pytest.mark.parametrize("kind, expected", [("positive", 6), ("transient", 6),
                                                ("null", 5)])
    def test_one_bordered_solve_per_perron_vector(self, tmp_path, monkeypatch, kind,
                                                  expected):
        # classify 1 (theta at 1), perron_data 1 (the vector of A(xi) at the
        # non-unit root xi, none at null recurrence), complete_perron_data 4 (at
        # the radii of the solution); each call is one (n + 1) x (n + 1)
        # solve, and no other solve of a certified solve has that size
        from qbdshift import kernel

        path = tmp_path / "gen.json"
        assert cli.main(["gen", kind, "-n", "8", "--seed", "1", "--out", str(path)]) == 0
        vectors, bordered = [], []
        real_perron, real_solve = kernel.perron, np.linalg.solve

        def counted_perron(m, root):
            vectors.append(m.shape)
            return real_perron(m, root)

        def counted_solve(a, b):
            if a.shape == (9, 9):
                bordered.append(len(vectors))
            return real_solve(a, b)

        monkeypatch.setattr(kernel, "perron", counted_perron)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        assert cli.main(["solve", str(path), "--quiet"]) == 0
        assert len(vectors) == expected
        # the k-th bordered solve runs inside the k-th Perron call
        assert bordered == list(range(1, expected + 1))

    @pytest.mark.parametrize("kind", ["positive", "transient", "null"])
    def test_k_and_khat_inverted_once(self, tmp_path, monkeypatch, kind):
        # W, its Stein certificate, the sign certificate, the M-matrix
        # checks of -K and -Khat and the null hats read one inverse each
        from qbdshift import kernel, shift

        path = tmp_path / "gen.json"
        assert cli.main(["gen", kind, "-n", "8", "--seed", "1", "--out", str(path)]) == 0
        sets, inverted = [], []
        real_set, real_inverse = shift.reference_solution, kernel.inverse

        def recorded_set(*args):
            sets.append(real_set(*args))
            return sets[-1]

        def recorded_inverse(m):
            inverted.append(np.array(m))
            return real_inverse(m)

        monkeypatch.setattr(shift, "reference_solution", recorded_set)
        monkeypatch.setattr(kernel, "inverse", recorded_inverse)
        assert cli.main(["solve", str(path), "--quiet"]) == 0

        def inverts(x):
            return [any(np.array_equal(m, sign * s) for s in x for sign in (1, -1))
                    for m in inverted]

        on_k, on_khat = inverts([s.fwd.k for s in sets]), inverts([s.rev.k for s in sets])
        # two inversions in all: the null model here has A_1 = A_-1, so
        # Khat = K and each inversion matches both
        assert sum(a or b for a, b in zip(on_k, on_khat)) == 2
        assert any(on_k) and any(on_khat)

    def test_certificates_written_without_asdict(self, tmp_path, monkeypatch):
        import dataclasses

        path = tmp_path / "gen.json"
        assert cli.main(["gen", "positive", "-n", "4", "--seed", "1", "--out",
                         str(path)]) == 0
        calls = []
        real_asdict = dataclasses.asdict
        monkeypatch.setattr(dataclasses, "asdict",
                            lambda *a, **k: calls.append(a) or real_asdict(*a, **k))
        assert cli.main(["solve", str(path), "--quiet"]) == 0
        assert not calls

    @pytest.mark.parametrize("kind", ["positive", "null", "transient"])
    def test_det_b_only_on_the_model(self, monkeypatch, kind):
        # the suite evaluates B(z) of the model at the DET_POINT_COUNT
        # ROOT_POINTS and no shifted pencil: det-identity reads coefficients
        from qbdshift import model, verify

        triple, _ = cli.generate(kind, 8, 1)
        cls = classify(triple)
        sol = reference_solution(triple, cls)
        perron = complete_perron_data(perron_data(triple, cls), sol)
        transforms, routes = shift_routes(triple, cls, perron)
        evaluated = []
        real = model.QbdTriple.b_of

        def counted(self, z):
            evaluated.append(self)
            return real(self, z)

        monkeypatch.setattr(model.QbdTriple, "b_of", counted)
        check_identity_suite(triple, cls, sol, perron, transforms, routes)
        assert len(evaluated) == verify.DET_POINT_COUNT == 8
        assert all(t is triple for t in evaluated)

    def test_det_calls_do_not_grow_with_n(self, tmp_path, monkeypatch):
        # only the fixed-count determinant points of the tiling certificate
        # and det K call det
        calls = []
        real_det = np.linalg.det

        def counted(a):
            calls.append(a.shape)
            return real_det(a)

        counts = []
        for n in ("4", "16"):
            path = tmp_path / f"gen{n}.json"
            assert cli.main(["gen", "positive", "-n", n, "--seed", "1",
                             "--out", str(path)]) == 0
            calls.clear()
            monkeypatch.setattr(np.linalg, "det", counted)
            assert cli.main(["solve", str(path), "--quiet"]) == 0
            monkeypatch.setattr(np.linalg, "det", real_det)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_periodic_chain_warns_once(self, tmp_path):
        # B(z) has a double root at -1 (see test_model); the warning comes
        # with the first read of the reference solution's spectra only
        import warnings

        flip = [0.0, 0.5, 0.5, 0.0]
        path = tmp_path / "flip.json"
        path.write_text(json.dumps(
            {"n": 2, "a_minus": flip, "a_zero": [0.0] * 4, "a_plus": flip}
        ))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["solve", str(path), "--quiet"]) == cli.EXIT_CERTIFICATE
        assert sum("unit-circle" in str(w.message) for w in caught) == 1

    def test_gen_writes_model(self, tmp_path):
        out = tmp_path / "gen.json"
        code = cli.main(["gen", "null", "-n", "3", "--seed", "9", "--out", str(out)])
        assert code == 0
        triple, meta = cli.read_model(out)
        assert meta["class"] == "null"
        assert classify(triple).kind is Kind.NULL_RECURRENT

    def test_gen_then_solve(self, tmp_path):
        out = tmp_path / "gen.json"
        assert cli.main(["gen", "transient", "-n", "2", "--seed", "4",
                         "--out", str(out)]) == 0
        assert cli.main(["solve", str(out), "--quiet"]) == 0

    def test_gen_then_solve_near_null(self, tmp_path):
        # root gap ~1e-6 at n = 65: a term-by-term Stein series needs ~10^6
        # terms here, Smith doubling ~25 steps
        model = tmp_path / "gen.json"
        report = tmp_path / "report.json"
        assert cli.main(["gen", "positive", "-n", "65", "--seed", "0",
                         "--gamma", "1e-6", "--out", str(model)]) == 0
        assert cli.main(["solve", str(model), "--json", str(report), "--quiet"]) == 0
        certs = json.loads(report.read_text())["certificates"]
        assert not [c["name"] for c in certs if c["status"] == "fail"]

    def test_bench_null(self, tmp_path):
        out = tmp_path / "bench.json"
        code = cli.main(["bench", "null", "-n", "4", "--count", "5",
                         "--seed", "2", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["rows"]) == 5
        med = report["medians"]
        assert all("direct_rate_estimate" in r for r in report["rows"])
        assert med["shifted_iterations"] <= med["direct_iterations"] / 2
        assert med["recovery_residual"] <= 1e-10

    def test_bench_scalar_recovery_is_exact(self):
        rows = cli.bench_rows("null", 1, count=5, seed=0)
        assert all(r["recovery_residual"] <= 1e-12 for r in rows)


class TestNearNullSweep:
    """Certified solves across the near-null band and into null recurrence:
    positive and transient models at root gaps from about 1e-4 down to
    1e-12, where the drift falls below NULL_DRIFT_TOL and the model solves
    as null recurrent. Every input certifies (exit 0): no Stein divergence
    (exit 4), no traceback and no certificate failure. An exit 5 here
    would be admitted only where oracles.splitting_root_mp confirms it."""

    @pytest.mark.parametrize("gamma", [1e-4, 1e-6, 1e-8, 1e-9, 1e-10, 1e-12])
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    @pytest.mark.parametrize("kind", ["positive", "transient"])
    def test_certified_solve(self, tmp_path, capsys, kind, n, gamma):
        path, report = tmp_path / "m.json", tmp_path / "r.json"
        assert cli.main(["gen", kind, "-n", str(n), "--seed", "0", "--gamma", repr(gamma),
                         "--out", str(path)]) == 0
        code = cli.main(["solve", str(path), "--json", str(report), "--quiet"])
        assert code == 0, capsys.readouterr().err
        solution = json.loads(report.read_text())["solution"]
        null = gamma == 1e-12
        assert solution["route"] == ("double" if null
                                     else "right" if kind == "positive" else "left")
        assert (solution["W"] is None) == null


def solved_model_file(tmp_path, kind, n, seed):
    """A generated model's file and the solution set a solve of it certifies."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cli.model_payload(*cli.generate(kind, n, seed))))
    triple, _ = cli.read_model(path)
    return path, reference_solution(triple, classify(triple))


class TestSolutionEncoding:
    """Schema 4 writes each matrix of the "solution" block as base64 of its
    raw little-endian float64 bytes, which decode to the solution set's
    matrix bit for bit."""

    def test_special_values_round_trip(self):
        mat = np.array([[-0.0, 5e-324, np.inf], [-np.inf, np.nan, 1.0 / 3.0]])
        packed = json.loads(json.dumps(cli._packed(mat)))
        assert packed["shape"] == [2, 3] and packed["dtype"] == "<f8"
        assert cli.unpack_matrix(packed).tobytes() == mat.tobytes()

    @pytest.mark.parametrize("n", [1, 4, 64])
    @pytest.mark.parametrize("kind", ["positive", "null", "transient"])
    def test_solution_decodes_bit_identical(self, tmp_path, kind, n):
        path, sol = solved_model_file(tmp_path, kind, n, seed=2)
        report_path = tmp_path / "r.json"
        assert cli.main(["solve", str(path), "--json", str(report_path), "--quiet"]) == 0
        report = json.loads(report_path.read_text())
        solution = report["solution"]
        assert (solution["W"] is None) == (kind == "null")
        for name, mat in (("G", sol.g), ("R", sol.r), ("Ghat", sol.ghat),
                          ("Rhat", sol.rhat), ("W", sol.w)):
            if mat is not None:
                assert solution[name]["shape"] == [n, n]
                assert cli.unpack_matrix(solution[name]).tobytes() == mat.tobytes()
        # via auto, the shift route's decimal G and R are the certified
        # ones, written a second time while the benchmark reads them there
        for name in ("G", "R"):
            decimal = np.asarray(report["shift_route"][name], dtype=float)
            assert decimal.tobytes() == cli.unpack_matrix(solution[name]).tobytes()

    @pytest.mark.parametrize("n", [1, 3, 8, 9])
    @pytest.mark.parametrize("kind", ["positive", "null", "transient"])
    def test_human_matrices_print_as_in_schema_3(self, tmp_path, capsys, kind, n):
        # schema 3 printed each matrix from its decimal list, reshaped to
        # the side round(len ** 0.5), for n <= 8 only
        path, sol = solved_model_file(tmp_path, kind, n, seed=3)
        assert cli.main(["solve", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        block = []
        for name, mat in (("G", sol.g), ("R", sol.r), ("Ghat", sol.ghat), ("Rhat", sol.rhat)):
            flat = cli._flat(mat)
            side = int(round(len(flat) ** 0.5))
            block.append(f"  {name} =")
            block += ["    [" + "  ".join(f"{x: .12g}" for x in row) + "]"
                      for row in np.asarray(flat).reshape(side, side)]
        first = next(i for i, line in enumerate(lines) if line.startswith("equation residual"))
        last = next(i for i, line in enumerate(lines) if line.startswith("shift route"))
        assert lines[first + 1:last] == (block if n <= 8 else [])


class TestBenchRows:
    def test_null_rows_show_acceleration(self):
        rows = cli.bench_rows("null", 4, count=4, seed=0)
        for row in rows:
            assert row["shifted_kind"] == "double"
            assert row["shifted_iterations"] < row["direct_iterations"]
            assert row["recovered_accuracy"] < row["direct_accuracy"]

    def test_transient_rows_have_no_accuracy_probe(self):
        rows = cli.bench_rows("transient", 3, count=2, seed=1)
        for row in rows:
            assert row["direct_accuracy"] is None
            assert row["shifted_kind"] == "left"

    def test_near_null_recurrent_still_accelerates(self):
        rows = cli.bench_rows("positive", 4, count=6, seed=3, gamma=2e-3)
        faster = sum(r["shifted_iterations"] < r["direct_iterations"] for r in rows)
        assert faster >= 0.9 * len(rows)


# A fresh interpreter generates and reads models and runs certified solves
# of every class, then lists the modules that start-up should not pay for;
# pytest and hypothesis import both.
IMPORT_PROBE = """
import json, sys
from pathlib import Path
from qbdshift import cli

for kind in ("positive", "transient", "null"):
    model, report = (str(Path(sys.argv[1], kind + ext)) for ext in (".json", ".out.json"))
    assert cli.main(["gen", kind, "-n", "4", "--seed", "1", "--out", model]) == 0
    cli.read_model(model)
    assert cli.main(["solve", model, "--json", report, "--quiet"]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m == "statistics")))
"""


class TestImportGraph:
    def test_certified_solves_load_no_scipy_or_statistics(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path)],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == []
