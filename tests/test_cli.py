import json

import numpy as np
import pytest

from qbdshift import Kind, classify
from qbdshift import cli


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


class TestModelFiles:
    def test_round_trip_is_bit_faithful(self, tmp_path):
        triple, meta = cli.generate("transient", 3, seed=11)
        path = tmp_path / "m.json"
        cli.write_model(path, triple, meta)
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
        assert report["schema"] == 1
        assert report["classification"]["kind"] == "positive-recurrent"
        assert report["direct"]["G"] == [pytest.approx(1.0, abs=1e-12)]
        assert report["direct"]["R"] == [pytest.approx(0.6, abs=1e-12)]
        assert report["certificate_summary"]["fail"] == 0

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
        path = write_scalar_model(tmp_path, (0.4, 0.2, 0.4))
        out_path = tmp_path / "report.json"
        code = cli.main(["solve", str(path), "--quiet", "--via", "double",
                         "--json", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        route = report["shift_route"]
        assert route["kind"] == "double"
        assert route["G"] == [pytest.approx(1.0, abs=1e-10)]
        assert route["R"] == [pytest.approx(1.0, abs=1e-10)]
        assert route["iterations"] < report["direct"]["iterations"]["G"]
        assert route["recovery_residual"] <= 1e-10

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["solve", str(path)]) == cli.EXIT_PARSE

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["solve", str(tmp_path / "nope.json")]) == cli.EXIT_PARSE

    def test_validation_error_exit_code(self, tmp_path):
        path = write_scalar_model(tmp_path, (0.5, 0.6, 0.3))
        assert cli.main(["solve", str(path)]) == cli.EXIT_VALIDATION

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
        monkeypatch.setattr(cli.solvers, "solve_all", boom)
        assert cli.main(["solve", str(path), "--quiet"]) == cli.EXIT_SOLVER

    @pytest.mark.parametrize("kind, expected", [("positive", 4), ("null", 5)])
    def test_roots_computed_once(self, tmp_path, monkeypatch, kind, expected):
        # classify, then one pencil per shift kind; a null model adds the
        # reversed model's classify in reference_solution
        from qbdshift import matpoly

        calls = []
        real_roots = matpoly.roots

        def counted(*args, **kwargs):
            calls.append(args)
            return real_roots(*args, **kwargs)

        path = tmp_path / "gen.json"
        assert cli.main(["gen", kind, "-n", "4", "--seed", "1", "--out", str(path)]) == 0
        monkeypatch.setattr(matpoly, "roots", counted)
        cli.read_model(path)
        assert not calls
        assert cli.main(["solve", str(path), "--quiet"]) == 0
        assert len(calls) == expected

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
