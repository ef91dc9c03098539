"""The benchmark's own correctness checks (`qbdbench/checks.py`) on one
model of each workload at seed 1, so that a change to the written
`shift_route` or to a solution set that the benchmark would refuse as
incorrect fails here first. The benchmark's files are imported, never
written, as `tests/report_bank.py` imports `workloads`."""

import json
import sys
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "qbdbench")]

import checks  # noqa: E402
import workloads  # noqa: E402
from qbdshift import cli, model, shift  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_benchmark_checks_pass(workload, tmp_path):
    inst = next(i for i in workloads.instances(workload, 1) if not i.probe)
    path, report_path = tmp_path / "model.json", tmp_path / "report.json"
    workloads.write_model(path, inst)
    assert cli.main(["solve", str(path), "--json", str(report_path), "--quiet"]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert checks.check_report(inst.blocks, inst.kind, report) == []
    triple, _ = cli.read_model(path)
    sol = shift.reference_solution(triple, model.classify(triple))
    assert checks.check_solution(inst.blocks, inst.kind, sol)[0] == []
