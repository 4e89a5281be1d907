"""The benchmark's correctness oracle (``perfbench/workloads.py``, loaded
from its file and left unchanged) reads what the CLI now emits."""

import importlib.util
import json
import sys
from pathlib import Path

import jsonschema

from dimerdet.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_oracle_rejects_a_verify_report_with_an_error_row(tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    assert workloads.self_check() == []
    out = tmp_path / "verify.json"
    # three-way-e raises at its operator cap here; the other nine rows pass
    assert main(["verify", "--identity", "all", "--t", "0.0229",
                 "--format", "json", "--output", str(out)]) == 3
    report = json.loads(out.read_text())
    schema = json.loads((ROOT / "schemas" / "output.schema.json").read_text())
    jsonschema.validate(report, schema, cls=jsonschema.Draft202012Validator)
    assert [row["identity"] for row in report["rows"] if row["status"] != "pass"] \
        == ["three-way-e"]
    verdict = workloads.check_verify_rows(report["rows"])
    assert isinstance(verdict, str) and "three-way-e" in verdict
