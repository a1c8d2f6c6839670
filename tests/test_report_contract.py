"""``tools/report_contract.py``: two trees' reports compared byte for byte,
with the first differing path named."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from kernelcex.harness import SuiteConfig, emit_report, run_suite

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("report_contract", REPO / "tools" / "report_contract.py")
contract = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(contract)

SEEDS = (1, 7)


def _reports(suite):
    return {suite: [emit_report(run_suite(SuiteConfig.from_dict({"suite": suite, "seed": s})), format="json")
                    for s in SEEDS]}


def _planted(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc, indent=2, sort_keys=True)


def test_identical_reports_pass():
    reports = _reports("embed-check")
    lines, ok = contract.compare(reports, reports, SEEDS)
    assert ok
    assert lines == ["embed-check: byte-identical", "2 of 2 reports byte-identical"]


def test_a_one_ulp_float_change_is_reported_with_its_path():
    parent = _reports("embed-check")
    evidence = json.loads(parent["embed-check"][1])["records"][-1]["evidence"]
    assert isinstance(evidence["scale"], float)

    def nudge(doc):
        ev = doc["records"][-1]["evidence"]
        ev["scale"] = float(np.nextafter(ev["scale"], np.inf))

    change = {"embed-check": [parent["embed-check"][0], _planted(parent["embed-check"][1], nudge)]}
    lines, ok = contract.compare(parent, change, SEEDS)
    assert not ok
    path = f".records[{len(json.loads(parent['embed-check'][1])['records']) - 1}].evidence.scale"
    assert lines[0].startswith(f"embed-check: 1 of 2 seeds differ; seed 7: {path}: ")
    assert lines[0].endswith("(within the golden rule)")
    assert lines[1] == "1 of 2 reports byte-identical"


def test_a_changed_verdict_is_outside_the_golden_rule():
    parent = _reports("negative-controls")

    def flip(doc):
        doc["records"][0]["passed"] = not doc["records"][0]["passed"]

    change = {"negative-controls": [_planted(text, flip) for text in parent["negative-controls"]]}
    lines, ok = contract.compare(parent, change, SEEDS)
    assert not ok
    assert lines[0].startswith("negative-controls: 2 of 2 seeds differ; seed 1: .records[0].passed: ")
    assert lines[0].endswith("(outside the golden rule)")


def test_a_suite_missing_from_one_tree_is_a_difference():
    reports = _reports("embed-check")
    lines, ok = contract.compare(reports, {}, SEEDS)
    assert not ok and lines[0] == "embed-check: only in the parent"


def test_a_tree_runs_every_suite_from_its_own_src():
    reports = contract.run_tree(REPO, seeds=(42,))
    assert len(reports) == 9
    golden = REPO / "tests" / "golden"
    for suite, (text,) in reports.items():
        assert contract._mismatches(json.loads((golden / f"{suite}.json").read_text()), json.loads(text)) == []


def test_a_tree_without_src_exits_2(tmp_path, capsys):
    assert contract.main([str(tmp_path), str(REPO)]) == 2
    assert "no src/kernelcex" in capsys.readouterr().err
