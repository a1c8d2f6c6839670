import json

import pytest

from kernelcex.errors import ConfigError
from kernelcex.harness import (
    SuiteConfig,
    SuiteReport,
    emit_report,
    list_suites,
    run_suite,
)

FAST = SuiteConfig(
    suite="circle-example1", seed=7, trials=3, projection_trials=5, n_points=6, probes=16
)


def test_list_suites_catalog():
    names = [name for name, _ in list_suites()]
    assert names == [
        "circle-example1",
        "gaussian-example1",
        "dotproduct-example1",
        "orbit-decomposition",
        "abelian-roundtrip",
        "abelian-strictness",
        "embed-check",
        "complex-sphere",
        "negative-controls",
    ]


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        SuiteConfig(suite="nope").validate()


def test_unknown_config_field_rejected():
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"suite": "circle-example1", "bogus": 1})


def test_nonpositive_counts_rejected():
    with pytest.raises(ConfigError):
        SuiteConfig(suite="circle-example1", trials=0).validate()


def test_negative_seed_rejected():
    # numpy's seed sequence takes no negative entropy.
    with pytest.raises(ConfigError, match="seed"):
        SuiteConfig.from_dict({"suite": "negative-controls", "seed": -1})
    SuiteConfig.from_dict({"suite": "negative-controls", "seed": 0})


def test_too_many_points_for_group_rejected():
    with pytest.raises(ConfigError):
        SuiteConfig(suite="abelian-roundtrip", group=(2, 3), n_points=7).validate()


def test_run_suite_records_carry_claims():
    report = run_suite(FAST)
    assert report.passed
    assert all(r.claim for r in report.records)
    assert report.environment["seed"] == 7


def test_reports_are_deterministic():
    a = run_suite(FAST)
    b = run_suite(FAST)
    assert a.to_dict() == b.to_dict()
    assert emit_report(a, format="json") == emit_report(b, format="json")


def test_report_json_roundtrip():
    report = run_suite(FAST)
    data = json.loads(emit_report(report, format="json"))
    rebuilt = SuiteReport.from_dict(data)
    assert rebuilt.to_dict() == report.to_dict()


def test_empty_report_passes():
    report = SuiteReport(suite="circle-example1", records=[], environment={})
    assert report.passed
    assert report.to_dict()["status"] == "pass"


def test_text_format_mentions_every_record():
    report = run_suite(FAST)
    text = emit_report(report, format="text")
    for record in report.records:
        assert record.name in text
    assert "PASS" in text


def test_unknown_format_rejected():
    with pytest.raises(ConfigError):
        emit_report(run_suite(FAST), format="yaml")


@pytest.mark.parametrize(
    "suite",
    [
        "orbit-decomposition",
        "abelian-roundtrip",
        "abelian-strictness",
        "embed-check",
        "negative-controls",
    ],
)
def test_fast_suites_pass_with_default_config(suite):
    config = SuiteConfig(suite=suite, orbit_instances=60, spectra=30)
    report = run_suite(config)
    assert report.passed, emit_report(report, format="text")


@pytest.mark.parametrize(
    "suite", ["gaussian-example1", "dotproduct-example1", "complex-sphere"]
)
def test_heavy_suites_pass_with_reduced_trials(suite):
    config = SuiteConfig(suite=suite, trials=3, projection_trials=5, n_points=6, probes=16)
    report = run_suite(config)
    assert report.passed, emit_report(report, format="text")
