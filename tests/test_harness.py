import collections
import json

import numpy as np
import pytest

from kernelcex import counterexample, harness
from kernelcex.cli import main
from kernelcex.counterexample import build_shifted, build_unitary
from kernelcex.errors import ConfigError
from kernelcex.kernels import CircleExpCos, DotExp
from kernelcex.spaces import Circle, Euclidean
from kernelcex.symmetry import CircleRotation, EuclideanScaling
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


def test_abelian_suite_refuses_n_points(tmp_path, capsys):
    # No abelian suite reads n_points, so a config that sets it is refused.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"group": [2, 3], "n_points": 1}))
    assert main(["verify", "abelian-roundtrip", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "abelian-roundtrip" in err and "unknown keys ['n_points']" in err


def test_abelian_strictness_classifies_at_the_configured_pd_tol():
    default = run_suite(SuiteConfig(suite="abelian-strictness"))
    loose = run_suite(SuiteConfig.from_dict({"suite": "abelian-strictness", "pd_tol": 0.99}))
    assert default.passed
    assert loose.records != default.records
    assert loose.records[0].evidence["disagreements"] > 0


@pytest.mark.parametrize(
    "suite", ["circle-example1", "gaussian-example1", "dotproduct-example1", "complex-sphere"]
)
def test_reports_do_not_depend_on_the_trial_chunk(monkeypatch, suite):
    config = SuiteConfig(suite=suite, seed=3, trials=7)
    want = emit_report(run_suite(config), format="json")
    for chunk in (1, 3, 20):
        monkeypatch.setattr(harness, "_TRIAL_CHUNK", chunk)
        assert emit_report(run_suite(config), format="json") == want


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
    assert json.loads(emit_report(report, format="json")) == report.to_dict()


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
    small = {"orbit_instances": 60, "spectra": 30}
    config = SuiteConfig(suite=suite, **{k: v for k, v in small.items() if k in harness.SUITES[suite].knobs})
    report = run_suite(config)
    assert report.passed, emit_report(report, format="text")


@pytest.mark.parametrize(
    "suite", ["gaussian-example1", "dotproduct-example1", "complex-sphere"]
)
def test_heavy_suites_pass_with_reduced_trials(suite):
    config = SuiteConfig(suite=suite, trials=3, projection_trials=5, n_points=6, probes=16)
    report = run_suite(config)
    assert report.passed, emit_report(report, format="text")


def _count_witness_work(monkeypatch) -> collections.Counter:
    """Count the Gram builds, classifications and eigh calls made from here on."""
    calls = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for module in (counterexample, harness):
        monkeypatch.setattr(module, "gram", counting("gram", module.gram))
        monkeypatch.setattr(module, "classify", counting("classify", module.classify))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    return calls


def test_a_witness_record_builds_one_gram_and_runs_one_eigh(monkeypatch):
    cex = build_unitary(CircleExpCos(Circle()), CircleRotation(Circle(), 1.0))
    calls = _count_witness_work(monkeypatch)
    record = harness._witness_record(SuiteConfig("circle-example1"), cex, 0.0)
    assert record.passed
    assert calls == {"gram": 1, "classify": 1, "eigh": 1}


def test_the_padded_witness_record_builds_one_gram_and_runs_one_eigh(monkeypatch):
    calls = _count_witness_work(monkeypatch)
    records = harness._suite_embed(SuiteConfig("embed-check"))
    assert [r.name for r in records][-1] == "padded-witness-degeneracy"
    assert records[-1].passed
    assert set(records[-1].evidence) == {"min_eigenvalue", "scale", "annihilation_residual"}
    assert calls == {"gram": 1, "classify": 1, "eigh": 1}


def test_embed_check_contracts_pair_values_without_projecting(monkeypatch):
    def refuse(*args):
        raise AssertionError("embed-check built a projected kernel")

    monkeypatch.setattr(harness, "project", refuse)
    records = harness._suite_embed(SuiteConfig("embed-check"))
    assert all(r.passed for r in records)
    assert records[0].evidence["vectors"] == 30
    assert records[0].evidence["max_pointwise_diff"] == records[1].evidence["max_pointwise_diff"] == 0.0


def test_a_witness_at_the_shifted_origin_is_a_failed_record():
    plane = Euclidean(2)
    cex = build_shifted(DotExp(plane), EuclideanScaling(plane, 2.0), np.zeros(2))
    record = harness._witness_record(SuiteConfig("dotproduct-example1"), cex, np.zeros(2))
    assert not record.passed
    assert "distinct from the origin" in record.evidence["error"]
