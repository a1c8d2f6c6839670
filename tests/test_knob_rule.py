"""The knob rule: each suite declares the ``SuiteConfig`` fields its builder
reads (``SuiteInfo.knobs``), its builder reads exactly those, and a config
that sets any other field is refused (exit 2), naming the field and the
suite. A config built in Python may leave another field at its default, and
is refused once it changes one. So no knob is accepted and then ignored."""

import contextlib
import dataclasses
import io
import json

import pytest

from kernelcex.cli import main
from kernelcex.errors import ConfigError
from kernelcex.harness import SUITES, SuiteConfig, run_suite

FIELDS = [f.name for f in dataclasses.fields(SuiteConfig) if f.name != "suite"]

# Small counts, so that each builder runs in a few milliseconds; the fields a
# builder reads do not depend on their values. Each suite gets only the ones it
# declares.
SMALL = dict(n_points=4, trials=2, projection_trials=3, m_max=5, probes=4, orbit_instances=6, spectra=4)


@pytest.mark.parametrize("suite", SUITES)
def test_each_builder_reads_exactly_its_knobs(suite, monkeypatch):
    config = SuiteConfig(suite=suite, **{k: v for k, v in SMALL.items() if k in SUITES[suite].knobs})
    config.validate()
    reads = set()
    plain = SuiteConfig.__getattribute__

    def traced(self, name):
        if name in FIELDS or name == "suite":
            reads.add(name)
        return plain(self, name)

    # run_suite's environment block echoes the tolerances of every suite, so
    # only the builder is traced.
    monkeypatch.setattr(SuiteConfig, "__getattribute__", traced)
    SUITES[suite].builder(config)
    monkeypatch.undo()
    assert reads == set(SUITES[suite].knobs)


def test_the_suites_declare_53_knobs_of_126():
    assert all(set(info.knobs) <= set(FIELDS) for info in SUITES.values())
    assert len(FIELDS) * len(SUITES) == 126
    assert sum(len(set(info.knobs)) for info in SUITES.values()) == 53
    assert len(UNDECLARED) == 126 - 53


UNDECLARED = [
    pytest.param(suite, knob, id=f"{suite}-{knob}")
    for suite, info in SUITES.items()
    for knob in FIELDS
    if knob not in info.knobs
]


@pytest.mark.parametrize("suite, knob", UNDECLARED)
def test_an_undeclared_knob_exits_2_naming_it_and_the_suite(tmp_path, suite, knob):
    # The field's default value: the refusal is the knob's, not the value's.
    value = SuiteConfig.__dataclass_fields__[knob].default
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({knob: value}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", suite, "--config", str(config)])
    assert code == 2
    assert out.getvalue() == ""
    assert f"config error: config of suite {suite}: unknown keys ['{knob}']" in err.getvalue()


@pytest.mark.parametrize("suite", SUITES)
def test_each_declared_knob_is_accepted(suite):
    defaults = {knob: SuiteConfig.__dataclass_fields__[knob].default for knob in SUITES[suite].knobs}
    assert SuiteConfig.from_dict({"suite": suite, "schema_version": 1, **defaults}) == SuiteConfig(suite)


# A valid value other than the default for every field but seed, which every
# suite reads.
OTHER = dict(n_points=3, trials=2, projection_trials=2, min_sep=0.5, radius=5.0, m_max=5, probes=4,
             group=(2, 3), orbit_instances=3, spectra=3, pd_tol=0.5, resid_tol=0.5, strict_tol=0.5)


@pytest.mark.parametrize("suite, knob", UNDECLARED)
def test_a_python_built_config_that_changes_an_undeclared_knob_is_refused(suite, knob):
    config = SuiteConfig(suite=suite, **{knob: OTHER[knob]})
    with pytest.raises(ConfigError, match=f"^config of suite {suite}: {knob} is not one of its knobs$"):
        config.validate()
    with pytest.raises(ConfigError, match=knob):
        run_suite(config)
    # At its default the field is inert, so the config is accepted.
    SuiteConfig(suite=suite, **{knob: SuiteConfig.__dataclass_fields__[knob].default}).validate()
