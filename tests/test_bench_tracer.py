"""A traced run of the benchmark changes no report and leaves no wrapper behind.

``bench/tracing.py`` replaces functions by identity in every kernelcex module
that binds them and counts calls of each leaf kernel's ``eval``. A function
that moves between modules, or a binding the tracer misses, could make a
traced round compute something else, or leave a wrapper installed after
``uninstall``. This test only reads ``bench/tracing.py``: it runs every
suite at one seed untraced and under ``Installation(Recorder())``.
"""

import importlib.util
import sys
from pathlib import Path

import kernelcex.cli  # noqa: F401  (the tracer also wraps the CLI's json binding)
from kernelcex import harness, kernels

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


def _reports() -> dict[str, str]:
    """Each suite's JSON report at seed 1, through the module bindings the tracer replaces."""
    return {
        name: harness.emit_report(harness.run_suite(harness.SuiteConfig.from_dict({"suite": name, "seed": 1})),
                                  format="json")
        for name, _ in harness.list_suites()
    }


def _bindings() -> dict:
    """Every attribute of every kernelcex module, and each leaf kernel's ``eval``."""
    modules = {name: dict(vars(m)) for name, m in sys.modules.items() if name.startswith("kernelcex")}
    evals = {name: getattr(kernels, name).eval for name in tracing.LEAF_KERNELS}
    return {"modules": modules, "evals": evals}


def _same(a: dict, b: dict) -> bool:
    """Equal keys, and the same object under each key."""
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_a_traced_run_changes_no_report_and_restores_every_binding():
    untraced = _reports()
    before = _bindings()
    recorder = tracing.Recorder()
    installation = tracing.Installation(recorder)
    try:
        traced = _reports()
    finally:
        installation.uninstall()
    after = _bindings()

    assert {f"harness.run_suite.{name}" for name in untraced} <= recorder.stats.keys()
    assert traced == untraced
    assert before["modules"].keys() <= after["modules"].keys()
    for name, attrs in before["modules"].items():
        assert _same(attrs, after["modules"][name]), name
    assert _same(before["evals"], after["evals"])
