"""The benchmark tracer's hooks resolve in the package.

``bench/tracing.py`` wraps functions by (module, attribute) name and
counts calls of ``harness._draw`` and of each leaf kernel's ``eval``. A
deletion or rename of one of them breaks traced benchmark runs with an
``AttributeError`` while every other test stays green. This test only
reads ``bench/tracing.py``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module, attr", [target for targets in tracing.SPANS.values() for target in targets]
)
def test_span_targets_exist(module, attr):
    assert callable(getattr(importlib.import_module(f"kernelcex.{module}"), attr))


def test_counted_hooks_exist():
    harness = importlib.import_module("kernelcex.harness")
    kernels = importlib.import_module("kernelcex.kernels")
    fourier = importlib.import_module("kernelcex.fourier")
    cli = importlib.import_module("kernelcex.cli")
    assert callable(harness._draw) and callable(harness.run_suite)
    for name in tracing.LEAF_KERNELS:
        assert callable(getattr(kernels, name).eval)
    assert callable(fourier.character_table.cache_info)
    assert callable(cli.json.load) and callable(cli.json.dumps)
