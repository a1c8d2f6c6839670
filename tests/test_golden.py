"""Every suite's default-config JSON report against a stored golden report.

The goldens in ``tests/golden/`` were written by
``kernelcex verify <suite> --format json`` before the kernels were
vectorised. Status, verdicts, counts and strings must match exactly; floats
must match within ``RTOL`` relative or ``ATOL`` absolute, the absolute floor
covering residuals that sit at rounding level (1e-16 and below), where a
change of summation order moves the last digits.
"""

import json
import math
from pathlib import Path

import pytest

from kernelcex.harness import SuiteConfig, emit_report, list_suites, run_suite

GOLDEN_DIR = Path(__file__).parent / "golden"
RTOL = 1e-9
ATOL = 1e-14


def _mismatches(want, got, path="") -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(want) != set(got):
            return [f"{path}: keys differ"]
        return [m for key in want for m in _mismatches(want[key], got[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            return [f"{path}: lengths differ"]
        return [m for i, (w, g) in enumerate(zip(want, got)) for m in _mismatches(w, g, f"{path}[{i}]")]
    if isinstance(want, float):
        if isinstance(got, float) and math.isclose(want, got, rel_tol=RTOL, abs_tol=ATOL):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    # bool, int, str and None compare exactly; a type change is a mismatch too.
    if type(want) is not type(got) or want != got:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def test_goldens_cover_every_suite():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(n for n, _ in list_suites())


@pytest.mark.parametrize("suite", [name for name, _ in list_suites()])
def test_report_matches_golden(suite):
    want = json.loads((GOLDEN_DIR / f"{suite}.json").read_text())
    got = json.loads(emit_report(run_suite(SuiteConfig(suite)), format="json"))
    assert _mismatches(want, got) == []


def test_comparison_catches_a_changed_count_and_a_drifted_float():
    want = {"records": [{"evidence": {"definite": 1000, "min_eigenvalue": 0.25}}]}
    assert _mismatches(want, want) == []
    bad_count = {"records": [{"evidence": {"definite": 999, "min_eigenvalue": 0.25}}]}
    bad_float = {"records": [{"evidence": {"definite": 1000, "min_eigenvalue": 0.25 * (1 + 1e-8)}}]}
    assert len(_mismatches(want, bad_count)) == 1
    assert len(_mismatches(want, bad_float)) == 1
