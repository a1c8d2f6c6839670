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

import numpy as np
import pytest

from kernelcex.harness import SuiteConfig, emit_report, list_suites, run_suite
from kernelcex.kernels import gram
from kernelcex.numcore import PDKind, classify
from kernelcex.serialize import complex_to_json, kernel_from_json, matrix_to_json

GOLDEN_DIR = Path(__file__).parent / "golden"
RTOL = 1e-9
ATOL = 1e-14


def _mismatches(want, got, path="", rtol=RTOL, atol=ATOL) -> list[str]:
    """Every path at which got differs from want under the golden rule
    (``rtol=atol=0`` makes it exact)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(want) != set(got):
            return [f"{path}: keys differ"]
        return [m for key in want for m in _mismatches(want[key], got[key], f"{path}.{key}", rtol, atol)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            return [f"{path}: lengths differ"]
        return [m for i, (w, g) in enumerate(zip(want, got)) for m in _mismatches(w, g, f"{path}[{i}]", rtol, atol)]
    if isinstance(want, float):
        if isinstance(got, float) and math.isclose(want, got, rel_tol=rtol, abs_tol=atol):
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
    out = emit_report(run_suite(SuiteConfig(suite)), format="json")
    got = json.loads(out)
    assert _mismatches(want, got) == []
    assert out == json.dumps(got, indent=2, sort_keys=True)


# ``verify <suite> --seed <seed> --format json`` at further seeds, stored as
# ``seeds/<suite>-seed<seed>.json`` and compared byte for byte: the orbit
# reports were written before the orbit split moved to point stacks, the
# abelian ones before the group path moved to arrays, the circle, gaussian
# and dotproduct ones before the sampler became one stacked pass. The
# complex-sphere ones were written after its scalar operations became
# one-row views of the stacked ones, which moved some floats by an ulp.
# The embed-check and negative-controls ones were written before the
# degeneracy witness carried its own Gram and verdict.
SEED_GOLDENS = sorted(p.stem for p in (GOLDEN_DIR / "seeds").glob("*.json"))


def test_seed_goldens_cover_the_orbit_and_abelian_suites():
    suites = {stem.rsplit("-seed", 1)[0] for stem in SEED_GOLDENS}
    assert suites == {
        "orbit-decomposition",
        "abelian-roundtrip",
        "abelian-strictness",
        "circle-example1",
        "gaussian-example1",
        "dotproduct-example1",
        "complex-sphere",
        "embed-check",
        "negative-controls",
    }


@pytest.mark.parametrize("stem", SEED_GOLDENS)
def test_report_at_seed_is_byte_identical(stem, capsys):
    from kernelcex.cli import main

    suite, seed = stem.rsplit("-seed", 1)
    assert main(["verify", suite, "--seed", seed, "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "seeds" / f"{stem}.json").read_text()


def test_comparison_catches_a_changed_count_and_a_drifted_float():
    want = {"records": [{"evidence": {"definite": 1000, "min_eigenvalue": 0.25}}]}
    assert _mismatches(want, want) == []
    bad_count = {"records": [{"evidence": {"definite": 999, "min_eigenvalue": 0.25}}]}
    bad_float = {"records": [{"evidence": {"definite": 1000, "min_eigenvalue": 0.25 * (1 + 1e-8)}}]}
    assert len(_mismatches(want, bad_count)) == 1
    assert len(_mismatches(want, bad_float)) == 1


# CLI commands whose stdout is pinned in ``tests/golden_cli/<name>.json``.
# Each input file name maps to its JSON payload; the stored outputs were
# written by the commands below before the serialization code was
# consolidated, so they pin the decoders as well as the encoders.
CIRCLE_GRID = {
    "variant": "unitary",
    "base": {"form": "circle_exp_cos", "space": {"kind": "circle"}},
    "map": {
        "space": {"kind": "circle"},
        "action_kind": "circle_rotation",
        "parameters": {"angle": 1.0},
    },
}
CLI_CASES = {
    "gram": (
        ["gram", "--kernel", "{kernel.json}", "--points", "{points.json}"],
        {"kernel.json": CIRCLE_GRID, "points.json": [0.0, 1.0, 2.5, -1.3, -2.9, 3.0]},
    ),
    "orbit": (
        ["orbit", "--map", "{map.json}", "--points", "{points.json}"],
        {
            "map.json": {
                "space": {"kind": "euclidean", "dim": 2},
                "action_kind": "euclidean_translation",
                "parameters": {"offset": [1.0, 0.5]},
                "adjoint": "inverse",
            },
            "points.json": {"points": [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0], [-3.0, 4.0], [5.0, -1.0]]},
        },
    ),
    "fourier-analyze": (
        ["fourier", "analyze", "--group", "2,3", "--input", "{psi.json}"],
        {"psi.json": [[2.0, 0.0], 0.5, [0.5, 0.0], 1.0, [0.25, 0.1], [0.25, -0.1]]},
    ),
    "fourier-synthesize": (
        ["fourier", "synthesize", "--group", "2,3", "--input", "{spectrum.json}"],
        {"spectrum.json": {"coefficients": [0.5, 0.25, 0.125, 1.0, 0.75, 0.0625]}},
    ),
}
CLI_GOLDEN_DIR = Path(__file__).parent / "golden_cli"


def run_cli_case(name, directory):
    """Write the case's input files to ``directory`` and return its argv."""
    argv, files = CLI_CASES[name]
    paths = {}
    for file_name, payload in files.items():
        path = Path(directory) / file_name
        path.write_text(json.dumps(payload))
        paths["{" + file_name + "}"] = str(path)
    return [paths.get(arg, arg) for arg in argv]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    from kernelcex.cli import main

    assert main(run_cli_case(name, tmp_path)) == 0
    want = json.loads((CLI_GOLDEN_DIR / f"{name}.json").read_text())
    out = capsys.readouterr().out
    got = json.loads(out)
    assert _mismatches(want, got) == []
    assert out == json.dumps(got, indent=2, sort_keys=True) + "\n"


def test_large_gram_output_is_byte_identical_to_json_dumps(tmp_path, capsys):
    """100 circle angles with the pair {x, x + 1}: a 200 x 200 Gram with a
    degenerate verdict, written as json.dumps writes its nested-list form."""
    from kernelcex.cli import main

    rng = np.random.default_rng(3)
    angles = list(np.linspace(-3.0, 3.0, 99) + rng.uniform(-0.01, 0.01, 99))
    angles.append(angles[40] + 1.0)
    kernel = kernel_from_json(CIRCLE_GRID)
    matrix = gram(kernel, [kernel.space.canonicalize(a) for a in angles])
    verdict = classify(matrix)
    assert matrix.dim == 200 and verdict.kind is PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE
    doc = {
        "schema_version": 1,
        "dim": matrix.dim,
        "gram": matrix_to_json(matrix.entries),
        "verdict": {
            "kind": verdict.kind.value,
            "min_eigenvalue": verdict.min_eigenvalue,
            "numeric_rank": verdict.numeric_rank,
            "scale": verdict.scale,
            "null_vectors": [
                [complex_to_json(z) for z in verdict.null_vectors[:, j]]
                for j in range(verdict.null_vectors.shape[1])
            ],
        },
    }
    (tmp_path / "kernel.json").write_text(json.dumps(CIRCLE_GRID))
    (tmp_path / "points.json").write_text(json.dumps(angles))
    argv = ["gram", "--kernel", str(tmp_path / "kernel.json"), "--points", str(tmp_path / "points.json")]
    assert main(argv) == 0
    assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
