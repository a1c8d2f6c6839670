"""One table of documents with a key that names no field, run through every
public decoder and through the CLI commands that read documents. Each is a
``ConfigError`` (exit 2 on the CLI) whose message names the key, so that a
misspelled field never yields a verdict for a different object. A
``schema_version`` other than the one kernelcex writes is refused the same
way, by name."""

import contextlib
import io
import json

import pytest

from kernelcex import serialize
from kernelcex.cli import main
from kernelcex.errors import ConfigError
from kernelcex.harness import SuiteConfig
from kernelcex.serialize import SCHEMA_VERSION

CIRCLE = {"kind": "circle"}
LINE = {"kind": "euclidean", "dim": 1}
CIRCLE_KERNEL = {"form": "circle_exp_cos", "space": CIRCLE}
ROTATION = {"space": CIRCLE, "action_kind": "circle_rotation", "parameters": {"angle": 1.0}}
CIRCLE_GRID = {"variant": "unitary", "base": CIRCLE_KERNEL, "map": ROTATION}
SPECTRUM = {"group": [2], "coefficients": [0.5, 0.25]}

# id -> (decoder, a document with the stray key, the key).
DECODERS = {
    "space": (serialize.space_from_json, {**CIRCLE, "eq_tl": 1e-9}, "eq_tl"),
    "scalar-kernel": (serialize.scalar_kernel_from_json,
                      {"form": "gaussian", "space": LINE, "sigam": 2.0}, "sigam"),
    "nested-space": (serialize.scalar_kernel_from_json,
                     {"form": "gaussian", "space": {**LINE, "dims": 2}}, "dims"),
    "map": (serialize.map_from_json, {**ROTATION, "adjiont": "self"}, "adjiont"),
    "map-parameters": (serialize.map_from_json, {**ROTATION, "parameters": {"angel": 1.0}}, "angel"),
    "map-parameters-space": (serialize.map_from_json,
                             {**ROTATION, "parameters": {"angle": 1.0, "space": CIRCLE}}, "space"),
    "matrix-kernel": (serialize.matrix_kernel_from_json,
                      {"space": CIRCLE, "ell": 1, "entries": [[CIRCLE_KERNEL]], "form": "grid"}, "form"),
    "counterexample": (serialize.counterexample_from_json, {**CIRCLE_GRID, "orign": 0.0}, "orign"),
    "kernel": (serialize.kernel_from_json, {**CIRCLE_GRID, "orign": 0.0}, "orign"),
    "spectrum": (serialize.spectrum_from_json, {**SPECTRUM, "residual": 0.0}, "residual"),
    "suite-config": (SuiteConfig.from_dict, {"suite": "negative-controls", "pd_toll": 1e-9}, "pd_toll"),
    "spectrum-schema_version": (serialize.spectrum_from_json, {**SPECTRUM, "schema_version": 99}, "schema_version"),
}

GRAM = ["gram", "--kernel", "{k}", "--points", "{p}"]
# id -> (argv with {file} placeholders, the files, the stray key).
COMMANDS = {
    "gram-kernel": (GRAM, {"k": {**CIRCLE_KERNEL, "sigma": 1.0}, "p": [0.0, 1.0]}, "sigma"),
    "gram-points": (GRAM, {"k": CIRCLE_KERNEL, "p": {"points": [0.0, 1.0], "point": [2.0]}}, "point"),
    "orbit-map": (["orbit", "--map", "{m}", "--points", "{p}"],
                  {"m": {**ROTATION, "parameters": {"angle": 1.0, "angel": 2.0}}, "p": [0.0, 2.0]}, "angel"),
    "synthesize": (["fourier", "synthesize", "--group", "2", "--input", "{s}"],
                   {"s": {**SPECTRUM, "coefficient": [1.0]}}, "coefficient"),
    "verify-config": (["verify", "negative-controls", "--config", "{c}"], {"c": {"trails": 1}}, "trails"),
    "verify-schema_version": (["verify", "negative-controls", "--config", "{c}"],
                              {"c": {"schema_version": 99}}, "schema_version"),
}


def _refusal(key):
    """The message fragment that names the refused key."""
    if key == "schema_version":
        return f"schema_version: expected {SCHEMA_VERSION}, got 99"
    return f"unknown keys ['{key}']"


@pytest.mark.parametrize("site_id", DECODERS)
def test_a_decoder_refuses_an_unknown_key_by_name(site_id):
    decode, doc, key = DECODERS[site_id]
    with pytest.raises(ConfigError) as info:
        decode(doc)
    assert _refusal(key) in str(info.value)


@pytest.mark.parametrize("site_id", COMMANDS)
def test_a_command_exits_2_naming_an_unknown_key(tmp_path, site_id):
    argv, files, key = COMMANDS[site_id]
    paths = {}
    for name, payload in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths["{" + name + "}"] = str(path)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([paths.get(arg, arg) for arg in argv])
    assert code == 2
    assert _refusal(key) in err.getvalue()
