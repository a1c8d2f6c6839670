"""Command line interface.

Exit codes: 0 when every check passes, 1 when a mathematical check fails,
2 for configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ConfigError, KernelCexError
from .fourier import analyze, synthesize
from .harness import SuiteConfig, emit_report, list_suites, run_suite
from .kernels import gram
from .numcore import classify
from .serialize import (
    SCHEMA_VERSION,
    _refuse_unknown,
    complex_from_json,
    dumps,
    kernel_from_json,
    map_from_json,
    orbit_to_json,
    point_from_json,
    spectrum_from_json,
    spectrum_to_json,
)
from .spaces import FiniteAbelian, cyclic_orders
from .symmetry import orbit_decompose


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_points(path: str, space) -> list:
    """A point list file: a JSON list, or an object with a "points" list."""
    raw = _load_json(path)
    if isinstance(raw, dict):
        _refuse_unknown(raw, ("points",), path)
        raw = raw.get("points")
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: expected a list of points or an object with a 'points' list")
    return [point_from_json(space, p) for p in raw]


def _cmd_verify(args) -> int:
    data = _load_json(args.config) if args.config else {}
    if not isinstance(data, dict):
        raise ConfigError(f"{args.config}: expected a JSON object of SuiteConfig fields")
    data["suite"] = args.suite
    if args.seed is not None:
        data["seed"] = args.seed
    config = SuiteConfig.from_dict(data)
    report = run_suite(config)
    print(emit_report(report, format=args.format))
    return 0 if report.passed else 1


def _cmd_list_suites(_args) -> int:
    for name, description in list_suites():
        print(f"{name}: {description}")
    return 0


def _cmd_gram(args) -> int:
    kernel = kernel_from_json(_load_json(args.kernel))
    matrix = gram(kernel, _load_points(args.points, kernel.space))
    verdict = classify(matrix)
    out = {
        "schema_version": SCHEMA_VERSION,
        "dim": matrix.dim,
        "gram": matrix.entries,
        "verdict": {
            "kind": verdict.kind.value,
            "min_eigenvalue": verdict.min_eigenvalue,
            "numeric_rank": verdict.numeric_rank,
            "scale": verdict.scale,
            "null_vectors": verdict.null_vectors.T,
        },
    }
    print(dumps(out))
    return 0


def _cmd_orbit(args) -> int:
    phi = map_from_json(_load_json(args.map))
    decomposition = orbit_decompose(phi, _load_points(args.points, phi.space))
    print(dumps(orbit_to_json(phi.space, decomposition)))
    return 0


def _cmd_fourier(args) -> int:
    group = FiniteAbelian(cyclic_orders(args.group.split(","), "group"))
    data = _load_json(args.input)
    if not isinstance(data, (list, dict)):
        raise ConfigError(f"{args.input}: expected a JSON list or object")
    if args.mode == "analyze":
        if not isinstance(data, list):
            raise ConfigError(f"{args.input}: analyze expects a JSON list of values, not an object")
        values = np.asarray([complex_from_json(v) for v in data])
        spectrum = analyze(values, group)
        print(dumps(spectrum_to_json(spectrum)))
        return 0
    if isinstance(data, list):
        data = {"group": list(group.orders), "coefficients": data}
    data.setdefault("group", list(group.orders))
    spectrum = spectrum_from_json(data)
    if tuple(spectrum.group.orders) != tuple(group.orders):
        raise ConfigError("group: --group disagrees with the spectrum file")
    values = synthesize(spectrum)
    print(dumps({"schema_version": SCHEMA_VERSION, "group": list(group.orders), "values": values}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelcex",
        description=(
            "Construct matrix-valued positive definite kernels whose Gram "
            "matrices degenerate while every scalar projection stays strictly "
            "positive definite, and verify the claims numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", help="suite id; see list-suites")
    p_verify.add_argument("--config", help="JSON file with SuiteConfig overrides")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_list = sub.add_parser("list-suites", help="list shipped suites")
    p_list.set_defaults(func=_cmd_list_suites)

    p_gram = sub.add_parser("gram", help="Gram matrix and verdict for a kernel config")
    p_gram.add_argument("--kernel", required=True, help="kernel config JSON file")
    p_gram.add_argument("--points", required=True, help="JSON file with a point list")
    p_gram.set_defaults(func=_cmd_gram)

    p_orbit = sub.add_parser("orbit", help="orbit decomposition of a point list")
    p_orbit.add_argument("--map", required=True, help="map config JSON file")
    p_orbit.add_argument("--points", required=True, help="JSON file with a point list")
    p_orbit.set_defaults(func=_cmd_orbit)

    p_fourier = sub.add_parser("fourier", help="analyze or synthesize on a finite abelian group")
    fourier_sub = p_fourier.add_subparsers(dest="mode", required=True)
    for mode in ("analyze", "synthesize"):
        p_mode = fourier_sub.add_parser(mode)
        p_mode.add_argument("--group", required=True, help="comma-separated cyclic orders, e.g. 2,3")
        p_mode.add_argument("--input", required=True, help="JSON input file")
        p_mode.set_defaults(func=_cmd_fourier, mode=mode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (KernelCexError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
