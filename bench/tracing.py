"""Span recorder and count metrics for the traced benchmark run.

Spans are recorded from outside the program: ``Installation`` replaces each
layer's public functions with timing wrappers in every kernelcex module that
binds them (``gram`` is bound separately in ``kernels``, ``harness``,
``counterexample`` and ``fourier``, for instance), and its ``uninstall``
puts the originals back. Nothing is installed in an untraced run.

A span's self time is its duration minus the time covered by the spans it
encloses. Spans are aggregated per name as they close, so memory stays flat
however long the run is.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter

# Span name -> (module, attribute) pairs it wraps.
SPANS = {
    "kernels.gram": [("kernels", "gram")],
    "kernels.check_invariance": [
        ("kernels", "check_unitary_invariance"),
        ("kernels", "check_adjoint_invariance"),
    ],
    "kernels.project": [("kernels", "project")],
    "spaces.pairwise_distinct": [("spaces", "pairwise_distinct")],
    "spaces.sample_distinct": [("spaces", "sample_distinct")],
    "harness.sample_merged": [("harness", "_sample_merged")],
    "harness.emit_report": [("harness", "emit_report")],
    "numcore.classify": [("numcore", "classify")],
    "symmetry.orbit_decompose": [("symmetry", "orbit_decompose")],
    "symmetry.evidence": [
        ("symmetry", "check_aperiodic"),
        ("symmetry", "check_center"),
        ("symmetry", "check_injective_on"),
    ],
    "counterexample.build": [
        ("counterexample", "build_unitary"),
        ("counterexample", "build_adjoint"),
        ("counterexample", "build_shifted"),
        ("counterexample", "embed"),
    ],
    "counterexample.witness": [("counterexample", "witness")],
    "fourier.character_table": [("fourier", "character_table")],
    "fourier.analyze": [("fourier", "analyze")],
    "fourier.synthesize": [("fourier", "synthesize")],
    "fourier.brute_force_strict": [("fourier", "brute_force_strict")],
    "fourier.strict_criterion": [("fourier", "strict_criterion")],
    "serialize.decode": [
        ("serialize", "kernel_from_json"),
        ("serialize", "map_from_json"),
        ("serialize", "point_from_json"),
        ("serialize", "spectrum_from_json"),
    ],
    "serialize.encode": [
        ("serialize", "complex_to_json"),
        ("serialize", "matrix_to_json"),
        ("serialize", "orbit_to_json"),
        ("serialize", "spectrum_to_json"),
    ],
    "cli.main": [("cli", "main")],
}

# Leaf kernels whose ``eval`` computes a base formula; wrapper kernels
# (Composed, OffsetKernel, ProjectedKernel) reach the formula through them.
LEAF_KERNELS = ("CircleExpCos", "Gaussian", "DotExp", "TorusProduct", "GroupFourier")

SUITE_NAMES = (
    "circle-example1",
    "gaussian-example1",
    "dotproduct-example1",
    "orbit-decomposition",
    "abelian-roundtrip",
    "abelian-strictness",
    "embed-check",
    "complex-sphere",
    "negative-controls",
)


class Recorder:
    """Per-name span totals, counters and parent->child call counts."""

    def __init__(self):
        self._stack: list[list] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()  # "parent>child" -> calls

    def wrap(self, name, fn, after=None):
        """Time ``fn`` as a span; ``name`` may be a function of the call's
        arguments, and ``after(recorder, args, kwargs, result)`` records
        counts once the call returns."""
        stack, stats, edges = self._stack, self.stats, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = stack[-1][0] if stack else ""
            frame = [label, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                entry = stats.setdefault(label, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[1]
                edges[f"{parent}>{label}"] += 1
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def counter(self, key, fn, within=None):
        """Count calls of ``fn``; with ``within``, only calls made while that
        span is the innermost open one."""
        counts, stack = self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if within is None or (stack and stack[-1][0] == within):
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "edges": dict(self.edges),
        }


def _count_gram(rec, args, kwargs, result):
    rec.counts["gram_entries"] += result.dim * result.dim


def _count_classify(rec, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    dim = getattr(matrix, "dim", None) or len(matrix)
    rec.counts["classify_dim_cubed"] += dim**3


def _count_orbit(rec, args, kwargs, result):
    rec.counts["orbit_points"] += len(result.F) + result.p


def _count_sample_merged(rec, args, kwargs, result):
    if kwargs.get("cond_kernel") is not None:
        rec.counts["cond_accepts"] += 1


def _suite_span(args, kwargs):
    config = args[0] if args else kwargs["config"]
    return f"harness.run_suite.{config.suite}"


AFTER = {
    "kernels.gram": _count_gram,
    "numcore.classify": _count_classify,
    "symmetry.orbit_decompose": _count_orbit,
    "harness.sample_merged": _count_sample_merged,
}


class Installation:
    """The set of replaced attributes; ``uninstall`` restores them."""

    def __init__(self, recorder: Recorder):
        self._saved: list[tuple[object, str, object]] = []
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("kernelcex")]
        for span, targets in SPANS.items():
            for module, attr in targets:
                if f"kernelcex.{module}" not in sys.modules:
                    continue  # the in-process workloads never import the CLI
                original = getattr(sys.modules[f"kernelcex.{module}"], attr)
                self._replace_everywhere(modules, original, recorder.wrap(span, original, AFTER.get(span)))
        harness = sys.modules["kernelcex.harness"]
        self._replace_everywhere(modules, harness.run_suite, recorder.wrap(_suite_span, harness.run_suite))
        self._set(harness, "_draw", recorder.counter("draws", harness._draw, "harness.sample_merged"))
        kernels = sys.modules["kernelcex.kernels"]
        for cls_name in LEAF_KERNELS:
            cls = getattr(kernels, cls_name)
            self._set(cls, "eval", recorder.counter("evals", cls.eval))
        cli = sys.modules.get("kernelcex.cli")
        if cli is not None:
            # The CLI reads and writes JSON through its own ``json`` binding.
            proxy = types.SimpleNamespace(
                load=recorder.wrap("serialize.decode", json.load),
                dumps=recorder.wrap("serialize.encode", json.dumps),
                JSONDecodeError=json.JSONDecodeError,
            )
            self._set(cli, "json", proxy)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def character_table_misses() -> int:
    table = sys.modules["kernelcex.fourier"].character_table
    while not hasattr(table, "cache_info"):  # unwrap an installed span
        table = table.__wrapped__
    return table.cache_info().misses


# ---------------------------------------------------------------------------
# Per-layer metrics from recorder snapshots

PER_LAYER_UNITS = {
    "kernels.gram.calls": "count",
    "kernels.gram.self_s": "s",
    "kernels.gram.entries": "count",
    "kernels.eval.calls": "count",
    "kernels.check_invariance.self_s": "s",
    "kernels.project.calls": "count",
    "spaces.pairwise_distinct.self_s": "s",
    "spaces.sample_distinct.self_s": "s",
    "harness.sample_merged.calls": "count",
    "harness.sample_merged.self_s": "s",
    "harness.sample_merged.draws": "count",
    "harness.sample_merged.cond_rejects": "count",
    "harness.sample_merged.accept_ratio": "ratio",
    **{f"harness.run_suite.{s}_s": "s" for s in SUITE_NAMES},
    "harness.emit_report.self_s": "s",
    "harness.self_s": "s",
    "numcore.classify.calls": "count",
    "numcore.classify.self_s": "s",
    "numcore.classify.dim_cubed": "count",
    "symmetry.orbit_decompose.calls": "count",
    "symmetry.orbit_decompose.self_s": "s",
    "symmetry.orbit_decompose.points": "count",
    "symmetry.evidence.self_s": "s",
    "counterexample.build.self_s": "s",
    "counterexample.witness.self_s": "s",
    "fourier.character_table.misses": "count",
    "fourier.character_table.self_s": "s",
    "fourier.analyze.self_s": "s",
    "fourier.synthesize.self_s": "s",
    "fourier.brute_force_strict.self_s": "s",
    "fourier.strict_criterion.self_s": "s",
    "serialize.decode.self_s": "s",
    "serialize.encode.self_s": "s",
    "serialize.output_bytes": "B",
    "cli.import_s": "s",
    "cli.process_overhead_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead": "ratio",
}


def merge(snapshots) -> dict:
    """Sum recorder snapshots, such as those of one round's CLI children."""
    out = {"stats": {}, "counts": Counter(), "edges": Counter()}
    for snap in snapshots:
        for name, values in snap["stats"].items():
            entry = out["stats"].setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                entry[i] += value
        out["counts"].update(snap["counts"])
        out["edges"].update(snap["edges"])
    return out


def per_layer_metrics(rounds, overhead: float, import_s: float | None = None) -> dict:
    """Every per-layer metric as a mean over the traced rounds' snapshots,
    except the ratios and ``cli.import_s`` (seconds per import). ``import_s``
    is the benchmark process's own import, for the in-process workloads."""
    totals = merge(rounds)
    per = 1.0 / len(rounds)
    n = totals["counts"]
    if import_s is not None:
        n.update(import_s=import_s, imports=1)
    c = Counter({name: v[0] for name, v in totals["stats"].items()})
    total = Counter({name: v[1] for name, v in totals["stats"].items()})
    s = Counter({name: v[2] for name, v in totals["stats"].items()})
    suites = [f"harness.run_suite.{name}" for name in SUITE_NAMES]
    draws = n["draws"]
    cond_grams = totals["edges"]["harness.sample_merged>kernels.gram"]
    imports = n["imports"]
    return {
        "kernels.gram.calls": c["kernels.gram"] * per,
        "kernels.gram.self_s": s["kernels.gram"] * per,
        "kernels.gram.entries": n["gram_entries"] * per,
        "kernels.eval.calls": n["evals"] * per,
        "kernels.check_invariance.self_s": s["kernels.check_invariance"] * per,
        "kernels.project.calls": c["kernels.project"] * per,
        "spaces.pairwise_distinct.self_s": s["spaces.pairwise_distinct"] * per,
        "spaces.sample_distinct.self_s": s["spaces.sample_distinct"] * per,
        "harness.sample_merged.calls": c["harness.sample_merged"] * per,
        "harness.sample_merged.self_s": s["harness.sample_merged"] * per,
        "harness.sample_merged.draws": draws * per,
        "harness.sample_merged.cond_rejects": (cond_grams - n["cond_accepts"]) * per,
        "harness.sample_merged.accept_ratio": c["harness.sample_merged"] / draws if draws else 0.0,
        **{f"{name}_s": total[name] * per for name in suites},
        "harness.emit_report.self_s": s["harness.emit_report"] * per,
        "harness.self_s": sum(s[name] for name in suites) * per,
        "numcore.classify.calls": c["numcore.classify"] * per,
        "numcore.classify.self_s": s["numcore.classify"] * per,
        "numcore.classify.dim_cubed": n["classify_dim_cubed"] * per,
        "symmetry.orbit_decompose.calls": c["symmetry.orbit_decompose"] * per,
        "symmetry.orbit_decompose.self_s": s["symmetry.orbit_decompose"] * per,
        "symmetry.orbit_decompose.points": n["orbit_points"] * per,
        "symmetry.evidence.self_s": s["symmetry.evidence"] * per,
        "counterexample.build.self_s": s["counterexample.build"] * per,
        "counterexample.witness.self_s": s["counterexample.witness"] * per,
        "fourier.character_table.misses": n["character_table_misses"] * per,
        "fourier.character_table.self_s": s["fourier.character_table"] * per,
        "fourier.analyze.self_s": s["fourier.analyze"] * per,
        "fourier.synthesize.self_s": s["fourier.synthesize"] * per,
        "fourier.brute_force_strict.self_s": s["fourier.brute_force_strict"] * per,
        "fourier.strict_criterion.self_s": s["fourier.strict_criterion"] * per,
        "serialize.decode.self_s": s["serialize.decode"] * per,
        "serialize.encode.self_s": s["serialize.encode"] * per,
        "serialize.output_bytes": n["output_bytes"] * per,
        "cli.import_s": n["import_s"] / imports if imports else 0.0,
        "cli.process_overhead_s": n["process_overhead_s"] * per,
        "cli.main.self_s": s["cli.main"] * per,
        "trace.overhead": overhead,
    }
