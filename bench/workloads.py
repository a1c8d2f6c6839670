"""The benchmark's workloads: inputs, one round of operations, output checks.

A round is a fixed set of operations at one seed. ``run_round`` performs the
operations and returns one ``Op`` per operation; ``check`` then compares the
outputs with the independent references in ``reference.py`` and returns a
list of problems (empty when every output is right). Checks run outside the
timed part of a round.

Import kernelcex before this module: the benchmark times that import.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import kernelcex
import reference
import tracing
from kernelcex import (
    Circle,
    CircleExpCos,
    CircleRotation,
    ComplexSphere,
    ComplexSphereRotation,
    DotExp,
    Euclidean,
    EuclideanScaling,
    EuclideanTranslation,
    FiniteAbelian,
    FourierSpectrum,
    Gaussian,
    brute_force_strict,
    build_shifted,
    build_unitary,
    harness,
    orbit_decompose,
    spectrum_kernel,
    strict_criterion,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclasses.dataclass
class Op:
    """One operation of a round; ``error`` is set when it failed."""

    name: str
    output: object = None
    error: str | None = None
    wall_s: float = 0.0
    maxrss_kib: int = 0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream))


# ---------------------------------------------------------------------------
# In-process suite workloads


class Workload:
    """Inputs for every seed of the run are built up front, in set-up."""

    def __init__(self, seeds, workdir):
        self.inputs = {seed: self.make_inputs(seed) for seed in seeds}

    def make_inputs(self, seed: int) -> dict:
        return {}


class SuitesWorkload(Workload):
    """Runs shipped suites in process, as ``verify SUITE --format json`` does."""

    suites: tuple[str, ...] = ()

    def _run_suites(self, seed: int) -> list[Op]:
        ops = []
        for suite in self.suites:
            op = Op(suite)
            try:
                # harness.run_suite is looked up per call so that spans installed on it apply
                config = harness.SuiteConfig.from_dict({"suite": suite, "seed": seed})
                op.output = harness.emit_report(harness.run_suite(config), format="json")
            except Exception as exc:  # a failed operation is counted, not fatal
                op.error = f"{type(exc).__name__}: {exc}"
            ops.append(op)
        return ops

    def run_round(self, seed: int, trace: bool):
        if not trace:
            return self._run_suites(seed), None
        recorder = tracing.Recorder()
        misses = tracing.character_table_misses()
        installed = tracing.Installation(recorder)
        try:
            ops = self._run_suites(seed)
        finally:
            installed.uninstall()
        recorder.counts["character_table_misses"] += tracing.character_table_misses() - misses
        recorder.counts["output_bytes"] += sum(len(op.output.encode()) for op in ops if op.output)
        return ops, recorder.snapshot()

    def check(self, seed: int, ops) -> list[str]:
        problems = []
        for op in ops:
            if op.error is None:
                report = json.loads(op.output)
                if report["status"] != "pass":
                    failed = [r["name"] for r in report["records"] if not r["passed"]]
                    problems.append(f"{op.name} seed {seed}: failed records {failed}")
                problems += self.check_report(seed, report)
        return problems + self.check_inputs(seed)

    def check_report(self, seed: int, report: dict) -> list[str]:
        return []

    def check_inputs(self, seed: int) -> list[str]:
        return []


def _shipped_kernel(instance: str):
    """The kernelcex grid kernel of a shipped instance."""
    if instance == "circle":
        space = Circle()
        return build_unitary(CircleExpCos(space), CircleRotation(space, 1.0)).as_matrix
    if instance == "gaussian":
        space = Euclidean(3)
        phi = EuclideanTranslation(space, (1.0, 0.0, 0.0), adjoint_kind="inverse")
        return build_unitary(Gaussian(space, sigma=1.0), phi).as_matrix
    if instance == "dotproduct":
        space = Euclidean(2)
        return build_shifted(DotExp(space), EuclideanScaling(space, 2.0), np.zeros(2)).as_matrix
    space = ComplexSphere(2)
    return build_unitary(DotExp(space), ComplexSphereRotation(space, 1.0)).as_matrix


def _random_points(instance: str, rng: np.random.Generator, n: int) -> np.ndarray:
    if instance == "circle":
        return rng.uniform(-math.pi, math.pi, n)
    if instance == "gaussian":
        return rng.uniform(-1.5, 1.5, (n, 3))
    if instance == "dotproduct":
        return rng.uniform(-0.8, 0.8, (n, 2))
    z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# Separation of every point and image in the degenerate-pair lists, so that
# the projection Grams are well conditioned and only the pair {x, phi(x)}
# can make the blocked Gram singular.
_PAIR_SEP = 0.4


def _pair_list(instance: str, rng: np.random.Generator):
    """Point list containing {x, phi(x)} (and the origin for the shifted
    dot-product kernel), plus two more points, with the analytic null
    direction of its blocked Gram."""
    phi = reference.SHIPPED[instance]["phi"]
    metric = reference.circle_metric if instance == "circle" else reference.vector_metric
    while True:
        x, y, z = _random_points(instance, rng, 3)
        pts = [x, phi(x), y, z]
        if instance == "dotproduct":
            pts = [np.zeros(2)] + pts
        if reference.separated(_dedupe(pts + [phi(p) for p in pts], metric), _PAIR_SEP, metric):
            break
    n = len(pts)
    if instance == "dotproduct":
        direction = reference.triple_direction(n, 0, 1, 2)
    else:
        direction = reference.pair_direction(n, 0, 1)
    return np.asarray(pts), direction


def _dedupe(points, metric):
    """Points and images with coincident ones (x's image is phi(x)) merged."""
    out = []
    for p in points:
        if all(metric(p, q) > 1e-9 for q in out):
            out.append(p)
    return out


class SuitesContinuous(SuitesWorkload):
    suites = ("circle-example1", "gaussian-example1", "dotproduct-example1", "complex-sphere")

    def __init__(self, seeds, workdir):
        self.kernels = {name: _shipped_kernel(name) for name in reference.SHIPPED}
        super().__init__(seeds, workdir)

    def make_inputs(self, seed: int) -> dict:
        rng = _rng(seed, 1)
        return {
            name: {
                "points": _random_points(name, rng, 6),
                "pair": _pair_list(name, rng),
                "vectors": rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)),
            }
            for name in reference.SHIPPED
        }

    def check_report(self, seed: int, report: dict) -> list[str]:
        config = harness.SuiteConfig(report["suite"])
        expected = config.trials * config.projection_trials
        problems = []
        for record in report["records"]:
            if record["name"].startswith("projection-strictness"):
                ev = record["evidence"]
                if not ev["definite"] == ev["total"] == expected:
                    problems.append(
                        f"{report['suite']} seed {seed}: {record['name']} definite={ev['definite']} "
                        f"total={ev['total']}, expected {expected}"
                    )
        return problems

    def check_inputs(self, seed: int) -> list[str]:
        problems = []
        for name, inputs in self.inputs[seed].items():
            kernel = self.kernels[name]
            x = inputs["points"]
            got = kernelcex.gram(kernel, list(x)).entries
            err = reference.relative_error(got, reference.blocked_gram(name, x))
            if not err <= 1e-12:
                problems.append(f"{name} seed {seed}: gram differs from closed form by {err:.2e}")

            pts, direction = inputs["pair"]
            blocked = kernelcex.gram(kernel, list(pts)).entries
            residual = np.linalg.norm(blocked @ direction) / (
                np.linalg.norm(blocked, 2) * np.linalg.norm(direction)
            )
            if not residual <= 1e-12:
                problems.append(f"{name} seed {seed}: pair direction leaves residual {residual:.2e}")
            expected_blocked = reference.blocked_gram(name, pts)
            for v in inputs["vectors"]:
                proj = kernelcex.gram(kernelcex.project(kernel, v), list(pts)).entries
                err = reference.relative_error(proj, reference.projection_gram(expected_blocked, v))
                if not err <= 1e-12:
                    problems.append(f"{name} seed {seed}: projection Gram off by {err:.2e}")
                try:
                    np.linalg.cholesky(proj)
                except np.linalg.LinAlgError:
                    problems.append(f"{name} seed {seed}: projection Gram is not positive definite")
        return problems


class SuitesFinite(SuitesWorkload):
    suites = (
        "orbit-decomposition",
        "abelian-roundtrip",
        "abelian-strictness",
        "embed-check",
        "negative-controls",
    )

    # (group orders, ell) of the margin spectra checked each round.
    SPECTRA = (((2, 3, 4), 1), ((2, 2, 3), 2), ((4, 4), 3))

    def make_inputs(self, seed: int) -> dict:
        rng = _rng(seed, 2)
        step = float(rng.uniform(0.5, 1.5))
        points, tau = reference.translation_chains(rng, chains=8, length=4, step=step)
        spectra = [
            (orders, strict, reference.margin_spectrum(rng, math.prod(orders), ell, strict))
            for orders, ell in self.SPECTRA
            for strict in (True, False)
        ]
        return {"step": step, "points": points, "tau": tau, "chains": 8, "spectra": spectra}

    def check_inputs(self, seed: int) -> list[str]:
        inputs = self.inputs[seed]
        problems = []
        space = Euclidean(1)
        phi = EuclideanTranslation(space, (inputs["step"],))
        dec = orbit_decompose(phi, [np.array([x]) for x in inputs["points"]])
        chains, n = inputs["chains"], len(inputs["points"])
        if (dec.m, dec.p) != (n - chains, chains) or dec.tau != inputs["tau"]:
            problems.append(
                f"orbit seed {seed}: (m, p) = ({dec.m}, {dec.p}), expected ({n - chains}, {chains})"
                + ("" if dec.tau == inputs["tau"] else "; index map differs")
            )
        for orders, strict, coeffs in inputs["spectra"]:
            spectrum = FourierSpectrum(group=FiniteAbelian(orders), coefficients=coeffs)
            verdict = brute_force_strict(spectrum_kernel(spectrum))
            agrees = verdict.is_positive_definite if strict else verdict.is_degenerate
            if not agrees or strict_criterion(spectrum) != strict:
                problems.append(
                    f"spectrum seed {seed} on {orders}: strict={strict} but brute force says "
                    f"{verdict.kind.value}, criterion {strict_criterion(spectrum)}"
                )
        return problems


# ---------------------------------------------------------------------------
# Fresh-process CLI workload

GROUP = (4, 8, 8)
GRAM_POINTS = 100
ORBIT_CHAINS, ORBIT_LENGTH = 40, 5

CIRCLE_KERNEL = {
    "variant": "unitary",
    "base": {"form": "circle_exp_cos", "space": {"kind": "circle"}},
    "map": {
        "space": {"kind": "circle"},
        "action_kind": "circle_rotation",
        "parameters": {"angle": 1.0},
    },
}

# Gaussian.__post_init__ rejects this sigma with a bare ValueError, which the
# CLI does not map to its configuration-error exit code 2.
NEGATIVE_SIGMA_KERNEL = {
    "variant": "unitary",
    "base": {"form": "gaussian", "space": {"kind": "euclidean", "dim": 2}, "sigma": -1.0},
    "map": {
        "space": {"kind": "euclidean", "dim": 2},
        "action_kind": "euclidean_translation",
        "parameters": {"offset": [1.0, 0.0]},
        "adjoint": "inverse",
    },
}


def _circle_points_with_pair(rng: np.random.Generator, n: int):
    """n distinct angles that include one pair {x, x + 1}; returns the
    angles and the positions of x and its image."""
    x = float(rng.uniform(-math.pi, math.pi))
    pts = [x, float(reference.wrap_angle(x + 1.0))]
    while len(pts) < n:
        cand = float(rng.uniform(-math.pi, math.pi))
        if np.min(np.abs(reference.wrap_angle(cand - np.asarray(pts)))) > 1e-3:
            pts.append(cand)
    order = rng.permutation(n)
    where = np.argsort(order)
    return [pts[i] for i in order], int(where[0]), int(where[1])


class CliCold(Workload):
    """Each operation is one fresh ``python -m kernelcex`` process."""

    def __init__(self, seeds, workdir):
        self.workdir = workdir
        self.src = os.path.join(os.path.dirname(BENCH_DIR), "src")
        self._write("circle-kernel.json", CIRCLE_KERNEL)
        self._write("negative-sigma-kernel.json", NEGATIVE_SIGMA_KERNEL)
        self._write("negative-sigma-points.json", [[0.0, 0.0], [1.0, 0.0]])
        super().__init__(seeds, workdir)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _write(self, name: str, payload) -> str:
        with open(self._path(name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return self._path(name)

    def make_inputs(self, seed: int) -> dict:
        rng = _rng(seed, 3)
        angles, ix, ifx = _circle_points_with_pair(rng, GRAM_POINTS)
        step = float(rng.uniform(0.5, 1.5))
        orbit_points, tau = reference.translation_chains(rng, ORBIT_CHAINS, ORBIT_LENGTH, step)
        order = math.prod(GROUP)
        analyze_coeffs = rng.uniform(0.1, 1.0, order)
        psi = reference.fft_synthesize(analyze_coeffs, GROUP)
        synth_coeffs = rng.uniform(0.1, 1.0, order)
        orbit_map = {
            "space": {"kind": "euclidean", "dim": 1},
            "action_kind": "euclidean_translation",
            "parameters": {"offset": [step]},
        }
        files = {
            "gram": self._write(f"gram-points-{seed}.json", angles),
            "orbit-map": self._write(f"orbit-map-{seed}.json", orbit_map),
            "orbit-points": self._write(f"orbit-points-{seed}.json", [[x] for x in orbit_points]),
            "psi": self._write(f"psi-{seed}.json", [[z.real, z.imag] for z in psi]),
            "spectrum": self._write(
                f"spectrum-{seed}.json", {"group": list(GROUP), "coefficients": list(synth_coeffs)}
            ),
        }
        return {
            "files": files,
            "angles": np.asarray(angles),
            "pair": (ix, ifx),
            "orbit_points": orbit_points,
            "tau": tau,
            "psi": psi,
            "synth_coeffs": synth_coeffs,
        }

    def commands(self, seed: int):
        files = self.inputs[seed]["files"]
        group = ",".join(str(q) for q in GROUP)
        return [
            ("gram", ["gram", "--kernel", self._path("circle-kernel.json"), "--points", files["gram"]]),
            ("orbit", ["orbit", "--map", files["orbit-map"], "--points", files["orbit-points"]]),
            ("fourier-analyze", ["fourier", "analyze", "--group", group, "--input", files["psi"]]),
            ("fourier-synthesize", ["fourier", "synthesize", "--group", group, "--input", files["spectrum"]]),
            ("verify", ["verify", "negative-controls", "--format", "json", "--seed", str(seed)]),
            (
                "gram-negative-sigma",
                [
                    "gram",
                    "--kernel",
                    self._path("negative-sigma-kernel.json"),
                    "--points",
                    self._path("negative-sigma-points.json"),
                ],
            ),
        ]

    def _spawn(self, name: str, argv, trace: bool) -> tuple[Op, dict | None]:
        spans_path = self._path(f"spans-{name}.json")
        if trace:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), spans_path, *argv]
        else:
            cmd = [sys.executable, "-m", "kernelcex", *argv]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (self.src, env.get("PYTHONPATH")) if p)
        out_path, err_path = self._path(f"{name}.out"), self._path(f"{name}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=os.path.dirname(BENCH_DIR))
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        op = Op(name, output=stdout, wall_s=wall, maxrss_kib=usage.ru_maxrss)
        expected = 2 if name == "gram-negative-sigma" else 0
        if code != expected or "Traceback" in stderr:
            last_line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
            op.error = f"exit {code}, expected {expected}: {last_line}"
        spans = None
        if trace:
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)
            os.remove(spans_path)
            spans["counts"]["process_overhead_s"] = wall - spans.pop("main_s")
            spans["counts"]["output_bytes"] = len(stdout)
        os.remove(out_path)
        os.remove(err_path)
        return op, spans

    def run_round(self, seed: int, trace: bool):
        ops, snapshots = [], []
        for name, argv in self.commands(seed):
            op, spans = self._spawn(name, argv, trace)
            ops.append(op)
            if spans is not None:
                snapshots.append(spans)
        return ops, tracing.merge(snapshots) if trace else None

    def check(self, seed: int, ops) -> list[str]:
        inputs = self.inputs[seed]
        problems = []
        for op in ops:
            if op.error is not None or op.name == "gram-negative-sigma":
                continue
            data = json.loads(op.output)
            check = getattr(self, "_check_" + op.name.replace("-", "_"))
            problems += [f"{op.name} seed {seed}: {p}" for p in check(inputs, data)]
        return problems

    def _check_gram(self, inputs, data) -> list[str]:
        x = inputs["angles"]
        gram = np.asarray(data["gram"])
        gram = gram[..., 0] + 1j * gram[..., 1]
        problems = []
        err = reference.relative_error(gram, reference.blocked_gram("circle", x))
        if not err <= 1e-12:
            problems.append(f"differs from the closed form by {err:.2e}")
        verdict = data["verdict"]
        if verdict["kind"] != "positive_semidefinite_degenerate":
            problems.append(f"verdict {verdict['kind']}, expected degenerate")
        direction = reference.pair_direction(len(x), *inputs["pair"])
        residual = np.linalg.norm(gram @ direction) / (verdict["scale"] * np.linalg.norm(direction))
        if not residual <= 1e-12:
            problems.append(f"pair direction leaves residual {residual:.2e}")
        if verdict["null_vectors"]:
            null = np.asarray(verdict["null_vectors"])
            null = (null[..., 0] + 1j * null[..., 1]).T
            captured = np.linalg.norm(null.conj().T @ direction) / np.linalg.norm(direction)
        else:
            captured = 0.0
        if not captured >= 1.0 - 1e-6:
            problems.append(f"null space holds only {captured:.6f} of the pair direction")
        return problems

    def _check_orbit(self, inputs, data) -> list[str]:
        n, chains = len(inputs["orbit_points"]), ORBIT_CHAINS
        tau = {int(k): v for k, v in data["tau"].items()}
        problems = []
        if (data["m"], data["p"]) != (n - chains, chains):
            problems.append(f"(m, p) = ({data['m']}, {data['p']}), expected ({n - chains}, {chains})")
        if tau != inputs["tau"] or data["F"] != sorted(inputs["tau"]):
            problems.append("index map differs from the chain construction")
        if len(data["z_points"]) != n + chains:
            problems.append(f"{len(data['z_points'])} merged points, expected {n + chains}")
        return problems

    def _check_fourier_analyze(self, inputs, data) -> list[str]:
        expected = reference.fft_analyze(inputs["psi"], GROUP)
        err = float(np.max(np.abs(np.asarray(data["coefficients"]) - expected.real)))
        problems = []
        if not err <= 1e-10:
            problems.append(f"coefficients differ from the FFT reference by {err:.2e}")
        if not data["analysis_residual"] <= 1e-10:
            problems.append(f"analysis residual {data['analysis_residual']:.2e}")
        return problems

    def _check_fourier_synthesize(self, inputs, data) -> list[str]:
        values = np.asarray(data["values"])
        values = values[:, 0] + 1j * values[:, 1]
        err = float(np.max(np.abs(values - reference.fft_synthesize(inputs["synth_coeffs"], GROUP))))
        return [] if err <= 1e-10 else [f"values differ from the FFT reference by {err:.2e}"]

    def _check_verify(self, inputs, data) -> list[str]:
        return [] if data["status"] == "pass" else ["negative-controls report failed"]


WORKLOADS = {
    "suites-continuous": SuitesContinuous,
    "suites-finite": SuitesFinite,
    "cli-cold": CliCold,
}
