"""kernelcex benchmark: one workload, run as a closed loop of rounds.

Usage (from the repository root):

    python3 bench/run.py --workload suites-continuous --seed 1 --seconds 35 --trace 0

A round is a fixed set of operations at one seed; each operation waits for
the previous one (a closed loop with one client). The first round of a
process is cold: it runs at the suites' default seed 42, so that it always
does the same work, and pays the program's lazy set-up. Later (warm) rounds
cycle through 32 seeds derived from ``--seed``.

An untraced run first times set-up in five fresh processes (``probe.py``),
each from its start until it could begin its first round. It then runs its
own cold round and warm rounds until the next one is predicted to end more
than ``--seconds`` after that cold round began (at least one warm round).
After each warm round, while the cold rounds have used at most half of
``--seconds`` and number fewer than nine, one more fresh process sets up and
runs a cold round, so that ``first_round_s`` is a median too.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see ``tracing.py``) and the tracing overhead. Every run writes
its details to ``bench/out/<workload>-seed<seed>-trace<0|1>.json``.

The program is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with code 2 when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("suites-continuous", "suites-finite", "cli-cold")
COLD_SEED = 42
SEED_CYCLE = 32
SETUP_PROBES = 5
COLD_ROUNDS = 9
COLD_SHARE = 0.5

END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "first_round_s": "s", "peak_rss_mib": "MiB"}

# Small dense LAPACK calls gain nothing from threads, and on a shared machine
# a second BLAS thread only adds noise. Children inherit the setting.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def round_seeds(seed: int) -> list[int]:
    """The cold seed, then the cycle that warm rounds go through."""
    return [COLD_SEED] + [seed * 1000 + k for k in range(1, SEED_CYCLE + 1)]


def set_up(workload: str, seed: int, workdir: str):
    """Import kernelcex from ``src/`` and build the workload's inputs.

    Returns the workload and the seconds the import took.
    """
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import kernelcex

    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(kernelcex.__file__))) != SRC:
        raise ImportError(f"kernelcex was imported from {kernelcex.__file__}, not from {SRC}")
    import workloads

    return workloads.WORKLOADS[workload](round_seeds(seed), workdir), import_s


def spawn_probe(workload: str, seed: int, cold_round: bool) -> dict:
    """Run ``probe.py`` in a fresh process; adds its set-up time as ``setup_s``."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "probe.py"), workload, str(seed)]
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        t0 = time.monotonic()
        done = subprocess.run(
            cmd + [workdir] + (["--cold-round"] if cold_round else []),
            capture_output=True,
            text=True,
            check=True,
        )
    report = json.loads(done.stdout.splitlines()[-1])
    report["setup_s"] = report.pop("ready") - t0
    return report


class Runner:
    """Runs rounds, counts operations and collects problems."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: list[str] = []
        self.peak_child_kib = 0
        self.rounds: list[dict] = []

    def round(self, seed: int, trace: bool):
        t0 = time.perf_counter()
        ops, snapshot = self.workload.run_round(seed, trace)
        seconds = time.perf_counter() - t0
        self.attempted += len(ops)
        for op in ops:
            if op.error is not None:
                self.failed += 1
                self.errors.append(f"{op.name} seed {seed}: {op.error}")
            if not trace:
                self.peak_child_kib = max(self.peak_child_kib, op.maxrss_kib)
        self.problems += self.workload.check(seed, ops)
        self.rounds.append(
            {
                "seed": seed,
                "trace": trace,
                "seconds": seconds,
                "ops": [{"name": op.name, "wall_s": op.wall_s, "error": op.error} for op in ops],
                "spans": snapshot,
            }
        )
        return seconds, snapshot

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "problems": self.problems,
            "rounds": self.rounds,
        }

    def absorb(self, summary: dict):
        """Add the rounds another process ran and checked."""
        self.attempted += summary["attempted"]
        self.failed += summary["failed"]
        self.errors += summary["errors"]
        self.problems += summary["problems"]
        self.rounds += summary["rounds"]


def run_untraced(runner: Runner, workload: str, seed: int, seconds: float, setup_s: float):
    """The benchmark's own cold round, then warm rounds, each followed by a
    cold probe while the cold rounds have used at most ``COLD_SHARE`` of
    ``--seconds``. Spreading the probes over the run lets the cold and the
    warm rounds see the same machine load. Returns both lists of durations."""
    seeds = round_seeds(seed)
    start = time.monotonic()
    cold = [runner.round(seeds[0], trace=False)[0]]
    cold_spent = time.monotonic() - start
    warm = []
    while not warm or time.monotonic() - start + statistics.median(warm) <= seconds:
        warm.append(runner.round(seeds[1 + len(warm) % SEED_CYCLE], trace=False)[0])
        probe_s = setup_s + statistics.median(cold)
        if (
            len(cold) < COLD_ROUNDS
            and cold_spent + probe_s <= COLD_SHARE * seconds
            and time.monotonic() - start + probe_s <= seconds
        ):
            t0 = time.monotonic()
            summary = spawn_probe(workload, seed, cold_round=True)["cold"]
            cold_spent += time.monotonic() - t0
            runner.absorb(summary)
            cold.append(summary["rounds"][0]["seconds"])
    return cold, warm


def run_traced(runner: Runner, seed: int, seconds: float, import_s: float | None) -> dict:
    """A traced cold round, then pairs of an untraced and a traced warm
    round at the same seed, in alternating order."""
    import tracing

    seeds = round_seeds(seed)
    snapshots, traced_s, untraced_s, iterations = [], [], [], []
    start = time.monotonic()
    while len(iterations) < 2 or time.monotonic() - start + statistics.median(iterations[1:]) <= seconds:
        t0 = time.monotonic()
        k = len(iterations)
        round_seed = seeds[0] if k == 0 else seeds[1 + (k - 1) % SEED_CYCLE]
        order = (True,) if k == 0 else ((False, True) if k % 2 else (True, False))
        for trace in order:
            duration, snapshot = runner.round(round_seed, trace)
            if trace:
                snapshots.append(snapshot)
            if k > 0:
                (traced_s if trace else untraced_s).append(duration)
        iterations.append(time.monotonic() - t0)
    return tracing.per_layer_metrics(snapshots, sum(traced_s) / sum(untraced_s) - 1.0, import_s)


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREADS},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "kernelcex", "__init__.py")):
        print(f"bench: no kernelcex sources under {SRC}", file=sys.stderr)
        return 2
    for name in BLAS_THREADS:
        os.environ.setdefault(name, "1")
    os.makedirs(OUT_DIR, exist_ok=True)

    setup_samples = [
        spawn_probe(args.workload, args.seed, cold_round=False)["setup_s"] for _ in range(SETUP_PROBES)
    ]
    setup_s = statistics.median(setup_samples)
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        workload, import_s = set_up(args.workload, args.seed, workdir)
        runner = Runner(workload)
        in_process = args.workload != "cli-cold"
        if args.trace:
            import tracing

            values = run_traced(runner, args.seed, args.seconds, import_s if in_process else None)
            metrics = {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]} for k, v in values.items()}
        else:
            cold, warm = run_untraced(runner, args.workload, args.seed, args.seconds, setup_s)
            if in_process:
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            else:
                peak_kib = runner.peak_child_kib
            values = {
                "setup_s": setup_s,
                "round_s": statistics.median(warm),
                "first_round_s": statistics.median(cold),
                "peak_rss_mib": peak_kib / 1024.0,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if runner.errors:
        print(f"bench: {len(runner.errors)} failed operations; first: {runner.errors[0]}", file=sys.stderr)
    for line in runner.problems[:20]:
        print(f"bench: {line}", file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "result": result,
        "setup_samples_s": setup_samples,
        "import_s": import_s,
        "environment": environment(),
        **runner.summary(),
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
