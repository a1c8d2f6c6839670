"""Paired warm-round timing of two source trees in one time window.

Usage (from any directory):

    python tools/pair_rounds.py PARENT_DIR CHANGE_DIR --workload suites-finite --pairs 20

A round runs every suite of the workload at one seed in process, as
``verify SUITE --format json`` does, and is timed from the first suite's
config to the last report. Each tree gets one long-lived worker process that
imports that tree's ``src/`` and runs one untimed warm-up round. Pair k then
times two rounds in each worker at seed ``BASE_SEED`` + k in ABBA order (parent,
change, change, parent in odd pairs; the trees swap in even ones), and takes
each tree's mean, so a drift in the machine's load falls on both trees alike.

The tool prints one line per pair with its change/parent time ratio, then
the median ratio and a 95% bootstrap interval of it: the 2.5th and 97.5th
percentiles of the medians of 2000 resamples of the pairs, drawn with a
fixed seed. A ratio below 1 means the change is faster; an interval that
excludes 1 resolves the difference. The exit code is 0, or 2 if a worker
cannot run.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

# The suites of the in-process workloads of bench/workloads.py.
WORKLOADS = {
    "suites-finite": ("orbit-decomposition", "abelian-roundtrip", "abelian-strictness", "embed-check",
                      "negative-controls"),
    "suites-continuous": ("circle-example1", "gaussian-example1", "dotproduct-example1", "complex-sphere"),
}
RESAMPLES = 2000
BOOTSTRAP_SEED = 20221130
BASE_SEED = 1000  # pair k runs at seed BASE_SEED + k; the warm-up round at BASE_SEED

# A worker: argv is the tree's src/ and the suites as JSON. It prints the
# imported module's path, then reads one seed per line and prints the
# round's seconds.
_WORKER = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import kernelcex
from kernelcex.harness import SuiteConfig, emit_report, run_suite
suites = json.loads(sys.argv[2])

def round_s(seed):
    start = time.perf_counter()
    for suite in suites:
        emit_report(run_suite(SuiteConfig.from_dict({"suite": suite, "seed": seed})), format="json")
    return time.perf_counter() - start

print(json.dumps(kernelcex.__file__), flush=True)
for line in sys.stdin:
    print(json.dumps(round_s(int(line))), flush=True)
"""


class WorkerFailed(Exception):
    """A tree's worker did not answer."""


class Worker:
    """One tree's worker process."""

    def __init__(self, tree, suites):
        src = (Path(tree) / "src").resolve()
        if not (src / "kernelcex").is_dir():
            raise WorkerFailed(f"{tree}: no src/kernelcex")
        self.name = str(tree)
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _WORKER, str(src), json.dumps(list(suites))],
            cwd=src, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        module = Path(self._answer())
        if not module.resolve().is_relative_to(src):
            self.close()
            raise WorkerFailed(f"{tree}: imported {module}, not its own src/")

    def _answer(self):
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise WorkerFailed(f"{self.name}: exit {self.proc.returncode}\n{self.proc.stderr.read().strip()}")
        return json.loads(line)

    def round_s(self, seed: int) -> float:
        self.proc.stdin.write(f"{seed}\n")
        self.proc.stdin.flush()
        return self._answer()

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            self.proc.wait()


def bootstrap_interval(ratios, resamples=RESAMPLES, seed=BOOTSTRAP_SEED) -> tuple[float, float]:
    """The 2.5th and 97.5th percentiles of the medians of resampled ratios."""
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(resamples))
    return medians[int(0.025 * resamples)], medians[int(0.975 * resamples) - 1]


def run_pairs(parent: Worker, change: Worker, pairs: int) -> list[tuple[int, float, float]]:
    """(seed, parent seconds, change seconds) of each pair: the mean of two
    rounds per tree, run in ABBA order."""
    out = []
    for seed in range(BASE_SEED + 1, BASE_SEED + pairs + 1):
        a, b = (parent, change) if seed % 2 else (change, parent)
        times = {a: a.round_s(seed), b: b.round_s(seed)}
        times[b] += b.round_s(seed)
        times[a] += a.round_s(seed)
        out.append((seed, times[parent] / 2, times[change] / 2))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    suites = WORKLOADS[args.workload]
    workers = []
    try:
        workers = [Worker(args.parent, suites), Worker(args.change, suites)]
        for worker in workers:
            worker.round_s(BASE_SEED)  # the untimed warm-up round
        results = run_pairs(*workers, args.pairs)
    except (WorkerFailed, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for worker in workers:
            worker.close()
    ratios = []
    for k, (seed, parent_s, change_s) in enumerate(results, 1):
        ratios.append(change_s / parent_s)
        print(f"pair {k} seed {seed}: parent {parent_s * 1e3:.2f} ms, change {change_s * 1e3:.2f} ms, "
              f"ratio {ratios[-1]:.4f}")
    low, high = bootstrap_interval(ratios)
    print(f"{args.workload}: median ratio {statistics.median(ratios):.4f}, "
          f"95% bootstrap interval [{low:.4f}, {high:.4f}] over {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
