"""The report contract: every shipped suite's ``verify --format json`` report
at 13 seeds, compared byte for byte between two source trees.

Usage (from any directory):

    python tools/report_contract.py PARENT_DIR CHANGE_DIR

Each tree runs all of its suites at seeds 1, 7, 42 and 1001-1010 in one
subprocess that imports that tree's ``src/``. For each suite the tool prints
``byte-identical``, or the first seed whose report differs with the first
mismatching path under the golden rule of ``tests/test_golden.py`` (floats
within its RTOL relative or ATOL absolute, everything else exact). A report
that differs only within that rule is named with its first exact difference.
The exit code is 0 only if every report is byte-identical, 1 if one differs
and 2 if a tree cannot run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]
from test_golden import _mismatches  # noqa: E402

SEEDS = (1, 7, 42, *range(1001, 1011))

# Run in a fresh interpreter: argv is the tree's src/ and the seeds as JSON;
# stdout is the imported module's path and each suite's reports in seed order.
_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import kernelcex
from kernelcex.harness import SuiteConfig, emit_report, list_suites, run_suite
seeds = json.loads(sys.argv[2])
reports = {
    suite: [emit_report(run_suite(SuiteConfig.from_dict({"suite": suite, "seed": s})), format="json") for s in seeds]
    for suite, _ in list_suites()
}
json.dump({"module": kernelcex.__file__, "reports": reports}, sys.stdout)
"""


class TreeFailed(Exception):
    """A tree's subprocess did not produce its reports."""


def run_tree(tree, seeds=SEEDS) -> dict[str, list[str]]:
    """Each suite's JSON reports at ``seeds``, made by the ``src/`` of ``tree``."""
    src = (Path(tree) / "src").resolve()
    if not (src / "kernelcex").is_dir():
        raise TreeFailed(f"{tree}: no src/kernelcex")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), json.dumps(list(seeds))],
        cwd=src, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise TreeFailed(f"{tree}: exit {proc.returncode}\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout)
    if not Path(out["module"]).resolve().is_relative_to(src):
        raise TreeFailed(f"{tree}: imported {out['module']}, not its own src/")
    return out["reports"]


def _first_difference(want: str, got: str) -> str:
    want, got = json.loads(want), json.loads(got)
    golden = _mismatches(want, got)
    if golden:
        return f"{golden[0]} (outside the golden rule)"
    exact = _mismatches(want, got, rtol=0.0, atol=0.0)
    if exact:
        return f"{exact[0]} (within the golden rule)"
    return "the bytes differ, no value does"


def compare(parent: dict[str, list[str]], change: dict[str, list[str]], seeds=SEEDS) -> tuple[list[str], bool]:
    """One line per suite and a total line; True iff every report is byte-identical."""
    lines, same = [], 0
    suites = list(parent) + [s for s in change if s not in parent]
    for suite in suites:
        if suite not in parent or suite not in change:
            lines.append(f"{suite}: only in the {'parent' if suite in parent else 'change'}")
            continue
        diffs = [(seed, a, b) for seed, a, b in zip(seeds, parent[suite], change[suite]) if a != b]
        same += len(seeds) - len(diffs)
        if not diffs:
            lines.append(f"{suite}: byte-identical")
            continue
        seed, a, b = diffs[0]
        lines.append(f"{suite}: {len(diffs)} of {len(seeds)} seeds differ; seed {seed}: {_first_difference(a, b)}")
    total = len(suites) * len(seeds)
    lines.append(f"{same} of {total} reports byte-identical")
    return lines, same == total


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/report_contract.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    try:
        parent, change = run_tree(args[0]), run_tree(args[1])
    except TreeFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines, identical = compare(parent, change)
    print("\n".join(lines))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
