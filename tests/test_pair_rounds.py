"""``tools/pair_rounds.py``: paired warm rounds of two trees, their ratios and a
bootstrap interval of the median ratio."""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PAIR = re.compile(r"pair (\d+) seed (\d+): parent ([\d.]+) ms, change ([\d.]+) ms, ratio ([\d.]+)")
SUMMARY = re.compile(r"suites-finite: median ratio ([\d.]+), 95% bootstrap interval \[([\d.]+), ([\d.]+)\] over 2 pairs")


def test_the_repository_against_itself_prints_two_pairs_and_an_interval():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "pair_rounds.py"), str(REPO), str(REPO),
         "--workload", "suites-finite", "--pairs", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *pairs, summary = proc.stdout.strip().splitlines()
    ratios = []
    for k, line in enumerate(pairs, 1):
        found = PAIR.fullmatch(line)
        assert found, line
        number, seed, parent_ms, change_ms, ratio = found.groups()
        assert (int(number), int(seed)) == (k, 1000 + k)
        assert float(parent_ms) > 0 and float(change_ms) > 0
        assert abs(float(ratio) - float(change_ms) / float(parent_ms)) < 1e-3
        ratios.append(float(ratio))
    assert len(ratios) == 2
    found = SUMMARY.fullmatch(summary)
    assert found, summary
    median, low, high = map(float, found.groups())
    assert abs(median - sum(ratios) / 2) < 1e-4
    assert min(ratios) - 1e-4 <= low <= median <= high <= max(ratios) + 1e-4


def test_a_tree_without_sources_exits_2():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "pair_rounds.py"), str(REPO / "tests"), str(REPO),
         "--workload", "suites-finite", "--pairs", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "no src/kernelcex" in proc.stderr
