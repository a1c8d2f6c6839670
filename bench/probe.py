"""Fresh-process probe for the set-up and cold-round measurements.

Usage: python3 bench/probe.py WORKLOAD SEED WORKDIR [--cold-round]

Imports kernelcex and builds the workload's inputs in WORKDIR, then, with
``--cold-round``, runs and checks one cold round. The last line of standard
output is a JSON object: ``ready`` is ``time.monotonic()`` at the moment the
first round could begin (the clock is shared between processes, so the
caller subtracts its own start time), and ``cold`` summarises the cold round.
"""

import json
import sys
import time

import run


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    program, _ = run.set_up(workload, seed, workdir)
    report = {"ready": time.monotonic()}
    if sys.argv[4:] == ["--cold-round"]:
        runner = run.Runner(program)
        runner.round(run.COLD_SEED, trace=False)
        report["cold"] = runner.summary()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
