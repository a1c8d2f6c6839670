"""Traced stand-in for ``python -m kernelcex`` in the cli-cold workload.

Usage: python3 bench/cli_child.py SPANS_FILE ARG...

Times ``import kernelcex.cli``, installs the spans of ``tracing.py``, runs
``kernelcex.cli.main(ARG...)`` and writes the span totals to SPANS_FILE when
the call ends, also when it raises. The exit code is the CLI's own.
"""

import json
import sys
import time

import tracing


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import kernelcex.cli

    import_s = time.perf_counter() - t0
    recorder = tracing.Recorder()
    tracing.Installation(recorder)
    misses = tracing.character_table_misses()
    try:
        return kernelcex.cli.main(argv)
    finally:
        snapshot = recorder.snapshot()
        snapshot["counts"].update(
            import_s=import_s,
            imports=1,
            character_table_misses=tracing.character_table_misses() - misses,
        )
        snapshot["main_s"] = recorder.stats.get("cli.main", [0, 0.0])[1]
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh)


if __name__ == "__main__":
    sys.exit(main())
