"""Record the exit code and stdout sha256 of every benchmark case into
perfbench/expected.json.  Run from the repository root:

    python3 perfbench/record.py

Re-record only when a change is meant to alter CLI output; the benchmark
treats any other difference as a failed case.
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED_PATH, SELFTEST, WORKLOADS, run_case

RECORD_CAP_S = 600.0


def main() -> int:
    cases = {c.name: c for c in SELFTEST}
    for workload in WORKLOADS.values():
        cases.update((c.name, c) for c in workload)
    expected = {}
    for name in sorted(cases):
        record = run_case(cases[name], None, RECORD_CAP_S)
        if record["timed_out"]:
            print(f"error: {name} timed out", file=sys.stderr)
            return 1
        expected[name] = {"argv": list(cases[name].argv), "exit": record["exit"], "sha256": record["sha256"]}
        print(f"{name}: exit {record['exit']}, {record['wall_s']:.2f} s", file=sys.stderr)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
