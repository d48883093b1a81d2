#!/usr/bin/env python3
"""Record the goldens the benchmark checks every invocation against.

    python3 perfbench/record_goldens.py

Runs each distinct argv of every workload once, without a sequence cache,
and writes its stdout SHA-256, byte count and exit code to
``perfbench/goldens.json``.  Only re-record when an output change is
intended: a speed result counts only if the output stays byte-identical.
"""

import json
import subprocess

import run


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                            text=True, check=False).stdout.strip() or "unknown"
    with run.harness({}) as h:
        goldens = run.record_goldens(h, run.workloads(run.FULL))
    doc = {"commit": commit, "environment": run.environment(), "invocations": goldens}
    run.GOLDENS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
