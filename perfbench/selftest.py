#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (--n-max 3, --N-max 2).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a deliberately wrong golden raises the failure count instead of
crashing, and that the criterion-5 cell's golden exit code 1 is not
counted as a failure.  Takes about half a minute.
"""

import json
import sys

import run


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def units(section: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def emitted(result: dict) -> dict:
    return {k: m["unit"] for k, m in result["metrics"].items()}


def main() -> None:
    all_invs = run.workloads(run.TINY)
    crit = next(i for i in all_invs["padic"] if i.tag == "crit5")
    with run.harness({}) as h:
        h.goldens = run.record_goldens(h, all_invs)
        check(h.goldens[crit.key]["exit"] == 1, "criterion-5 cell no longer exits 1")

        for name, invs in all_invs.items():
            result = run.measure(h, invs, seed=7, seconds=0)
            check(emitted(result) == units("end_to_end"), f"{name}: end-to-end names or units")
            check(result["correct"] and result["failed"] == 0, f"{name}: goldens do not match")
            check(result["metrics"]["ok_ratio"]["value"] == 1.0, f"{name}: ok_ratio below 1")
        traced = run.trace(h, "padic", all_invs, 7)
        check(emitted(traced) == units("per_layer"), "per-layer names or units")
        check(traced["failed"] == 0, "traced replay output differs from the goldens")

        print("a mismatch report for the criterion-5 cell follows; it is deliberate")
        h.goldens[crit.key] = dict(h.goldens[crit.key], sha256="0" * 64)
        result = run.measure(h, all_invs["padic"], seed=7, seconds=0)
        check(result["failed"] == 1 and not result["correct"], "wrong golden not counted")
        check(abs(result["metrics"]["ok_ratio"]["value"] - 2 / 3) < 1e-12, "ok_ratio not 2/3")
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
