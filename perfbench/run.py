#!/usr/bin/env python3
"""qeuler benchmark: the CLI run the way a user runs it.

    python3 perfbench/run.py --workload {verify,tables,padic,all} --seed N \
        --seconds S --trace {0,1}

Every invocation is a fresh ``python -m qeuler.cli`` process, one after
the other (closed loop, one client).  Its stdout SHA-256 and exit code are
compared against ``goldens.json``; a mismatch is counted, not raised.

``--trace 0`` repeats the workload ("a pass") until the next pass would
overrun ``--seconds`` and reports end-to-end medians over the passes.
``--trace 1`` runs one untraced pass of the workload, then replays every
workload through ``replay.py`` (spans around the public calls into each
layer) and times single ``exactq`` operations with ``probe_exactq.py``;
it reports per-layer metrics.  ``--workload all`` does both for every
workload.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported at reference CPU speed: the benchmark and its children
are pinned to one CPU, and ``SpeedProbe`` samples that CPU's speed while
they run (see README.md for why and how well it works).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDENS = BENCH / "goldens.json"
SETUP_REPEATS = 9

FULL = {"verify": 20, "qeuler": 40, "weighted": 30, "frobenius": 30, "poly": 20,
        "p3": 13, "p5": 9, "crit": 6}
TINY = {"verify": 3, "qeuler": 3, "weighted": 3, "frobenius": 3, "poly": 3,
        "p3": 2, "p5": 2, "crit": 2}

IDENTITIES = ("thm1", "thm2", "cor3", "thm4", "thm5", "thm6", "thm7",
              "classical", "weighted", "k0-remark")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
              "ok_ratio": "ratio"}
PER_LAYER = {
    **{f"exactq.{op}_s": "s" for op in (
        "qpoly_mul", "qpoly_gcd_d20", "qpoly_gcd_d40", "ratfn_add", "ratfn_mul",
        "subst_q_inverse")},
    "euler.q_euler_numbers_s": "s",
    "euler.frobenius_numbers_s": "s",
    "euler.weighted_s": "s",
    "euler.q_euler_polynomial_s": "s",
    "euler.verify.warmup_s": "s",
    **{f"euler.verify.{i}_s": "s" for i in IDENTITIES},
    **{f"euler.verify.{i}.instances": "count" for i in IDENTITIES},
    "bernstein.verify_theorem8_s": "s",
    "bernstein.instances_per_s": "1/s",
    **{f"padic.integral_partial.p3N{N}_s": "s" for N in (11, 12, 13)},
    "padic.summands_per_s": "1/s",
    "padic.convergence_report_s": "s",
    "cli.main_self_s": "s",
    **{f"cli.render.{fmt}_s": "s" for fmt in ("json", "text", "latex")},
    "cli.cache_hit_ratio": "ratio",
    "cli.out_bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


# _probe_loop's time on an unloaded core of the machine the baseline was
# taken on (Intel Xeon, 2 vCPUs, Python 3.11.7), so reported seconds are
# close to what that machine gives when no other tenant is busy.
PROBE_REF_S = 1.25e-3
PROBE_PERIOD_S = 0.05


def _probe_loop() -> None:
    total = 0
    for i in range(20000):
        total += i * i % 7


class SpeedProbe:
    """Samples the speed of the CPU this process is pinned to.

    Other tenants of the machine slow a CPU down by up to a third, in
    episodes lasting seconds to minutes, so raw times of the same program
    drift far more than any bound worth enforcing.  A thread pinned to the
    same CPU (it inherits the pinning) wakes every ``PROBE_PERIOD_S``, times ``_probe_loop`` in thread
    CPU time and records ``(perf_counter, seconds)``.  ``scale(t0, t1)``
    turns a time measured in that window into seconds at the reference
    speed, at which the loop takes ``PROBE_REF_S``.  Children's span
    timestamps use the same monotonic clock, so spans scale the same way.
    """

    def __init__(self):
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        while not self.samples:
            time.sleep(PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            at, start = time.perf_counter(), time.thread_time()
            _probe_loop()
            self.samples.append((at, time.thread_time() - start))

    def scale(self, t0: float, t1: float) -> float:
        """Reference-speed seconds per measured second within [t0, t1].

        Uses the mean of the faster half of the samples in the window: a
        sample that follows a child's time slice runs on caches the child
        has just evicted, so the slower half measures the child as much as
        the CPU.
        """
        window = sorted(s for t, s in self.samples if t0 <= t <= t1)
        if not window:
            mid = (t0 + t1) / 2
            window = [min(self.samples, key=lambda ts: abs(ts[0] - mid))[1]]
        return PROBE_REF_S / statistics.fmean(window[: max(1, len(window) // 2)])


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    cache: bool = False  # runs with the pass's own QEULER_CACHE_DIR
    after: Optional[int] = None  # index of the invocation that must run first
    warm: int = -1  # replay only: weight-0 sequence computed before the CLI call
    tag: str = ""  # names the invocation a per-layer metric reads

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def workloads(size: dict) -> dict:
    tables = [("qeuler", "--n-max", size["qeuler"]),
              ("weighted", "--alpha", 3, "--n-max", size["weighted"]),
              ("frobenius", "--n-max", size["frobenius"]),
              ("qeuler-poly", "--n-max", size["poly"])]
    tables = [tuple(map(str, t)) for t in tables]
    cold = [Invocation(("table", *t, "--format", "json"), cache=True, tag=f"{t[0]}-json")
            for t in tables]
    warm = [Invocation(("table", *t, "--format", fmt), cache=True, after=i, tag=f"{t[0]}-{fmt}")
            for fmt in ("text", "latex") for i, t in enumerate(tables)]
    n = str(size["verify"])
    return {
        "verify": [Invocation(("verify", "--suite", "all", "--n-max", n, "--json"),
                              warm=size["verify"])],
        "tables": cold + warm,
        "padic": [
            Invocation(("padic", "--n", "6", "--p", "3", "--K", "20", "--N-max", str(size["p3"]), "--json")),
            Invocation(("padic", "--n", "4", "--p", "5", "--K", "20", "--N-max", str(size["p5"]), "--json")),
            Invocation(("padic", "--n", "3", "--p", "3", "--N-max", str(size["crit"])), tag="crit5"),
        ],
    }


def permuted(invs: list, rng: random.Random) -> list:
    """A seeded order of the invocations; each runs after its ``after``."""
    order, pending = [], list(range(len(invs)))
    while pending:
        ready = [i for i in pending if invs[i].after is None or invs[i].after in order]
        pick = rng.choice(ready)
        order.append(pick)
        pending.remove(pick)
    return order


def child_env(cache_dir: Optional[Path] = None) -> dict:
    """Inherited environment minus every PYTHON* and QEULER_* variable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "QEULER_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    if cache_dir is not None:
        env["QEULER_CACHE_DIR"] = str(cache_dir)
    return env


@dataclass
class Child:
    scale: float  # SpeedProbe.scale over the child's lifetime
    wall: float  # seconds at reference speed, like cpu
    cpu: float
    rss_mb: float
    code: int


def sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _snapshot(cache_dir: Path) -> dict:
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in cache_dir.iterdir()}


@dataclass
class Record:
    inv: Invocation
    child: Child
    ok: bool
    out_bytes: int
    cache_hit: bool
    spans: list  # (name, raw seconds, reference seconds, depth, count)


@dataclass
class Harness:
    """What every run shares: goldens, a scratch directory and the speed probe."""

    goldens: dict
    work: Path
    probe: SpeedProbe


@contextmanager
def harness(goldens: dict):
    """Pin this process (and so its children) to one CPU and start the probe."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    work = Path(tempfile.mkdtemp(dir=BENCH, prefix=".work-"))
    try:
        with SpeedProbe() as probe:
            yield Harness(goldens, work, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def spawn(h: Harness, cmd: list, cache_dir: Optional[Path] = None) -> Child:
    """Run ``cmd`` in a fresh process; stdout and stderr go to the scratch directory."""
    with open(h.work / "stdout", "wb") as out, open(h.work / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(cache_dir), stdout=out, stderr=err, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    scale = h.probe.scale(start, end)
    return Child(scale, (end - start) * scale, (usage.ru_utime + usage.ru_stime) * scale,
                 usage.ru_maxrss / 1024, proc.returncode)


def _scaled_spans(h: Harness, path: Path) -> list:
    if not path.exists():
        return []
    return [(name, (t1 - t0) / 1e9, (t1 - t0) / 1e9 * h.probe.scale(t0 / 1e9, t1 / 1e9), depth, count)
            for name, t0, t1, depth, count in json.loads(path.read_text())]


def run_pass(h: Harness, invs: list, order: list, replay: bool = False) -> list:
    """Run the invocations in ``order``, each in a fresh process."""
    cache_dir = Path(tempfile.mkdtemp(dir=h.work, prefix="cache-"))
    out, err, spans_path = h.work / "stdout", h.work / "stderr", h.work / "spans.json"
    records = []
    try:
        for i in order:
            inv = invs[i]
            if replay:
                spans_path.unlink(missing_ok=True)
                cmd = [sys.executable, str(BENCH / "replay.py"), str(spans_path), str(inv.warm),
                       "--", *inv.argv]
            else:
                cmd = [sys.executable, "-m", "qeuler.cli", *inv.argv]
            before = _snapshot(cache_dir)
            child = spawn(h, cmd, cache_dir if inv.cache else None)
            golden = h.goldens.get(inv.key)
            ok = golden is not None and golden["exit"] == child.code and golden["sha256"] == sha256(out)
            if not ok:
                tail = err.read_text(errors="replace")[-2000:]
                print(f"mismatch: {inv.key} (exit {child.code})\n{tail}", file=sys.stderr)
            spans = _scaled_spans(h, spans_path) if replay else []
            hit = inv.after is not None and bool(before) and _snapshot(cache_dir) == before
            records.append(Record(inv, child, ok, out.stat().st_size, hit, spans))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return records


def measure(h: Harness, invs: list, seed: int, seconds: float) -> dict:
    """End-to-end metrics: medians over as many passes as fit in ``seconds``."""
    start = time.perf_counter()
    setup = [spawn(h, [sys.executable, "-c", "import qeuler.cli"]) for _ in range(SETUP_REPEATS)]
    # each import is shorter than the probe period, so scale by the whole block
    setup_s = statistics.median(c.wall / c.scale for c in setup) * h.probe.scale(start, time.perf_counter())
    rng = random.Random(seed)
    passes = []
    while True:
        began = time.perf_counter()
        passes.append(run_pass(h, invs, permuted(invs, rng)))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    records = [r for p in passes for r in p]
    values = {
        "wall_s": statistics.median(sum(r.child.wall for r in p) for p in passes),
        "cpu_s": statistics.median(sum(r.child.cpu for r in p) for p in passes),
        "peak_rss_mb": statistics.median(max(r.child.rss_mb for r in p) for p in passes),
        "setup_s": setup_s,
        "ok_ratio": sum(r.ok for r in records) / len(records),
    }
    raw = statistics.median(sum(r.child.wall / r.child.scale for r in p) for p in passes)
    return _result(records, values, END_TO_END, f"{len(passes)} passes, raw wall {raw:.3f} s")


def _spans(records: list, name: str) -> list:
    return [sp for r in records for sp in r.spans if sp[0] == name]


def _seconds(records: list, name: str) -> float:
    return sum(sp[2] for sp in _spans(records, name))


def _count(records: list, name: str) -> int:
    return sum(sp[4] for sp in _spans(records, name))


def _main_self(record: Record) -> float:
    """cli.main's span minus the layer calls directly under it."""
    return _seconds([record], "cli.main") - sum(sp[2] for sp in record.spans if sp[3] == 1)


def _per_second(count: int, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def _exactq_ops(h: Harness, seed: int) -> dict:
    """Reference-speed seconds per call of each probed exactq operation."""
    out = h.work / "exactq.json"
    out.unlink(missing_ok=True)
    spawn(h, [sys.executable, str(BENCH / "probe_exactq.py"), str(seed), str(out)])
    calls = json.loads(out.read_text()) if out.exists() else {}
    return {name: statistics.median((t1 - t0) * h.probe.scale(t0, t1) for t0, t1 in spans)
            for name, spans in calls.items() if spans}


def trace(h: Harness, name: str, all_invs: dict, seed: int) -> dict:
    """Per-layer metrics from traced replays of every workload."""
    rng = random.Random(seed)
    invs = all_invs[name]
    untraced = run_pass(h, invs, permuted(invs, rng))
    replays = {w: run_pass(h, ws, permuted(ws, rng), replay=True) for w, ws in all_invs.items()}
    exactq = _exactq_ops(h, seed)

    v, t, p = replays["verify"], replays["tables"], replays["padic"]
    values = {k: exactq.get(k, 0.0) for k in PER_LAYER if k.startswith("exactq.")}
    for span in ("q_euler_numbers", "frobenius_numbers", "weighted", "q_euler_polynomial"):
        values[f"euler.{span}_s"] = _seconds(t, f"euler.{span}")
    values["euler.verify.warmup_s"] = _seconds(v, "euler.verify.warmup")
    for ident in IDENTITIES:
        values[f"euler.verify.{ident}_s"] = _seconds(v, f"euler.verify.{ident}")
        values[f"euler.verify.{ident}.instances"] = _count(v, f"euler.verify.{ident}")
    values["bernstein.verify_theorem8_s"] = _seconds(v, "bernstein.verify_theorem8")
    values["bernstein.instances_per_s"] = _per_second(
        _count(v, "bernstein.verify_theorem8"), values["bernstein.verify_theorem8_s"])
    for N in (11, 12, 13):
        values[f"padic.integral_partial.p3N{N}_s"] = _seconds(p, f"padic.integral_partial.p3N{N}")
    partial = [sp for r in p for sp in r.spans if sp[0].startswith("padic.integral_partial.")]
    values["padic.summands_per_s"] = _per_second(sum(sp[4] for sp in partial),
                                                 sum(sp[2] for sp in partial))
    values["padic.convergence_report_s"] = _seconds(
        [r for r in p if r.inv.tag == "crit5"], "padic.convergence_report")
    values["cli.main_self_s"] = sum(_main_self(r) for r in t)
    for fmt in ("json", "text", "latex"):
        values[f"cli.render.{fmt}_s"] = sum(_main_self(r) for r in t if r.inv.tag == f"weighted-{fmt}")
    warm = [r for r in t if r.inv.after is not None]
    values["cli.cache_hit_ratio"] = sum(r.cache_hit for r in warm) / len(warm)
    values["cli.out_bytes"] = sum(r.out_bytes for r in t)
    traced = replays[name]
    top = sum(sp[1] for r in traced for sp in r.spans if sp[3] == 0)
    raw_wall = sum(r.child.wall / r.child.scale for r in traced)
    values["trace.coverage"] = top / raw_wall
    values["trace.overhead_s"] = sum(r.child.wall for r in traced) - sum(r.child.wall for r in untraced)
    records = untraced + [r for rs in replays.values() for r in rs]
    return _result(records, values, PER_LAYER, "1 untraced pass, 1 traced replay of each workload")


def _result(records: list, values: dict, units: dict, note: str) -> dict:
    failed = sum(not r.ok for r in records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "note": note,
    }


def record_goldens(h: Harness, all_invs: dict) -> dict:
    """Stdout SHA-256 and exit code of every distinct argv, run without a cache."""
    goldens = {}
    out = h.work / "stdout"
    for inv in (i for invs in all_invs.values() for i in invs):
        child = spawn(h, [sys.executable, "-m", "qeuler.cli", *inv.argv])
        goldens[inv.key] = {"sha256": sha256(out), "exit": child.code, "bytes": out.stat().st_size}
    return goldens


def environment() -> dict:
    kernel = "import qeuler; print(getattr(qeuler, 'active_kernel_name', lambda: 'absent')())"
    kernel = subprocess.run([sys.executable, "-c", kernel], env=child_env(), cwd=ROOT,
                            capture_output=True, text=True, check=False).stdout.strip()
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(), "kernel": kernel}


def report(label: str, result: dict) -> None:
    print(f"# {label}: {result['note']}; {result['attempted']} invocations, "
          f"{result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"{label}  {name:38s} {m['value']:14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "tables", "padic", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qeuler" / "cli.py").is_file() or not GOLDENS.is_file():
        print("perfbench: needs src/qeuler and perfbench/goldens.json in the checkout",
              file=sys.stderr)
        return 2
    all_invs = workloads(FULL)
    print(f"# environment: {json.dumps(environment())}")
    with harness(json.loads(GOLDENS.read_text())["invocations"]) as h:
        if args.workload != "all":
            if args.trace:
                result = trace(h, args.workload, all_invs, args.seed)
            else:
                result = measure(h, all_invs[args.workload], args.seed, args.seconds)
            report(args.workload, result)
        else:
            results = {}
            for w in all_invs:
                results[w] = measure(h, all_invs[w], args.seed, args.seconds)
                report(w, results[w])
                results[f"{w}.trace"] = trace(h, w, all_invs, args.seed)
                report(f"{w}.trace", results[f"{w}.trace"])
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
            }
    result.pop("note", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
