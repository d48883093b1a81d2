"""Traced replay of one qeuler CLI invocation, in a fresh interpreter.

    python perfbench/replay.py SPANS_OUT WARM_N -- <qeuler argv...>

Wraps the public functions of ``qeuler.euler``, ``qeuler.bernstein``,
``qeuler.padic`` and ``qeuler.cli`` that the CLI calls with span
recorders, then runs ``qeuler.cli.main(argv)`` so the calls happen in
exactly the order and with exactly the arguments the CLI uses.  With
WARM_N >= 0 the weight-0 sequence up to WARM_N is computed first, in its
own span, so identity checks are timed on a warm ``lru_cache``.  Stdout
and the exit code are the CLI's own; spans go to SPANS_OUT as JSON rows
``[name, start_ns, end_ns, depth, count]``.
"""

import time

T0 = time.perf_counter_ns()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from qeuler import bernstein, cli, euler, padic  # noqa: E402

SPANS = [["setup.import", T0, time.perf_counter_ns(), 0, 0]]
_depth = 0


def _traced(fn, namer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _depth
        start = time.perf_counter_ns()
        _depth += 1
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            _depth -= 1
            name, count = namer(args, result)
            SPANS.append([name, start, time.perf_counter_ns(), _depth, count])

    return wrapper


def _fixed(name):
    return lambda args, result: (name, 0)


def _identity(args, result):
    return f"euler.verify.{args[0]}", len(getattr(result, "instances", ()))


def _integral(args, result):
    qc, N = args[1], args[2]
    return f"padic.integral_partial.p{qc.p}N{N}", qc.p**N


# (module, attribute, namer): every public entry point the CLI reaches.
# Calls inside a module go through its globals, so patching the module
# attribute also catches the calls one layer makes into itself.
# ``cli`` imports ``convergence_report`` by name, so it is wrapped there too.
_WRAPS = [
    (euler, "q_euler_numbers", _fixed("euler.q_euler_numbers")),
    (euler, "frobenius_numbers", _fixed("euler.frobenius_numbers")),
    (euler, "q_euler_numbers_weighted", _fixed("euler.weighted")),
    (euler, "q_euler_polynomial", _fixed("euler.q_euler_polynomial")),
    (euler, "verify_identity", _identity),
    (bernstein, "verify_theorem8",
     lambda args, result: ("bernstein.verify_theorem8", len(getattr(result, "instances", ())))),
    (padic, "fermionic_integral_partial", _integral),
    (padic, "convergence_report", _fixed("padic.convergence_report")),
    (cli, "convergence_report", _fixed("padic.convergence_report")),
    (cli, "main", _fixed("cli.main")),
]


def main() -> int:
    spans_out, warm_n, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: replay.py SPANS_OUT WARM_N -- ARGV...")
    if int(warm_n) >= 0:
        start = time.perf_counter_ns()
        euler.q_euler_numbers(int(warm_n))
        SPANS.append(["euler.verify.warmup", start, time.perf_counter_ns(), 0, 0])
    for module, attr, namer in _WRAPS:
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, _traced(fn, namer))
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(SPANS, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
