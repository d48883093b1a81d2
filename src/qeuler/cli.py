"""Command-line front end: tables, identity verification, convergence runs.

Exit codes are a stable contract: 0 = success / all verdicts as expected,
1 = verification mismatch, 2 = usage or output error, or a request too large
to compute (out of memory, recursion too deep), 130 = interrupted.
All data output goes to stdout (UTF-8); diagnostics go to stderr.

Every table format is rendered from the canonical values the library
returns (``QRatFn``, or ``XPoly`` for qeuler-poly): text through their
``str``, LaTeX through ``latex_ratfn``, JSON through ``_ratfn_payload``.
JSON output is one ``OutputRecord`` object per invocation, streamed to
stdout one payload item at a time by ``OutputRecord.write``; coefficients
serialize as exact decimal-free rational strings in ascending-power
arrays, so records round-trip losslessly.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, TextIO

from . import euler
from .exactq import QRatFn, XPoly, _display_coeffs, signed_terms


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

class OutputRecord(NamedTuple):
    """Machine-readable result: kind, parameters used, canonical payload."""

    kind: str  # number | polynomial | report | convergence
    metadata: dict
    payload: Iterable  # a list once parsed; the commands pass a generator, written once

    def write(self, out: TextIO) -> None:
        """Write ``json.dumps(self._asdict(), sort_keys=True, indent=2)`` and a newline.

        The envelope keys go out in sorted order and each payload item as it
        is produced, so no list of rows and no whole document is ever held.
        Each value is written by ``text``, which gives the text ``json.dumps``
        gives with those arguments for str-keyed dicts, lists, tuples, str,
        int, float, bool and None, without the stdlib's pure-Python encoder,
        which ``indent`` selects: strings are quoted by ``encode_basestring_ascii``
        from ``_json``, the C function ``json.encoder`` itself wraps, so no run
        imports the ``json`` package.
        """
        from _json import encode_basestring_ascii as quote  # here, so text output skips it

        def text(value, indent: str) -> str:
            """``value`` written at a nesting whose lines start with ``indent``."""
            if isinstance(value, str):
                return quote(value)
            if value is None or value is True or value is False:
                return "null" if value is None else "true" if value else "false"
            if isinstance(value, int):
                return int.__repr__(value)
            if isinstance(value, float):  # json's names for what repr spells nan, inf and -inf
                r = float.__repr__(value)
                return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(r, r)
            inner = indent + "  "
            if isinstance(value, dict):
                ends = "{}"
                items = [quote(k) + ": " + text(v, inner) for k, v in sorted(value.items())]
            elif isinstance(value, (list, tuple)):
                ends = "[]"
                items = [quote(v) if type(v) is str else text(v, inner) for v in value]
            else:
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            if not items:
                return ends
            return ends[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + ends[1]

        out.write(f'{{\n  "kind": {text(self.kind, "  ")},\n'
                  f'  "metadata": {text(self.metadata, "  ")},\n  "payload": [')
        sep = "\n    "  # until the first item; an empty payload is "[]", as json.dumps writes it
        for item in self.payload:
            out.write(sep + text(item, "    "))
            sep = ",\n    "
        out.write("]\n}\n" if sep == "\n    " else "\n  ]\n}\n")

    def serialize(self) -> str:
        """The text ``write`` writes, without its last newline."""
        buf = io.StringIO()
        self.write(buf)
        return buf.getvalue()[:-1]

    @classmethod
    def parse(cls, text: str) -> "OutputRecord":
        import json

        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"record is not a JSON object: {type(data).__name__}")
        if set(data) != {"kind", "metadata", "payload"}:
            raise ValueError(f"malformed record keys: {sorted(data)}")
        if data["kind"] not in ("number", "polynomial", "report", "convergence"):
            raise ValueError(f"unknown record kind {data['kind']!r}")
        if not isinstance(data["metadata"], dict) or not isinstance(data["payload"], list):
            raise ValueError("record metadata must be a JSON object and payload an array")
        return cls(data["kind"], data["metadata"], data["payload"])


def _ratfn_payload(f: QRatFn) -> dict:
    return {
        "num": [str(c) for c in _display_coeffs(f.num)],
        "den": [str(c) for c in _display_coeffs(f.den)],
    }


def _json_row(n: int, value: "QRatFn | XPoly") -> dict:
    if isinstance(value, XPoly):
        return {"n": n, "x_coeffs": [_ratfn_payload(c) for c in value.coeffs]}
    return {"n": n, **_ratfn_payload(value)}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def latex_ratfn(f: QRatFn) -> str:
    num = signed_terms(_display_coeffs(f.num), "q", latex=True)
    if f.den == 1:
        return num
    den = signed_terms(_display_coeffs(f.den), "q", latex=True)
    return f"\\frac{{{num}}}{{{den}}}"


class _Table(NamedTuple):
    """A table kind: its LaTeX left side, its entries 0..n_max, and whether it takes --alpha."""

    latex_lhs: str
    values: Callable[[int, "int | None"], tuple]
    takes_alpha: bool = False


# Every table kind the CLI's ``table`` offers, in the order it lists them.
# Each entry looks its function up in ``euler`` at call time, so one rebound there
# (``perfbench/replay.py`` wraps them to time them) is the one called.
_TABLES: dict[str, _Table] = {
    "qeuler": _Table("\\tilde{{E}}_{{{n}}}", lambda n_max, alpha: euler.q_euler_numbers(n_max)),
    "frobenius": _Table(
        "H_{{{n}}}", lambda n_max, alpha: euler.frobenius_numbers(euler.MINUS_Q_INV, n_max)
    ),
    "weighted": _Table(
        "\\tilde{{E}}^{{({alpha})}}_{{{n}}}",
        lambda n_max, alpha: euler.q_euler_numbers_weighted(alpha, n_max),
        takes_alpha=True,
    ),
    "qeuler-poly": _Table(
        "\\tilde{{E}}_{{{n}}}(x)",
        lambda n_max, alpha: tuple(euler.q_euler_polynomial(n) for n in range(n_max + 1)),
    ),
}
TABLE_KINDS = tuple(_TABLES)


def _latex_row(kind: str, n: int, value: "QRatFn | XPoly", alpha: "int | None") -> str:
    lhs = _TABLES[kind].latex_lhs.format(n=n, alpha=alpha)
    if isinstance(value, XPoly):
        terms = []
        for k, c in enumerate(value.coeffs):
            body = latex_ratfn(c)
            if k == 0:
                terms.append(body)
            else:
                power = "x" if k == 1 else f"x^{{{k}}}"
                terms.append(f"\\left( {body} \\right) {power}")
        rhs = " + ".join(terms) if terms else "0"
    else:
        rhs = latex_ratfn(value)
    return f"{lhs} = {rhs}"


# ---------------------------------------------------------------------------
# table command
# ---------------------------------------------------------------------------

def cmd_table(args, parser) -> int:
    table = _TABLES[args.kind]
    if table.takes_alpha and args.alpha is None:
        parser.error(f"--alpha is required for kind '{args.kind}'")
    if not table.takes_alpha and args.alpha is not None:
        kinds = " or ".join(f"'{kind}'" for kind, t in _TABLES.items() if t.takes_alpha)
        parser.error(f"--alpha only applies to kind {kinds}")
    if args.n_max < 0:
        parser.error("--n-max must be >= 0")
    alpha = args.alpha
    try:
        values = table.values(args.n_max, alpha)
    except ValueError as exc:
        parser.error(str(exc))

    if args.format == "json":
        meta = {"kind_param": args.kind, "n_max": args.n_max}
        if alpha is not None:
            meta["alpha"] = alpha
        record_kind = "polynomial" if isinstance(values[0], XPoly) else "number"
        rows = (_json_row(n, value) for n, value in enumerate(values))
        OutputRecord(record_kind, meta, rows).write(sys.stdout)
    elif args.format == "latex":
        for n, value in enumerate(values):
            print(_latex_row(args.kind, n, value, alpha))
    else:
        for n, value in enumerate(values):
            print(f"{n}\t{value}")
    return 0


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def _reports_for_suite(suite: str, n_max: int) -> list[euler.IdentityReport]:
    return [
        euler.verify_identity(run.identity, max(n_max, run.n_floor))
        for run in euler.SUITES[suite]
        if n_max >= run.n_from
    ]


def _report_payload(report: euler.IdentityReport) -> dict:
    instances = []
    for inst in report.instances:
        entry: dict = {
            "params": list(inst.params),
            "verdict": inst.verdict,
            "expected": inst.expected,
        }
        if inst.note:
            entry["note"] = inst.note
        if inst.left is not None:
            entry["left"] = str(inst.left)
            entry["right"] = str(inst.right)
        instances.append(entry)
    good, total = report.counts
    return {
        "identity": report.identity_id,
        "ok": report.ok,
        "in_order": good,
        "total": total,
        "instances": instances,
    }


def _print_report_text(report: euler.IdentityReport) -> None:
    good, total = report.counts
    if report.ok and report.instances and all(i.expected == euler.FAIL for i in report.instances):
        print(f"{report.identity_id}: FAIL (expected) [{good}/{total} instances]")
    elif report.ok:
        print(f"{report.identity_id}: PASS [{good}/{total} instances]")
    else:
        print(f"{report.identity_id}: MISMATCH [{good}/{total} instances in order]")
    for inst in report.instances:
        if inst.expected == euler.FAIL and inst.ok:
            note = f" ({inst.note})" if inst.note else ""
            print(f"  params={inst.params}: FAIL (expected){note}")
        elif not inst.ok:
            print(f"  params={inst.params}: got {inst.verdict}, expected {inst.expected}")
            if inst.left is not None:
                print(f"    left  = {inst.left}")
                print(f"    right = {inst.right}")


def cmd_verify(args, parser) -> int:
    if args.n_max < 0:
        parser.error("--n-max must be >= 0")
    reports = _reports_for_suite(args.suite, args.n_max)
    all_ok = all(r.ok for r in reports)
    if args.json:
        meta = {"suite": args.suite, "n_max": args.n_max, "ok": all_ok}
        payload = (_report_payload(r) for r in reports)
        OutputRecord("report", meta, payload).write(sys.stdout)
    else:
        for report in reports:
            _print_report_text(report)
        print(f"suite {args.suite}: {'OK' if all_ok else 'MISMATCH'}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# padic command
# ---------------------------------------------------------------------------

def cmd_padic(args, parser) -> int:
    from .padic import DEFAULT_PRECISION, QChoice, convergence_report  # only this command needs it

    K = DEFAULT_PRECISION if args.K is None else args.K
    if args.n < 0:
        parser.error("--n must be >= 0")
    if args.N_max < 1:
        parser.error("--N-max must be >= 1")
    if K < 1:
        parser.error("--K must be >= 1")
    q = Fraction(1 + args.q_offset * args.p)
    try:
        qc = QChoice(args.p, q)
    except ValueError as exc:
        parser.error(str(exc))
    report = convergence_report(args.n, qc, K, range(1, args.N_max + 1))
    if args.json:
        meta = {
            "n": args.n,
            "p": args.p,
            "q": str(q),
            "q_offset": args.q_offset,
            "K": K,
            "N_max": args.N_max,
            "ok": report.ok,
        }
        payload = (
            {"N": r.N, "valuation": r.valuation, "exact": r.exact} for r in report.rows
        )
        OutputRecord("convergence", meta, payload).write(sys.stdout)
    else:
        print(f"moment n={args.n}, p={args.p}, q={q}, precision K={K}")
        for r in report.rows:
            tag = " (exact at this precision)" if r.exact else ""
            print(f"N={r.N}\tdefect valuation >= {r.valuation}{tag}")
        print(f"monotone growth: {'OK' if report.ok else 'VIOLATED'}")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeuler",
        description="Exact q-Euler / Frobenius-Euler tables, identity verification, "
        "and p-adic convergence experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a sequence or polynomial table")
    p_table.add_argument("kind", choices=TABLE_KINDS)
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--alpha", type=int, default=None,
                         help="integer weight >= 1 (kind 'weighted' only)")
    p_table.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("--suite", choices=list(euler.SUITES), default="all")
    p_verify.add_argument("--n-max", type=int, default=20, help="largest n checked (default 20); "
                          "cost grows faster than linearly (timings in the README)")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_padic = sub.add_parser("padic", help="finite-level fermionic integral convergence")
    p_padic.add_argument("--n", type=int, required=True, help="moment index")
    p_padic.add_argument("--p", type=int, required=True, help="an odd prime")
    p_padic.add_argument("--q-offset", type=int, default=1, help="q = 1 + offset*p")
    p_padic.add_argument("--K", type=int, default=None)  # None: cmd_padic reads padic's default
    p_padic.add_argument("--N-max", dest="N_max", type=int, default=6)
    p_padic.add_argument("--json", action="store_true")
    p_padic.set_defaults(func=cmd_padic)

    return parser


def _discard_stdout() -> None:
    """Point stdout at the null device, so the interpreter's last flush cannot fail."""
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    except (AttributeError, OSError, ValueError):  # no stdout, or no file descriptor behind it
        pass


def main(argv=None) -> int:
    sys.stderr = sys.stderr or open(os.devnull, "w")  # fd 2 closed: else argparse uses stdout
    parser = build_parser()
    try:
        if sys.stdout is None:  # descriptor 1 was closed before start-up
            raise OSError("stdout is closed")
        try:
            args = parser.parse_args(argv)  # --help and usage errors end in SystemExit
            return args.func(args, parser)
        finally:
            sys.stdout.flush()  # a buffered write fails here, not at exit
    except BrokenPipeError:
        _discard_stdout()
        return 0
    except OSError as exc:
        _discard_stdout()
        print(f"qeuler: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        # a request too large to compute is a usage error, not a failed identity
        reason = "out of memory" if isinstance(exc, MemoryError) else "recursion too deep"
        print(f"qeuler: {reason}; the request is too large to compute", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("qeuler: interrupted", file=sys.stderr)
        return 130


def run() -> None:
    """The process entry of ``python -m qeuler.cli`` and of the ``qeuler`` script.

    It runs main, flushes both streams and ends in ``os._exit``, which skips
    the interpreter's teardown (a last garbage collection, every memo freed):
    the output is complete by then.  A failing flush leaves main's code, as
    main has already reported its output errors.  ``main(argv)`` returns its
    code, so library callers and tests keep the normal shutdown.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help and usage errors carry an int
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # stdout, when descriptor 1 was closed before start-up
                stream.flush()
        except (OSError, ValueError):
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
