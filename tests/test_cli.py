"""CLI contract: flags, formats, exit codes, JSON round-trips."""

import ast
import errno
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qeuler
from qeuler import bernstein, cli, euler, exactq
from qeuler.cli import TABLE_KINDS, OutputRecord, _ratfn_payload, latex_ratfn, main
from qeuler.euler import SUITES
from qeuler.exactq import QPoly, QRatFn, XPoly, signed_terms
from qeuler.padic import PRIME_LIMIT, is_odd_prime
from test_verdicts import fresh_caches  # noqa: F401 (a fixture: every euler cache emptied)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def whole_document(record: OutputRecord) -> str:
    """The oracle for ``OutputRecord.write``: the record dumped whole, then a newline."""
    return json.dumps(record._asdict(), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_qeuler_text(capsys):
    code, out, _ = run_cli(capsys, "table", "qeuler", "--n-max", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0\t(1)/(1)"
    assert lines[1] == "1\t(-q)/(1 + q)"
    assert lines[2] == "2\t(-q + q^2)/(1 + 2*q + q^2)"


def test_table_single_row(capsys):
    code, out, _ = run_cli(capsys, "table", "qeuler", "--n-max", "0")
    assert code == 0
    assert out.strip() == "0\t(1)/(1)"


def test_table_weighted_n0(capsys):
    code, out, _ = run_cli(capsys, "table", "weighted", "--alpha", "1", "--n-max", "0")
    assert code == 0
    assert out.strip() == "0\t(1)/(1)"


def test_table_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "table", "qeuler", "--n-max", "2", "--format", "json")
    assert code == 0
    record = OutputRecord.parse(out)
    assert record.kind == "number"
    assert record.payload[1] == {"n": 1, "num": ["0", "-1"], "den": ["1", "1"]}
    assert out == whole_document(record)
    assert OutputRecord.parse(record.serialize()) == record
    empty = OutputRecord("number", {"n_max": 0}, [])
    assert repr(empty) == "OutputRecord(kind='number', metadata={'n_max': 0}, payload=[])"
    written = io.StringIO()
    empty.write(written)
    assert written.getvalue() == empty.serialize() + "\n" == whole_document(empty)
    with pytest.raises(AttributeError):
        record.kind = "polynomial"


def test_table_poly_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "table", "qeuler-poly", "--n-max", "3", "--format", "json")
    assert code == 0
    record = OutputRecord.parse(out)
    assert record.kind == "polynomial"
    assert record.payload[1]["x_coeffs"][1] == {"num": ["1"], "den": ["1"]}
    assert out == whole_document(record)
    assert OutputRecord.parse(record.serialize()) == record


def test_json_table_is_written_item_by_item(monkeypatch):
    # rows stream to stdout, so neither a list of them nor the 750 KB document is
    # ever held: the render peaks near 0.5 MB, against 5 MB for one json.dumps
    argv = ["table", "weighted", "--alpha", "3", "--n-max", "30", "--format", "json"]
    with open(os.devnull, "w", encoding="utf-8") as null:
        monkeypatch.setattr(sys, "stdout", null)
        assert main(argv) == 0  # warms every memo, so only the rendering is traced
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20


_JSON_LEAF = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
              | st.sampled_from(["", "\"", "\\", "\n", "\x00\x1f\x7f", "\u00e9", "\U0001d11e"]))
_JSON_VALUE = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=6), _JSON_VALUE, max_size=4),
       st.lists(_JSON_VALUE, max_size=4))
def test_record_writer_matches_json_dumps(metadata, payload):
    # nested dicts, lists and tuples, escapes, non-ASCII, empty containers,
    # bools, None, ints and floats (nan and the infinities included), against
    # the stdlib's indented encoder, whole and streamed from a generator
    record = OutputRecord("report", metadata, payload)
    assert record.serialize() + "\n" == whole_document(record)
    streamed = io.StringIO()
    OutputRecord("report", metadata, iter(payload)).write(streamed)
    assert streamed.getvalue() == whole_document(record)


@pytest.mark.parametrize("text", [
    "1", "null", "[]", '"kind"', "{",
    '{"kind": "number", "metadata": {}}',
    '{"kind": "table", "metadata": {}, "payload": []}',
    '{"kind": "number", "metadata": 1, "payload": []}',
    '{"kind": "number", "metadata": {}, "payload": "x"}',
])
def test_output_record_rejects_malformed(text):
    with pytest.raises(ValueError):
        OutputRecord.parse(text)


def _rebuilt(payload: dict) -> QRatFn:
    num, den = (QPoly(Fraction(c) for c in payload[key]) for key in ("num", "den"))
    f = QRatFn(num, den)
    assert (f.num, f.den) == (num, den), payload  # already reduced, denominator monic
    return f


def _library_values(kind: str, alpha, n_max: int) -> list:
    if kind == "qeuler-poly":
        return [euler.q_euler_polynomial(n) for n in range(n_max + 1)]
    if kind == "qeuler":
        seq = euler.q_euler_numbers(n_max)
    elif kind == "frobenius":
        seq = euler.frobenius_numbers(euler.MINUS_Q_INV, n_max)
    else:
        seq = euler.q_euler_numbers_weighted(alpha, n_max)
    return [seq[n] for n in range(n_max + 1)]


@pytest.mark.parametrize("kind, alpha", [
    ("qeuler", None), ("frobenius", None), ("qeuler-poly", None),
    ("weighted", 1), ("weighted", 2), ("weighted", 3),
])
def test_table_json_rows_rebuild_the_library_values(capsys, kind, alpha):
    # each row rebuilds to the library's value and is that value's canonical payload
    extra = ("--alpha", str(alpha)) if alpha else ()
    code, out, _ = run_cli(capsys, "table", kind, "--n-max", "8", *extra, "--format", "json")
    assert code == 0
    rows = OutputRecord.parse(out).payload
    assert [row["n"] for row in rows] == list(range(9))
    for row, value in zip(rows, _library_values(kind, alpha, 8)):
        if kind == "qeuler-poly":
            rebuilt = XPoly(_rebuilt(c) for c in row["x_coeffs"])
            assert [_ratfn_payload(c) for c in rebuilt.coeffs] == row["x_coeffs"]
        else:
            rebuilt = _rebuilt(row)
            assert {"n": row["n"], **_ratfn_payload(rebuilt)} == row
        assert rebuilt == value, row["n"]


def _braces_balanced(s: str) -> bool:
    depth = 0
    for ch in s:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def test_table_latex_well_formed(capsys):
    code, out, _ = run_cli(capsys, "table", "qeuler", "--n-max", "5", "--format", "latex")
    assert code == 0
    for line in out.strip().splitlines():
        assert _braces_balanced(line)
        assert "\\frac" not in line or "\n" not in line  # one row per line
    assert "\\frac{-q}{1 + q}" in out


def test_table_latex_poly_well_formed(capsys):
    code, out, _ = run_cli(capsys, "table", "qeuler-poly", "--n-max", "4", "--format", "latex")
    assert code == 0
    for line in out.strip().splitlines():
        assert _braces_balanced(line)


def test_latex_poly_writes_fractions_with_frac():
    # no table has a non-integer coefficient, so only a direct call reaches \frac
    coeffs = (Fraction(1, 2), Fraction(-3, 4), Fraction(1))
    assert signed_terms(coeffs, "q", latex=True) == "\\frac{1}{2} - \\frac{3}{4} q + q^{2}"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=6), max_size=8))
def test_renderers_print_integer_content_as_its_fractions(coeffs):
    # text, JSON and LaTeX read coefficients as ints when the content is
    # integral; each must print exactly what the Fraction coefficients print
    p = QPoly(coeffs)
    assert str(p) == signed_terms(p.coeffs, "q")
    assert _ratfn_payload(QRatFn(p))["num"] == [str(c) for c in p.coeffs]
    assert latex_ratfn(QRatFn(p)) == signed_terms(p.coeffs, "q", latex=True)


def _signed_terms_by_callback(coeffs, term):
    """The oracle of ``exactq.signed_terms``: its old code, one ``term(|c_k|, k)`` per term."""
    if not coeffs:
        return "0"
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        body = term(-c if c < 0 else c, k)
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts)


def _text_term(var):
    def term(mag, k):
        if k == 0:
            return str(mag)
        power = var if k == 1 else f"{var}^{k}"
        return power if mag == 1 else f"{mag}*{power}"
    return term


def _latex_term(var):
    def term(mag, k):
        mag_s = (str(mag.numerator) if mag.denominator == 1
                 else f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}")
        if k == 0:
            return mag_s
        power = var if k == 1 else f"{var}^{{{k}}}"
        return power if mag == 1 else f"{mag_s} {power}"
    return term


_COEFF = st.integers(-3, 3) | st.integers(-(10**40), 10**40) | st.fractions(
    min_value=-30, max_value=30, max_denominator=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(_COEFF, max_size=40), st.sampled_from(["q", "x"]))
def test_signed_terms_match_the_callback_renderer(coeffs, var):
    # ints and Fractions, zeros, units and long integers, in text and LaTeX,
    # with lengths on both sides of the cached suffixes' powers of two
    assert signed_terms(coeffs, var) == _signed_terms_by_callback(coeffs, _text_term(var))
    assert signed_terms(coeffs, var, latex=True) == _signed_terms_by_callback(
        coeffs, _latex_term(var))


def test_table_frobenius_prints_the_qeuler_table(capsys):
    # thm1 through the CLI: the gcd-bound Frobenius route against the
    # gcd-free recurrence, at degree 40
    code, frob, _ = run_cli(capsys, "table", "frobenius", "--n-max", "40")
    assert code == 0
    code, qeul, _ = run_cli(capsys, "table", "qeuler", "--n-max", "40")
    assert code == 0
    assert frob == qeul


def test_table_weighted_requires_alpha(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "weighted", "--n-max", "3"])
    assert exc.value.code == 2
    assert "error: --alpha is required for kind 'weighted'\n" in capsys.readouterr().err


def test_table_alpha_only_for_weighted(capsys):
    for kind in ("qeuler", "frobenius", "qeuler-poly"):
        with pytest.raises(SystemExit) as exc:
            main(["table", kind, "--n-max", "3", "--alpha", "2"])
        assert exc.value.code == 2
        assert "error: --alpha only applies to kind 'weighted'\n" in capsys.readouterr().err


def test_table_weighted_huge_alpha_answers_quickly(capsys):
    # n_max = 0 needs no power of q^alpha - 1, so nothing may scale with alpha
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "table", "weighted", "--alpha", "100000000", "--n-max", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out == "0\t(1)/(1)\n"


def test_table_bad_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "nonsense", "--n-max", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["padic", "--n", "1", "--p", "3", "--N-max", "0"], "--N-max must be >= 1"),
    (["padic", "--n", "1", "--p", "3", "--K", "0"], "--K must be >= 1"),
    (["table", "weighted", "--alpha", "0", "--n-max", "3"],
     "weight must be an integer >= 1, got 0"),
], ids=["padic-N-max", "padic-K", "table-alpha"])
def test_usage_error_exits_2_with_its_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: {message}\n")
    assert err.startswith(f"usage: qeuler {argv[0]} ")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_erratum_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "erratum", "--n-max", "6")
    assert code == 0
    assert "k0-remark: FAIL (expected)" in out
    assert "thm7: PASS" in out


def test_verify_thm5_n0_reports_hypothesis(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "thm5", "--n-max", "0")
    assert code == 0
    assert "excluded by the n >= 1 hypothesis" in out


def test_verify_thm3_is_the_corollary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "thm3", "--n-max", "5")
    assert code == 0
    assert "cor3: PASS" in out


def test_verify_single_suites_exit_zero(capsys):
    for suite in ("thm1", "thm4", "thm8", "classical", "weighted"):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--n-max", "6")
        assert code == 0, (suite, out)


_ALL_AT_0 = ["thm1", "thm2", "cor3", "thm4", "thm5", "thm6", "thm7", "classical", "weighted",
             "k0-remark"]

# every --suite choice in the order --help lists it: (report ids at --n-max 0, at --n-max 2)
SUITE_REPORT_IDS = {
    "all": (_ALL_AT_0, _ALL_AT_0 + ["thm8"]),  # thm8 has no instance below n = 1
    "thm1": (["thm1"], ["thm1"]),
    "thm2": (["thm2"], ["thm2"]),
    "thm3": (["cor3"], ["cor3"]),  # the third numbered result is a corollary
    "thm4": (["thm4"], ["thm4"]),
    "thm5": (["thm5"], ["thm5"]),
    "thm6": (["thm6"], ["thm6"]),
    "thm7": (["thm7"], ["thm7"]),
    "thm8": (["thm8"], ["thm8"]),
    "cor3": (["cor3"], ["cor3"]),
    "classical": (["classical"], ["classical"]),
    "erratum": (["k0-remark", "thm7"], ["k0-remark", "thm7"]),
    "weighted": (["weighted"], ["weighted"]),
}


@pytest.mark.parametrize("n_max", [0, 2])
@pytest.mark.parametrize("suite", list(SUITE_REPORT_IDS))
def test_verify_suite_registry(capsys, suite, n_max):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    choices = re.search(r"--suite \{([^}]*)\}", capsys.readouterr().out).group(1)
    assert choices.split(",") == list(SUITE_REPORT_IDS)

    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n-max", str(n_max), "--json")
    assert (code, err) == (0, "")
    record = OutputRecord.parse(out)
    assert record.metadata == {"suite": suite, "n_max": n_max, "ok": True}
    assert [r["identity"] for r in record.payload] == SUITE_REPORT_IDS[suite][n_max > 0]
    if suite == "erratum" and n_max == 0:
        # both erratum reports run at n_max = 1, the first n with an instance
        assert [[i["params"] for i in r["instances"]] for r in record.payload] == [[[1]], [[1]]]
    if suite == "thm8" and n_max == 0:
        assert record.payload[0]["total"] == 0 and record.payload[0]["instances"] == []


def test_verify_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "erratum", "--n-max", "4", "--json")
    assert code == 0
    record = OutputRecord.parse(out)
    assert record.kind == "report"
    assert record.metadata["ok"] is True
    ids = [entry["identity"] for entry in record.payload]
    assert ids == ["k0-remark", "thm7"]
    witness = record.payload[0]["instances"][0]
    assert witness["left"] == "(1 + 2*q)/(1 + q)"
    assert witness["right"] == "(-q^2)/(1 + q)"
    assert out == whole_document(record)
    assert OutputRecord.parse(record.serialize()) == record


def test_verify_text_mismatch_report(capsys, monkeypatch, fresh_caches):
    # the closed form's numerator off by one at n = 3 fails weighted at (alpha, 3)
    honest = euler._alternating_numerator

    def perturbed(alpha, n, b):
        # one q-coefficient up by 1 at q = 2^b: the route check, the witnesses
        # and the closed form all unpack the same perturbed polynomial
        t = honest(alpha, n, b)
        if n == 3:
            t += 1 << (b * (len(exactq._iunpack(t, b)) // 2))
        return t

    monkeypatch.setattr(euler, "_alternating_numerator", perturbed)
    code, out, err = run_cli(capsys, "verify", "--suite", "weighted", "--n-max", "4")
    expected = ["weighted: MISMATCH [12/15 instances in order]"]
    for alpha in (1, 2, 3):
        expected += [
            f"  params=({alpha}, 3): got fail, expected pass",
            f"    left  = {euler.weighted_recurrence(alpha, 3)[3]}",
            f"    right = {euler.weighted_closed_form(alpha, 3)}",
        ]
    expected.append("suite weighted: MISMATCH")
    assert (code, out.splitlines(), err) == (1, expected, "")


# ---------------------------------------------------------------------------
# padic
# ---------------------------------------------------------------------------

def test_padic_constant_moment_exact(capsys):
    code, out, _ = run_cli(capsys, "padic", "--n", "0", "--p", "3")
    assert code == 0
    assert "exact" in out


def test_padic_moment1_monotone(capsys):
    code, out, _ = run_cli(capsys, "padic", "--n", "1", "--p", "3", "--N-max", "6")
    assert code == 0
    assert "monotone growth: OK" in out


def test_padic_rejects_composite_p(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["padic", "--n", "1", "--p", "4"])
    assert exc.value.code == 2
    assert "p must be an odd prime" in capsys.readouterr().err


def test_padic_large_prime_answers_quickly(capsys):
    is_odd_prime.cache_clear()  # time the primality test itself, not a cache hit
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "padic", "--n", "1", "--p", str(2**61 - 1))
    assert time.perf_counter() - start < 1.0
    assert code in (0, 1) and "monotone growth" in out


def test_padic_out_of_range_prime_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["padic", "--n", "1", "--p", str(PRIME_LIMIT + 2)])
    assert exc.value.code == 2
    assert "out of range" in capsys.readouterr().err


def test_padic_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "padic", "--n", "1", "--p", "5", "--N-max", "4", "--json")
    assert code == 0
    record = OutputRecord.parse(out)
    assert record.kind == "convergence"
    assert record.metadata["ok"] is True
    assert [row["N"] for row in record.payload] == [1, 2, 3, 4]
    assert out == whole_document(record)
    assert OutputRecord.parse(record.serialize()) == record


def test_padic_nonmonotone_cell_exits_one(capsys):
    # the documented (p=3, n=3) dip: the CLI reports the violation honestly
    code, out, _ = run_cli(capsys, "padic", "--n", "3", "--p", "3", "--N-max", "6")
    assert code == 1
    assert "VIOLATED" in out


def test_padic_deep_levels_exit_cleanly(capsys):
    # 3^20 terms: a level this deep must run, not raise, in both exit paths
    code, out, err = run_cli(capsys, "padic", "--n", "6", "--p", "3", "--N-max", "20", "--json")
    assert (code, err) == (0, "")
    assert [row["N"] for row in OutputRecord.parse(out).payload] == list(range(1, 21))

    code, out, err = run_cli(capsys, "padic", "--n", "3", "--p", "3", "--N-max", "20")
    assert (code, err) == (1, "")
    vals = [int(m) for m in re.findall(r"^N=\d+\tdefect valuation >= (\d+)", out, re.M)]
    assert len(vals) == 20 and vals[:6] == [5, 4, 5, 6, 7, 8]


# ---------------------------------------------------------------------------
# environment and the exit-code contract
# ---------------------------------------------------------------------------

def test_table_ignores_qeuler_cache_dir(capsys, tmp_path, monkeypatch):
    # a well-formed table file with a wrong E_0 = 7, as an old sequence cache wrote it
    planted = {"version": 1, "kind": "qeuler", "alpha": None,
               "rows": [{"n": 0, "num": ["7"], "den": ["1"]},
                        {"n": 1, "num": ["0", "-1"], "den": ["1", "1"]}]}
    (tmp_path / "qeuler.json").write_text(json.dumps(planted))
    monkeypatch.setenv("QEULER_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, "table", "qeuler", "--n-max", "1")
    assert (code, out, err) == (0, "0\t(1)/(1)\n1\t(-q)/(1 + q)\n", "")
    assert os.listdir(tmp_path) == ["qeuler.json"]
    assert json.loads((tmp_path / "qeuler.json").read_text()) == planted


def _spy_on_generic_gcd(monkeypatch) -> list:
    """Record every ``exactq.qpoly_gcd`` call, the gcd each generic QRatFn operation takes."""
    calls = []
    gcd = exactq.qpoly_gcd

    def spy(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(exactq, "qpoly_gcd", spy)
    return calls


@pytest.mark.parametrize("argv", [
    "table frobenius --n-max 30",
    "verify --suite all --n-max 20",
    "table qeuler-poly --n-max 20",
    "table weighted --alpha 3 --n-max 12",
    "padic --n 2 --p 5 --N-max 4",
])
def test_cli_commands_make_no_generic_gcd_call(argv, monkeypatch, capsys, fresh_caches):
    # every route the CLI takes reaches canonical form by proof or by cyclotomic
    # division, so none goes through generic QRatFn arithmetic and its gcd
    calls = _spy_on_generic_gcd(monkeypatch)
    assert (run_cli(capsys, *argv.split())[0], calls) == (0, [])


def test_passing_verify_reaches_no_canonical_route(monkeypatch, capsys, fresh_caches):
    # thm1, thm2 and classical are judged on the packed weight-0 chain, so a
    # passing verify never builds the sequences, polynomials or values at q = 1
    # that the tables print
    calls = []
    for name in ("weighted_recurrence", "frobenius_numbers", "q_euler_polynomial",
                 "frobenius_polynomial"):
        honest = getattr(euler, name)
        monkeypatch.setattr(euler, name, lambda *args, name=name, honest=honest: calls.append(
            name) or honest(*args))
    honest_eval = QRatFn.eval
    monkeypatch.setattr(QRatFn, "eval",
                        lambda self, c: calls.append("eval") or honest_eval(self, c))
    assert (run_cli(capsys, "verify", "--suite", "all", "--n-max", "20")[0], calls) == (0, [])
    # the spies see the table routes
    assert run_cli(capsys, "table", "qeuler-poly", "--n-max", "2")[0] == 0
    assert euler.q_euler_numbers(1)[1].eval(1) == Fraction(-1, 2)
    assert sorted(set(calls)) == ["eval", "q_euler_polynomial", "weighted_recurrence"]


def _spy_on_unpacked_sides(monkeypatch) -> list:
    """Record the Phi_d exponents of every side unpacked from its value at q = 2^b."""
    calls = []
    unpacked_over = euler._unpacked_over
    monkeypatch.setattr(euler, "_unpacked_over", lambda value, b, factors: calls.append(
        dict(factors)) or unpacked_over(value, b, factors))
    return calls


@pytest.mark.parametrize("argv", [
    "table weighted --alpha 3 --n-max 12",
    "verify --suite weighted --n-max 12",
])
def test_passing_weighted_runs_build_no_list_sides(argv, monkeypatch, capsys, fresh_caches):
    # the route check is decided at q = 2^b; only a failing instance unpacks
    # (q^alpha-1)^n N_n and the closed form into coefficient lists
    calls = _spy_on_unpacked_sides(monkeypatch)
    assert (run_cli(capsys, *argv.split())[0], calls) == (0, [])


def test_passing_verify_builds_moment_lists_only_for_expected_failures(
        monkeypatch, capsys, fresh_caches):
    # every moment identity is decided at q = 2^b; the lists are unpacked only
    # for the witnesses of the instances that fail by design: the k=0 remark,
    # whose rows thm8's (n, 0, "k0-remark") rows share, judged once, and thm5 at n = 0
    calls = _spy_on_unpacked_sides(monkeypatch)
    assert run_cli(capsys, "verify", "--suite", "all", "--n-max", "12")[0] == 0
    expected = [0] * 2 + list(range(1, 13)) * 2  # both sides of each failing row, once
    assert sorted(c[2] for c in calls) == sorted(expected)
    assert all(list(c) == [2] for c in calls)  # each over (1+q)^n


@pytest.mark.parametrize("argv", [
    "table weighted --alpha 2 --n-max 12",
    "table weighted --alpha 3 --n-max 12",
    "table qeuler --n-max 40",
    "table qeuler-poly --n-max 12",
], ids=["2", "3", "qeuler", "qeuler-poly"])
def test_passing_weighted_tables_fold_no_numerator(argv, monkeypatch, capsys, fresh_caches):
    # den_n's Phi_d are decided by residue sums, and Phi_2^n at even alpha by
    # proof (weight 0 included), so no entry tests its numerator against a Phi_d
    calls = []
    quotient = euler._cyclotomic_quotient
    monkeypatch.setattr(euler, "_cyclotomic_quotient", lambda *a: calls.append(a) or quotient(*a))
    assert (run_cli(capsys, *argv.split())[0], calls) == (0, [])


def test_library_moments_make_no_generic_gcd_call(monkeypatch, fresh_caches):
    calls = _spy_on_generic_gcd(monkeypatch)
    for n in range(1, 9):
        for k in range(n):
            bernstein.bernstein_moment_lhs(k, n)
            bernstein.bernstein_moment_rhs(k, n, "full")
            bernstein.bernstein_moment_rhs(k, n, "reduced")
        bernstein.bernstein_moment_lhs(n, n)
    bernstein.padic_moment_crosscheck(3)
    assert calls == []


_OPTIONS = {
    "table": ["--n-max", "--alpha", "--format"],
    "verify": ["--suite", "--n-max", "--json"],
    "padic": ["--n", "--p", "--q-offset", "--K", "--N-max", "--json"],
    "bogus": ["--json"],
}
_VALUES = {
    "--n-max": ["-1", "0", "1", "3", "x"],
    "--alpha": ["-1", "0", "1", "3", "x"],
    "--format": ["text", "json", "latex", "yaml"],
    "--suite": list(SUITES) + ["thm9"],
    "--n": ["-1", "0", "3", "x"],
    "--p": ["2", "3", "5", "9", "x"],
    "--q-offset": ["-1", "0", "1", "3"],
    "--K": ["-1", "0", "1", "8"],
    "--N-max": ["-1", "0", "1", "4"],
}
# Near misses of a well-formed command line, which argparse reads or refuses:
# abbreviations (taking their option's values), --opt=value forms, help and
# "--" tokens, and values int() reads as argparse does or refuses
_ABBREVIATIONS = {
    "table": {"--n-m": "--n-max", "--al": "--alpha", "--form": "--format"},
    "verify": {"--su": "--suite", "--n-m": "--n-max", "--js": "--json"},
    "padic": {"--N": "--N-max", "--q-off": "--q-offset", "--js": "--json"},
    "bogus": {},
}
_EQUALS_FORMS = {
    "table": ["--n-max=1", "--alpha=2", "--format=json"],
    "verify": ["--suite=thm1", "--n-max=1"],
    "padic": ["--n=2", "--p=5", "--N-max=2"],
    "bogus": [],
}
_NEAR_VALUES = ["+3", " 3", "３", "²", "-", "", "--"]  # none above 3: padic sums p^N terms
_NEAR_TOKENS = ["-h", "--help", "--he", *_NEAR_VALUES]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(list(_OPTIONS)))
    argv = [command]
    if command == "table":
        argv.append(draw(st.sampled_from(list(TABLE_KINDS) + ["nonsense"])))
    if command == "verify":  # its default --n-max 20 takes seconds
        argv += ["--n-max", "2"]
    abbreviations = _ABBREVIATIONS[command]
    tokens = _OPTIONS[command] + list(abbreviations) + _EQUALS_FORMS[command] + _NEAR_TOKENS
    for opt in draw(st.lists(st.sampled_from(tokens), max_size=4)):
        argv.append(opt)
        opt = abbreviations.get(opt, opt)
        if opt in _VALUES:
            argv.append(draw(st.sampled_from(_VALUES[opt] + _NEAR_VALUES)))
    return argv


class _FullStdout(io.StringIO):
    """A stdout on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@settings(max_examples=120, deadline=None)
@given(argv=_argv(), full_stdout=st.booleans())
def test_cli_exit_code_contract(argv, full_stdout):
    # any argv, even an unwritable stdout: exit 0, 1 or 2, never a traceback
    out, err = _FullStdout() if full_stdout else io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


_REQUIRED = {"table": ["--n-max", "3"], "padic": ["--n", "2", "--p", "5"]}
# The token alphabet of the reader's property: every command, option spelling,
# abbreviation and --opt=value form, the near-miss tokens, and as values ints,
# negatives, each allowed value and junk
_READER_TOKENS = sorted({
    "table", "verify", "padic", "bogus", *_NEAR_TOKENS,
    *(opt for opts in _OPTIONS.values() for opt in opts),
    *(abbr for abbrs in _ABBREVIATIONS.values() for abbr in abbrs),
    *(form for forms in _EQUALS_FORMS.values() for form in forms),
    *(value for values in _VALUES.values() for value in values),
    *TABLE_KINDS, "nonsense", "-12", "1.5", "-x",
})
# drawn as often as the whole alphabet: int() reads "1_0", "-1_0" and "-3 " too,
# but argparse takes "-1_0" for an option
_READER_NEAR_VALUES = [*_NEAR_VALUES, "1_0", "-1_0", "-3 ", "-３"]


@st.composite
def _reader_argv(draw):
    # a command line near a well-formed one, so that both of the reader's answers come up:
    # its required arguments and some options with values, then up to three random edits
    command = draw(st.sampled_from(["table", "verify", "padic"]))
    argv = [command] + (["qeuler"] if command == "table" else []) + _REQUIRED.get(command, [])
    for opt in draw(st.lists(st.sampled_from(_OPTIONS[command]), max_size=3)):
        argv += [opt] + ([draw(st.sampled_from(_VALUES[opt]))] if opt in _VALUES else [])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        token = draw(st.sampled_from(_READER_TOKENS) | st.sampled_from(_READER_NEAR_VALUES))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "swap"]))
        if edit == "insert":
            argv.insert(at, token)
        elif at < len(argv):
            if edit == "replace":
                argv[at] = token
            elif edit == "delete":
                del argv[at]
            else:
                other = draw(st.integers(0, len(argv) - 1))
                argv[at], argv[other] = argv[other], argv[at]
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=_reader_argv())
@example(argv=["table", "qeuler", "--n-max", "-1_0"])  # an option to argparse
@example(argv=["table", "qeuler", "--n-max", "-３"])  # -3 to 3.11's argparse; the reader declines
@example(argv=["padic", "--n", "2", "--p", "5", "--K", "-3 "])
def test_fast_reader_reads_argv_as_argparse_does(argv):
    # the reader declines (None) or gives argparse's namespace: same attributes,
    # same typed values, the same func; whenever argparse exits, it declined
    fast = cli._fast_args(argv)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            parsed = vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            parsed = None
    if fast is not None:
        assert parsed is not None, argv
        read = vars(fast)
        assert read.keys() == parsed.keys(), argv
        for key in read.keys() - {"parser"}:  # the reader's parser is argparse's, built on error
            assert (type(read[key]), read[key]) == (type(parsed[key]), parsed[key]), (argv, key)


@pytest.mark.parametrize("error, reason", [
    (MemoryError, "out of memory"), (RecursionError, "recursion too deep")])
def test_cli_resource_errors_exit_2_with_one_line(error, reason, monkeypatch, capsys):
    def exhausted(n_max):
        raise error

    monkeypatch.setitem(euler._CHECK_BY_ID, "thm1", exhausted)
    code, out, err = run_cli(capsys, "verify", "--suite", "thm1", "--n-max", "2")
    assert (code, out, err) == (2, "", f"qeuler: {reason}; the request is too large to compute\n")


def test_cli_interrupt_exits_130_without_traceback(monkeypatch, capsys):
    def interrupted(n_max):
        raise KeyboardInterrupt

    monkeypatch.setitem(euler._CHECK_BY_ID, "thm1", interrupted)
    code, out, err = run_cli(capsys, "verify", "--suite", "thm1", "--n-max", "2")
    assert (code, out, err) == (130, "", "qeuler: interrupted\n")


_TABLE_ARGV = ["table", "qeuler", "--n-max", "1"]


def _python(args, stdout, text=True, **popen) -> subprocess.CompletedProcess:
    """A fresh interpreter on this qeuler; stdout left buffered, so a failing write is a flush."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = os.path.dirname(os.path.dirname(qeuler.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout, stderr=subprocess.PIPE, text=text, env=env, timeout=60, **popen,
    )


def _cli_into(stdout, argv=_TABLE_ARGV, **popen) -> subprocess.CompletedProcess:
    return _python(["-m", "qeuler.cli", *argv], stdout, **popen)


_LOADED_LAYERS = (
    "import sys; from qeuler import cli\n"
    "try: code = cli.main(sys.argv[1:])\n"
    "except SystemExit as exc: code = exc.code\n"
    "print(code, sorted(m for m in sys.modules if m.startswith('qeuler.')), "
    "'json' in sys.modules, 'argparse' in sys.modules, 'gettext' in sys.modules, file=sys.stderr)"
)
# argparse, with gettext under it, loads only for --help and usage errors: (argv, exit code)
_ARGPARSE_RUNS = {"--help": 0, "table qeuler --n-max -1": 2}


@pytest.mark.parametrize("argv, loaded", [
    ("table weighted --alpha 2 --n-max 4 --format json", ["cli", "euler", "exactq"]),
    ("table frobenius --n-max 3 --format latex", ["cli", "euler", "exactq"]),
    ("verify --suite thm8 --n-max 3", ["cli", "euler", "exactq"]),
    ("padic --n 2 --p 5 --N-max 4", ["cli", "euler", "exactq", "padic"]),
    ("verify --suite all --n-max 3 --json", ["cli", "euler", "exactq"]),
    ("padic --n 2 --p 5 --N-max 4 --json", ["cli", "euler", "exactq", "padic"]),
    ("--help", ["cli", "euler", "exactq"]),
    ("table qeuler --n-max -1", ["cli", "euler", "exactq"]),
])
def test_each_command_loads_only_the_layers_it_uses(argv, loaded):
    # bernstein and padic load on first use: a table or verify run imports
    # neither.  No run imports the json package: a record quotes its strings
    # with _json's C function.  A well-formed command line is read without argparse
    done = _python(["-c", _LOADED_LAYERS, *argv.split()], subprocess.DEVNULL)
    code, argparse_runs = _ARGPARSE_RUNS.get(argv, 0), argv in _ARGPARSE_RUNS
    *usage_error, report = done.stderr.split("\n")[:-1]
    assert bool(usage_error) == (code == 2)  # a usage error prints its usage and error lines first
    assert report == f"{code} {[f'qeuler.{m}' for m in loaded]} False {argparse_runs} {argparse_runs}"


def test_star_import_binds_every_public_name():
    code = ("from qeuler import *; import qeuler; "
            "missing = [n for n in qeuler.__all__ if n not in globals()]; "
            "assert not missing, missing")
    assert _python(["-c", code], subprocess.DEVNULL).returncode == 0
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        qeuler.not_a_name


_PROCESS_ARGV = {
    "weighted-json": ["table", "weighted", "--alpha", "3", "--n-max", "30", "--format", "json"],
    "verify-json": ["verify", "--suite", "all", "--n-max", "3", "--json"],
    "padic-exit-1": ["padic", "--n", "3", "--p", "3", "--N-max", "6"],
    "help": ["--help"],
    "usage-error": ["table", "qeuler", "--n-max", "-1"],
}


@pytest.mark.parametrize("argv", _PROCESS_ARGV.values(), ids=_PROCESS_ARGV)
def test_cli_process_matches_main_in_process(argv, capsysbinary, monkeypatch):
    # the process ends without the interpreter's teardown: every byte must be flushed first
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help at the terminal's width
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsysbinary.readouterr()
    proc = _cli_into(subprocess.PIPE, argv, text=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


class _Exited(Exception):
    pass


def _exit_raises(monkeypatch) -> None:
    def exit_now(code):
        raise _Exited(code)

    monkeypatch.setattr(os, "_exit", exit_now)


def test_main_returns_its_code_without_exiting_the_process(monkeypatch, capsys):
    # tests, the perfbench replay and library callers keep the interpreter's normal shutdown
    _exit_raises(monkeypatch)
    assert run_cli(capsys, *_TABLE_ARGV)[0] == 0
    assert run_cli(capsys, "padic", "--n", "3", "--p", "3", "--N-max", "6")[0] == 1
    with pytest.raises(SystemExit):
        main(["--help"])


@pytest.mark.parametrize("argv, code", [
    (_TABLE_ARGV, 0), (["padic", "--n", "3", "--p", "3", "--N-max", "6"], 1),
    (["--help"], 0), (["table", "qeuler", "--n-max", "-1"], 2)])
def test_run_exits_with_the_code_of_main(argv, code, monkeypatch, capsys):
    _exit_raises(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["qeuler", *argv])
    with pytest.raises(_Exited) as exited:
        cli.run()
    assert exited.value.args == (code,)


def test_run_flushes_stderr_before_it_exits(monkeypatch):
    _exit_raises(monkeypatch)
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # not line-buffered: holds main's lines
    monkeypatch.setattr(sys, "stderr", err)
    monkeypatch.setattr(sys, "argv", ["qeuler", "table", "qeuler", "--n-max", "-1"])
    with pytest.raises(_Exited):
        cli.run()
    assert err.buffer.getvalue().startswith(b"usage: qeuler")


@pytest.mark.parametrize("error", [OSError(errno.EIO, os.strerror(errno.EIO)), ValueError()])
def test_run_keeps_the_code_of_main_when_a_flush_fails(error, monkeypatch, capsys):
    # main has already reported its output errors; a last failing flush changes nothing
    class _FailingFlush(io.StringIO):
        def flush(self):
            raise error

    _exit_raises(monkeypatch)
    monkeypatch.setattr(sys, "stderr", _FailingFlush())
    monkeypatch.setattr(sys, "argv", ["qeuler", *_TABLE_ARGV])
    with pytest.raises(_Exited) as exited:
        cli.run()
    assert exited.value.args == (0,)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every CLI call is a fresh process, so whatever importing qeuler.cli loads is paid each time
    code = (
        "import sys; before = set(sys.modules); import qeuler.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = _python(["-c", code], subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_cli_import_does_not_load_json():
    # only JSON output and OutputRecord.parse read json, so text output does not pay for it
    code = (
        "import sys; before = set(sys.modules); import qeuler.cli; "
        "print('json' in set(sys.modules) - before)"
    )
    proc = _python(["-c", code], subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("argv", [_TABLE_ARGV, ["--help"], _PROCESS_ARGV["weighted-json"]],
                         ids=["table", "help", "weighted-json"])
def test_cli_full_device_exits_2_with_one_line(argv):
    # weighted-json: the device fills partway through the record
    with open("/dev/full", "w") as full:
        proc = _cli_into(full, argv)
    assert (proc.returncode, proc.stderr) == (
        2, f"qeuler: cannot write output: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("argv", [_TABLE_ARGV, _PROCESS_ARGV["weighted-json"]],
                         ids=["table", "weighted-json"])
def test_cli_closed_pipe_exits_0_silently(argv):
    # weighted-json: the first write fails partway through the record
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first write
    try:
        proc = _cli_into(write_end, argv)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


_CLOSED_STDOUT_ARGV = {
    "verify": ["verify", "--suite", "thm4", "--n-max", "1"],
    "table": _TABLE_ARGV,
    "padic": ["padic", "--n", "1", "--p", "3"],
    "help": ["--help"],
    "usage-error": ["table", "qeuler", "--n-max", "-1"],
}


@pytest.mark.parametrize("argv", _CLOSED_STDOUT_ARGV.values(), ids=_CLOSED_STDOUT_ARGV)
def test_cli_closed_stdout_exits_2_with_one_line(argv):
    # descriptor 1 closed, so sys.stdout is None in the child: unwritable, not a crash
    proc = _cli_into(None, argv, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (2, "qeuler: cannot write output: stdout is closed\n")


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_cli_out_of_memory_exits_2_with_one_line():
    # under a 400 MB address-space cap, set in this child only, the Phi_d split
    # of 1 + q^(alpha+1) needs a list of 2*10^8 coefficients and cannot get it
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    argv = ["table", "weighted", "--alpha", "100000000", "--n-max", "1"]
    proc = _cli_into(subprocess.PIPE, argv, preexec_fn=cap)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "qeuler: out of memory; the request is too large to compute\n"
    assert "Traceback" not in proc.stderr


def test_cli_closed_stdout_and_stderr_exits_2():
    proc = _cli_into(None, _TABLE_ARGV, preexec_fn=lambda: (os.close(1), os.close(2)))
    assert (proc.returncode, proc.stderr) == (2, "")


def test_cli_closed_stderr_usage_error_exits_2_silently():
    # descriptor 2 closed, so sys.stderr is None in the child, and argparse
    # would print its usage line to stdout instead
    argv = _CLOSED_STDOUT_ARGV["usage-error"]
    proc = _cli_into(subprocess.PIPE, argv, preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout) == (2, "")


def test_package_has_no_assert_statements():
    # python -O strips asserts, so no check in the package may rest on one
    paths = sorted(pathlib.Path(qeuler.__file__).parent.glob("*.py"))
    assert {p.name for p in paths} >= {"cli.py", "euler.py", "exactq.py", "padic.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
