"""CLI contract: flags, formats, exit codes, JSON round-trips, caching."""

import json
import os
import re

import pytest

from qeuler.cli import OutputRecord, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert OutputRecord.parse(record.serialize()) == record


def test_table_poly_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "table", "qeuler-poly", "--n-max", "3", "--format", "json")
    assert code == 0
    record = OutputRecord.parse(out)
    assert record.kind == "polynomial"
    assert record.payload[1]["x_coeffs"][1] == {"num": ["1"], "den": ["1"]}
    assert OutputRecord.parse(record.serialize()) == record


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


def test_table_weighted_requires_alpha(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "weighted", "--n-max", "3"])
    assert exc.value.code == 2


def test_table_alpha_only_for_weighted(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "qeuler", "--n-max", "3", "--alpha", "2"])
    assert exc.value.code == 2


def test_table_bad_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "nonsense", "--n-max", "3"])
    assert exc.value.code == 2


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
    assert OutputRecord.parse(record.serialize()) == record


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


def test_padic_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "padic", "--n", "1", "--p", "5", "--N-max", "4", "--json")
    assert code == 0
    record = OutputRecord.parse(out)
    assert record.kind == "convergence"
    assert record.metadata["ok"] is True
    assert [row["N"] for row in record.payload] == [1, 2, 3, 4]
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
# sequence cache
# ---------------------------------------------------------------------------

def test_cache_roundtrip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QEULER_CACHE_DIR", str(tmp_path))
    code1, out1, _ = run_cli(capsys, "table", "qeuler", "--n-max", "6", "--format", "json")
    assert code1 == 0
    cache_file = tmp_path / "qeuler.json"
    assert cache_file.exists()
    data = json.loads(cache_file.read_text())
    assert len(data["rows"]) == 7
    # second run must serve identical output from the cache (larger request recomputes)
    code2, out2, _ = run_cli(capsys, "table", "qeuler", "--n-max", "6", "--format", "json")
    assert (code2, out2) == (0, out1)
    code3, out3, _ = run_cli(capsys, "table", "qeuler", "--n-max", "4", "--format", "json")
    assert code3 == 0
    assert OutputRecord.parse(out3).payload == OutputRecord.parse(out1).payload[:5]


def test_cache_corrupt_file_recomputed(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QEULER_CACHE_DIR", str(tmp_path))
    (tmp_path / "qeuler.json").write_text("{not json")
    code, out, _ = run_cli(capsys, "table", "qeuler", "--n-max", "1")
    assert code == 0
    assert "(-q)/(1 + q)" in out


def test_cache_disabled_without_env(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("QEULER_CACHE_DIR", raising=False)
    code, _, _ = run_cli(capsys, "table", "qeuler", "--n-max", "2")
    assert code == 0
    assert not os.listdir(tmp_path)


def test_cache_dir_that_is_a_file_is_no_cache(capsys, tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    monkeypatch.setenv("QEULER_CACHE_DIR", str(blocker))
    code, out, err = run_cli(capsys, "table", "qeuler", "--n-max", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "1\t(-q)/(1 + q)"
    assert os.listdir(tmp_path) == ["blocker"] and blocker.read_text() == "keep"


def _number_rows(*pairs):
    return [{"n": n, "num": num, "den": den} for n, (num, den) in enumerate(pairs)]


_E0, _E1 = (["1"], ["1"]), (["0", "-1"], ["1", "1"])
_P0 = {"n": 0, "x_coeffs": [{"num": ["1"], "den": ["1"]}]}


def _poly_row1(const):
    return {"n": 1, "x_coeffs": [const, {"num": ["1"], "den": ["1"]}]}


@pytest.mark.parametrize(
    "kind,content",
    [
        ("qeuler", []),  # a top-level list, not a record
        ("qeuler", {"version": 1, "kind": "qeuler", "rows": _number_rows((["x"], ["1"]), _E1)}),
        ("qeuler", {"version": 1, "kind": "qeuler", "rows": _number_rows((["1"], ["2"]), _E1)}),
        ("qeuler", {"version": 1, "kind": "qeuler", "rows": _number_rows(_E0, (["0", "-2/2"], ["1", "1"]))}),
        ("qeuler", {"version": 1, "kind": "qeuler", "rows": _number_rows(_E1, _E0)[::-1]}),
        ("qeuler", {"version": 1, "kind": "qeuler", "rows": _number_rows(_E0, ([], []))}),
        ("qeuler-poly", {"version": 1, "kind": "qeuler-poly",
                         "rows": [_P0, _poly_row1({"num": ["0", "-1"], "den": ["1", "2"]})]}),
        ("qeuler-poly", {"version": 1, "kind": "qeuler-poly",
                         "rows": [_P0, _poly_row1({"num": ["x"], "den": ["1"]})]}),
    ],
    ids=["list", "num-x", "den-not-monic", "non-canonical-coeff", "n-not-index", "empty-den",
         "poly-den-not-monic", "poly-num-x"],
)
def test_cache_malformed_file_recomputed(capsys, tmp_path, monkeypatch, kind, content):
    monkeypatch.delenv("QEULER_CACHE_DIR", raising=False)
    fresh = [run_cli(capsys, "table", kind, "--n-max", "1", "--format", fmt)[1]
             for fmt in ("text", "json")]
    monkeypatch.setenv("QEULER_CACHE_DIR", str(tmp_path))
    for fmt, expected in zip(("text", "json"), fresh):
        (tmp_path / f"{kind}.json").write_text(json.dumps(content))
        code, out, err = run_cli(capsys, "table", kind, "--n-max", "1", "--format", fmt)
        assert (code, out, err) == (0, expected, "")
