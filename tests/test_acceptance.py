"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 5 asserts the convergence rate of the fermionic integral: the
level-N partial sum I_N(f) = [2]_q/(1+q^(p^N)) * sum_{x<p^N} f(x)(-q)^x of
f = x^n satisfies v_p(I_N - E_n) >= N and v_p(I_(N+1) - I_N) >= N.  Proof:
write x = a + j p^N with a < p^N, j < p.  For odd p,
sum_j (-q^(p^N))^j = (1+q^(p^(N+1)))/(1+q^(p^N)), so

    I_(N+1) - I_N = c_(N+1) * sum_a sum_j (f(a + j p^N) - f(a)) (-q)^(a + j p^N)

with c_M = (1+q)/(1+q^(p^M)), a p-adic unit because q = 1 mod p.  Every
difference f(a + j p^N) - f(a) is divisible by p^N, since f has p-integral
coefficients; hence the step bound, and since I_N -> E_n, summing the
steps gives the defect bound.  The rate is all the definition promises: the valuations need not
grow monotonically.  At p=3, n=3 they are [5, 4, 5, 6, 7, 8] over N=1..6,
because the coarsest sum agrees with E_3 to five digits by accident.  That
dip is allowed here and pinned against a Fraction oracle in
tests/test_padic.py::test_convergence_p3_n3_observed_dip.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

import pytest

from qeuler import cli
from qeuler.bernstein import verify_theorem8
from qeuler.euler import (
    q_euler_numbers,
    verify_identity,
    weighted_closed_form,
    weighted_recurrence,
)
from qeuler.exactq import QPoly, QRatFn, XPoly
from qeuler.padic import QChoice, convergence_report, fermionic_integral_partial


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} ({label}): {status}{suffix}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_symbolic_identity_suite():
    start = time.perf_counter()
    bad = []
    for ident, n_max in (("thm1", 30), ("thm2", 30), ("thm4", 30), ("thm6", 30), ("thm7", 30)):
        rep = verify_identity(ident, n_max)
        if not rep.ok:
            bad.append((ident, rep.failures()[0].params))
    rep5 = verify_identity("thm5", 30)  # 1..30 plus the expected-fail n=0 probe
    if not rep5.ok:
        bad.append(("thm5", rep5.failures()[0].params))
    rep_c = verify_identity("cor3", 15)
    if not rep_c.ok:
        bad.append(("cor3", rep_c.failures()[0].params))
    rep8 = verify_theorem8(12)
    if not rep8.ok:
        bad.append(("thm8", rep8.failures()[0].params))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "symbolic identity suite",
        not bad and elapsed < 60.0,
        f"exact equality, {elapsed:.1f}s" if not bad else f"failures: {bad}",
    )


def test_criterion_2_erratum_detection():
    remark = verify_identity("k0-remark", 12)
    thm7 = verify_identity("thm7", 12)
    all_fail_expected = all(
        inst.verdict == "fail" and inst.expected == "fail" for inst in remark.instances
    )
    witness = remark.instances[0]
    witness_exact = (
        witness.params == (1,)
        and witness.left == QRatFn(QPoly((1, 2)), QPoly((1, 1)))
        and witness.right == QRatFn(QPoly((0, 0, -1)), QPoly((1, 1)))
    )
    ok = all_fail_expected and thm7.ok and witness_exact
    _report(
        2,
        "erratum detection",
        ok,
        "k0 remark fails for all n <= 12, thm7 passes, n=1 witness exact",
    )


def test_criterion_3_classical_specialization():
    # independent oracle, implemented here: E_0 = 1, sum_k C(n,k) E_k + E_n = 0
    oracle = [Fraction(1)]
    for n in range(1, 21):
        oracle.append(Fraction(-1, 2) * sum(comb(n, k) * oracle[k] for k in range(n)))
    seq = q_euler_numbers(20)
    mismatches = [n for n in range(21) if seq[n].eval(1) != oracle[n]]
    _report(3, "classical specialization", not mismatches, f"n <= 20, oracle E_1 = {oracle[1]}")


def test_criterion_4_weighted_cross_validation():
    bad = []
    for alpha in (1, 2, 3):
        rec = weighted_recurrence(alpha, 15)
        for n in range(16):
            if rec[n] != weighted_closed_form(alpha, n):
                bad.append((alpha, n))
    _report(4, "weighted cross-validation", not bad, "alpha in {1,2,3}, n <= 15, exact equality")


def test_criterion_5_padic_convergence():
    start = time.perf_counter()
    violations = []
    for p, levels in ((3, range(1, 7)), (5, range(1, 5))):
        qc = QChoice(p, Fraction(1 + p))
        for n in range(7):
            rep = convergence_report(n, qc, 12, levels)
            vals = [r.valuation for r in rep.rows]
            if n == 0:
                if not all(r.exact for r in rep.rows):
                    violations.append((p, n, "constant not exact", vals))
                continue
            for r in rep.rows:
                if r.valuation < r.N:
                    violations.append((p, n, f"v_p(I_{r.N} - E_n) = {r.valuation} < {r.N}"))
            monomial = XPoly((0,) * n + (1,))
            partials = [fermionic_integral_partial(monomial, qc, N, 12) for N in levels]
            for N, coarse, fine in zip(levels, partials, partials[1:]):
                step = (fine - coarse).valuation_floor
                if step < N:
                    violations.append((p, n, f"v_p(I_{N + 1} - I_{N}) = {step} < {N}"))
            if rep.gain < 2:
                violations.append((p, n, "gain < 2", vals))
    elapsed = time.perf_counter() - start
    _report(
        5,
        "p-adic convergence",
        not violations and elapsed < 30.0,
        f"v_p(I_N - E_n) >= N, v_p(I_(N+1) - I_N) >= N, gain >= 2, n = 0 exact; {elapsed:.1f}s"
        if not violations
        else f"violations: {violations}",
    )


def test_criterion_6_kernel_properties():
    rng = random.Random(20120817)

    def rand_poly(min_deg=0):
        deg = rng.randint(min_deg, 4)
        return QPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg + 1)])

    def rand_ratfn():
        den = rand_poly()
        while den.is_zero:
            den = rand_poly()
        return QRatFn(rand_poly(), den)

    one = QRatFn.one()
    problems = []
    for i in range(1000):
        a, b, c = rand_ratfn(), rand_ratfn(), rand_ratfn()
        if (a + b) + c != a + (b + c):
            problems.append(("assoc+", i))
        if (a * b) * c != a * (b * c):
            problems.append(("assoc*", i))
        if a * (b + c) != a * b + a * c:
            problems.append(("distrib", i))
        if not a.is_zero and a * a.inverse() != one:
            problems.append(("inverse", i))

        # canonical uniqueness: equal as field elements iff bit-identical
        if rng.random() < 0.5:
            m = rand_poly()
            while m.is_zero:
                m = rand_poly()
            g = QRatFn(a.num * m, a.den * m)  # same element, noisy construction
        else:
            g = rand_ratfn()
        same_element = a.num * g.den == g.num * a.den
        same_repr = a.num == g.num and a.den == g.den
        if same_element != same_repr:
            problems.append(("uniqueness", i))

        # involution and automorphism of q -> 1/q
        sa, sb = a.subst_q_inverse(), b.subst_q_inverse()
        if sa.subst_q_inverse() != a:
            problems.append(("involution", i))
        if (a + b).subst_q_inverse() != sa + sb or (a * b).subst_q_inverse() != sa * sb:
            problems.append(("automorphism", i))
        if problems:
            break
    _report(
        6,
        "kernel properties",
        not problems,
        "1000 randomized cases" if not problems else f"first failure: {problems[0]}",
    )


def test_criterion_7_cli_contract(capsys):
    code = cli.main(["verify", "--suite", "all", "--n-max", "20"])
    capsys.readouterr()
    exit_ok = code == 0

    json_cmds = [
        ["table", "qeuler", "--n-max", "8", "--format", "json"],
        ["table", "frobenius", "--n-max", "8", "--format", "json"],
        ["table", "weighted", "--alpha", "2", "--n-max", "6", "--format", "json"],
        ["table", "qeuler-poly", "--n-max", "6", "--format", "json"],
        ["verify", "--suite", "erratum", "--n-max", "6", "--json"],
        ["padic", "--n", "1", "--p", "3", "--N-max", "5", "--json"],
    ]
    roundtrip_ok = True
    for argv in json_cmds:
        cli.main(argv)
        out = capsys.readouterr().out
        record = cli.OutputRecord.parse(out)
        if cli.OutputRecord.parse(record.serialize()) != record:
            roundtrip_ok = False
        if json.loads(record.serialize()) != json.loads(out):
            roundtrip_ok = False
    with capsys.disabled():
        _report(
            7,
            "CLI contract",
            exit_ok and roundtrip_ok,
            "verify --suite all --n-max 20 exits 0; JSON records round-trip",
        )
