"""Time single ``qeuler.exactq`` operations on seeded operands.

    python perfbench/probe_exactq.py SEED OUT_JSON

Operands have the shape of the weight-0 q-Euler numbers E_20..E_30: a
numerator of degree n with integer coefficients of about 3.4*n bits over
(1+q)^n.  The gcd operands share a random factor of half their degree so
the gcd is not trivial.  Writes ``{metric name: [[start, end], ...]}``, one
pair of ``time.perf_counter()`` readings per call.
"""

import json
import random
import sys
import time

from qeuler.exactq import QPoly, QRatFn, qpoly_gcd

SIZES = range(20, 31)


def _poly(rng, degree, bits):
    coeffs = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(degree)]
    return QPoly(coeffs + [rng.randrange(1, 1 << bits)])


def _euler_like(rng, n):
    return QRatFn(_poly(rng, n, 34 * n // 10), QPoly((1, 1)) ** n)


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return start, time.perf_counter()


def main() -> None:
    seed, out = int(sys.argv[1]), sys.argv[2]
    rng = random.Random(seed)
    times = {name: [] for name in (
        "exactq.qpoly_mul_s", "exactq.qpoly_gcd_d20_s", "exactq.qpoly_gcd_d40_s",
        "exactq.ratfn_add_s", "exactq.ratfn_mul_s", "exactq.subst_q_inverse_s")}
    for n in SIZES:
        a, b = _euler_like(rng, n), _euler_like(rng, rng.choice(SIZES))
        times["exactq.ratfn_add_s"].append(_timed(QRatFn.__add__, a, b))
        times["exactq.ratfn_mul_s"].append(_timed(QRatFn.__mul__, a, b))
        times["exactq.subst_q_inverse_s"].append(_timed(QRatFn.subst_q_inverse, a))
        times["exactq.qpoly_mul_s"].append(_timed(QPoly.__mul__, _poly(rng, 40, 100), _poly(rng, 40, 100)))
        for degree in (20, 40):
            g = _poly(rng, degree // 2, 3 * degree)
            u, v = _poly(rng, degree // 2, 3 * degree), _poly(rng, degree // 2, 3 * degree)
            times[f"exactq.qpoly_gcd_d{degree}_s"].append(_timed(qpoly_gcd, g * u, g * v))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(times, fh)


if __name__ == "__main__":
    main()
