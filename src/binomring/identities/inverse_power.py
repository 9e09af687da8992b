"""Bernoulli / inverse-power family: eq3, eq9 and the two k = 0 instances of eq9."""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from ..poly import RatPoly
from ..seqcore import TruncSeq, bullet, make_named
from ..special import ber_inv_pow, bernoulli, bernoulli_poly
from ..units import power_int
from . import _get_int, _get_nmax, _get_seq, _seq_mismatches, _verdict


def _check_eq3(params, depth):
    B = _get_seq(params, "bernoulli") or bernoulli(depth)
    lhs = bullet(B, make_named("xi1", depth))
    return _verdict("eq3", {}, depth, _seq_mismatches(lhs, make_named("e", depth)))


def _check_eq9(params, depth):
    n = _get_int(params, "n", 2)
    if n < 1:
        raise ValueError("n must be >= 1")
    # the k-th sum of eq9 is (B(x)^n * B(x)^(-n))(k) / k!, with the inverse power in closed form
    product = bullet(power_int(bernoulli_poly(depth), n), ber_inv_pow(n, depth))
    totals = TruncSeq(v / factorial(k) for k, v in enumerate(product))
    return _verdict("eq9", {"n": n, "mode": "polynomial"}, depth, _seq_mismatches(totals, make_named("e", depth)))


def _check_eq9_k0_a(params, depth):
    nmax = _get_nmax(params, min(depth, 8))

    def mism():
        for n in range(1, nmax + 1):
            total = RatPoly()
            for j in range(n + 1):
                poly = RatPoly((Fraction(j), Fraction(-n))) ** n
                total = total + Fraction((-1) ** (n - j), factorial(n - j) * factorial(j)) * poly
            if total != 1:
                yield n, total, RatPoly.const(1)

    return _verdict("eq9-k0-a", {"n": nmax, "mode": "polynomial"}, depth, mism())


def _check_eq9_k0_b(params, depth):
    alpha_max = _get_int(params, "alpha", 3)
    nmax = _get_nmax(params, min(depth, 8))
    if alpha_max < 1:
        raise ValueError("alpha must be >= 1")

    def mism():
        for alpha in range(1, alpha_max + 1):
            for n in range(alpha, nmax + 1):
                total = RatPoly()
                for j in range(n + 1):
                    poly = RatPoly((Fraction(j), Fraction(-n))) ** (n - alpha)
                    total = total + Fraction((-1) ** (n - j), factorial(n - j) * factorial(j)) * poly
                if not total.is_zero():
                    yield (alpha, n), total, RatPoly()

    return _verdict("eq9-k0-b", {"alpha": alpha_max, "n": nmax, "mode": "polynomial"}, depth, mism())
