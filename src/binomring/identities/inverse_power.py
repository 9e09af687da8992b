"""Bernoulli / inverse-power family: eq3, eq9 and the two k = 0 instances of eq9."""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from ..poly import RatPoly
from ..seqcore import bullet, make_named
from ..special import bernoulli, bernoulli_poly
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
    Bxn = power_int(bernoulli_poly(depth), n)

    def mism():
        for k in range(depth + 1):
            total = RatPoly()
            for m in range(k + 1):
                for j in range(n + 1):
                    poly = RatPoly((Fraction(j), Fraction(-n))) ** (m + n)
                    coeff = Fraction((-1) ** (n - j),
                                     factorial(k - m) * factorial(n - j) * factorial(m + n) * factorial(j))
                    total = total + coeff * Bxn[k - m] * poly
            total = factorial(n) * total
            expect = Fraction(1 if k == 0 else 0)
            if total != expect:
                yield k, total, expect

    return _verdict("eq9", {"n": n, "mode": "polynomial"}, depth, mism())


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
