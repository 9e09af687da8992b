"""Bernoulli / inverse-power family: eq3, eq9 and the two k = 0 instances of eq9 (which load binomring.poly)."""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from ..seqcore import TruncSeq, bullet, make_named
from ..special import ber_inv_pow, bernoulli, bernoulli_poly
from ..units import power_int
from . import _entrywise


def _check_eq3(params, depth):
    B = params.get("bernoulli") or bernoulli(depth)
    lhs = bullet(B, make_named("xi1", depth))
    return {}, _entrywise(lhs, make_named("e", depth))


def _check_eq9(params, depth):
    n = params.get("n", 2)
    # the k-th sum of eq9 is (B(x)^n * B(x)^(-n))(k) / k!, with the inverse power in closed form
    product = bullet(power_int(bernoulli_poly(depth), n), ber_inv_pow(n, depth))
    totals = TruncSeq(v / factorial(k) for k, v in enumerate(product))
    return {"n": n, "mode": "polynomial"}, _entrywise(totals, make_named("e", depth))


def _check_eq9_k0_a(params, depth):
    from ..poly import RatPoly

    nmax = params.get("n", max(min(depth, 8), 1))

    def pairs():
        for n in range(1, nmax + 1):
            total = RatPoly()
            for j in range(n + 1):
                poly = RatPoly((Fraction(j), Fraction(-n))) ** n
                total = total + Fraction((-1) ** (n - j), factorial(n - j) * factorial(j)) * poly
            yield n, total, RatPoly.const(1)

    return {"n": nmax, "mode": "polynomial"}, pairs()


def _check_eq9_k0_b(params, depth):
    from ..poly import RatPoly

    alpha_max = params.get("alpha", 3)
    nmax = params.get("n", max(min(depth, 8), 1))

    def pairs():
        for alpha in range(1, alpha_max + 1):
            for n in range(alpha, nmax + 1):
                total = RatPoly()
                for j in range(n + 1):
                    poly = RatPoly((Fraction(j), Fraction(-n))) ** (n - alpha)
                    total = total + Fraction((-1) ** (n - j), factorial(n - j) * factorial(j)) * poly
                yield (alpha, n), total, RatPoly()

    return {"alpha": alpha_max, "n": nmax, "mode": "polynomial"}, pairs()
