"""Power sums: Faulhaber's formula and the power-sum polynomials as differences of Bernoulli polynomials."""
from __future__ import annotations

from fractions import Fraction

from ..poly import X
from ..seqcore import TruncSeq, binom, bullet, make_eps, make_named, pointwise_mul
from ..special import bernoulli, faulhaber, power_sum_bruteforce, power_sum_poly
from . import _get_int, _get_seq, _seq_mismatches, _verdict


def _check_faulhaber(params, depth):
    n = _get_int(params, "n", 10)
    B = _get_seq(params, "bernoulli")
    if B is None:
        computed = faulhaber(n, depth)
    else:
        # formula evaluated against an injected (possibly corrupted) Bernoulli sequence
        vals = []
        for k in range(depth + 1):
            total = Fraction(0)
            for m in range(k + 1):
                e = k + 1 - m
                total += binom(k, m) * B[m] * Fraction((n + 1) ** e - 1, e)
            vals.append(total)
        computed = TruncSeq(vals)
    oracle = TruncSeq(power_sum_bruteforce(n, k) for k in range(depth + 1))
    return _verdict("faulhaber", {"n": n}, depth, _seq_mismatches(computed, oracle))


def _check_powersum_sigma_form(params, depth):
    lhs = power_sum_poly(depth)
    B = bernoulli(depth + 1)
    Bx1 = bullet(B, make_eps(X + 1, depth + 1))
    # Bernoulli polynomials at 1 are the sign-twisted numbers
    B1 = pointwise_mul(make_named("nu", depth + 1), B)

    def mism():
        for k in range(depth + 1):
            rhs = (Bx1[k + 1] - B1[k + 1]) / (k + 1)
            if lhs[k] != rhs:
                yield k, lhs[k], rhs

    return _verdict("powersum-sigma-form", {"mode": "polynomial"}, depth, mism())
