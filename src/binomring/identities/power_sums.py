"""Power sums: Faulhaber's formula and the power-sum polynomials as differences of Bernoulli polynomials."""
from __future__ import annotations

from fractions import Fraction

from ..seqcore import TruncSeq, bullet, make_eps, make_named, pointwise_mul
from ..special import _appell, bernoulli, faulhaber, power_sum_bruteforce, power_sum_poly
from . import _entrywise


def _check_faulhaber(params, depth):
    n = params.get("n", 10)
    B = params.get("bernoulli")
    if B is None:
        computed = faulhaber(n, depth)
    else:
        # Faulhaber's sum_m C(k,m) B(m) ((n+1)^(k+1-m) - 1)/(k+1-m) against an injected (possibly
        # corrupted) Bernoulli sequence: the product B * h with h(j) = ((n+1)^(j+1) - 1)/(j+1)
        h = TruncSeq(Fraction((n + 1) ** (j + 1) - 1, j + 1) for j in range(depth + 1))
        computed = bullet(B, h)
    oracle = TruncSeq(power_sum_bruteforce(n, k) for k in range(depth + 1))
    return {"n": n}, _entrywise(computed, oracle)


def _check_powersum_sigma_form(params, depth):
    lhs = power_sum_poly(depth)
    B = bernoulli(depth + 1)
    # B_k(x + 1) = (B * eps_{x+1})(k) = ((B * eps_1) * eps_x)(k): the Appell sequence of B * eps_1
    Bx1 = _appell(bullet(B, make_eps(1, depth + 1)))
    # Bernoulli polynomials at 1 are the sign-twisted numbers
    B1 = pointwise_mul(make_named("nu", depth + 1), B)

    rhs = TruncSeq((Bx1[k + 1] - B1[k + 1]) / (k + 1) for k in range(depth + 1))
    return {"mode": "polynomial"}, _entrywise(lhs, rhs)
