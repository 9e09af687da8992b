"""Generators for the classical special sequences of the binomial ring.

Bernoulli numbers arise as the convolution inverse of xi1(k) = 1/(k+1);
Bernoulli polynomials as the convolution of the numbers with the geometric
sequence of the indeterminate, built directly as the Appell sequence
B_k(x) = sum_j C(k,j) B(k-j) x^j. Euler values, power-sum polynomials,
Norlund (rational-power Bernoulli) sequences and Moebius-Bernoulli
polynomials follow from the same ring operations.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul

from .poly import RatPoly, X, _canonical
from .seqcore import (TruncSeq, _over_common, _pascal_row, add, binom, bullet, make_eps, make_named, make_xi,
                      scale, sub)
from .units import inverse, power_rat


@lru_cache(maxsize=None)
def bernoulli(depth: int) -> TruncSeq:
    """Bernoulli numbers B_0..B_depth (B_1 = -1/2), as inverse(xi1)."""
    return inverse(make_named("xi1", depth))


def _appell(c: TruncSeq) -> TruncSeq:
    """The Appell sequence of a rational c: entry k is the RatPoly sum_j C(k,j) c(k-j) x^j.

    Its exponential generating function is C(t) e^(xt), so this equals
    bullet(c, make_eps(X, K)), built coefficient by coefficient over the
    common denominator of c instead of through RatPoly products.
    """
    a, den = _over_common(c.values)
    return TruncSeq(_canonical(list(map(mul, _pascal_row(k), a[k::-1])), den) for k in range(len(a)))


@lru_cache(maxsize=None)
def bernoulli_poly(depth: int) -> TruncSeq:
    """RatPoly-valued sequence whose entry k is the k-th Bernoulli polynomial."""
    return _appell(bernoulli(depth))


def bernoulli_poly_at(x, depth: int) -> TruncSeq:
    """Numeric Bernoulli polynomial values B_k(x) at a rational point."""
    return bullet(bernoulli(depth), make_eps(Fraction(x), depth))


def poly_seq_eval(seq: TruncSeq, x) -> TruncSeq:
    """Evaluate every RatPoly entry of a sequence at a rational point."""
    x = Fraction(x)
    return TruncSeq(
        v.evaluate(x) if isinstance(v, RatPoly) else v for v in seq
    )


def ber_inv_pow(n: int, depth: int) -> TruncSeq:
    """Closed form for the n-th inverse power of the Bernoulli polynomial sequence.

    Entry k is the polynomial (k!/(k+n)!) sum_{j=0}^{n} C(n,j) (-1)^(n-j) (j - n x)^(k+n),
    which equals power_int(inverse(bernoulli_poly), n) entrywise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for k in range(depth + 1):
        c = Fraction(factorial(k), factorial(k + n))
        total = RatPoly()
        for j in range(n + 1):
            base = RatPoly((Fraction(j), Fraction(-n)))
            sign = (-1) ** (n - j)
            total = total + sign * binom(n, j) * base ** (k + n)
        out.append(total * c)
    return TruncSeq(out)


@lru_cache(maxsize=None)
def euler1(depth: int) -> TruncSeq:
    """Euler polynomial values at 1: the inverse of (e + nu), doubled."""
    K = depth
    return scale(2, inverse(add(make_named("e", K), make_named("nu", K))))


@lru_cache(maxsize=None)
def euler_poly(depth: int) -> TruncSeq:
    """RatPoly-valued sequence of Euler polynomials: 2 eps_x * (I + e)^(-1)."""
    K = depth
    return _appell(scale(2, inverse(add(make_named("I", K), make_named("e", K)))))


@lru_cache(maxsize=None)
def sigma(depth: int) -> TruncSeq:
    """Shifted power-sum polynomials: (n+1) sigma_x(n) = (B_poly(x+1) - B)(n+1).

    At integer x >= 0 the entry n evaluates to e(n) + 1^n + ... + x^n; the
    n = 0 entry is x + 1, one more than the bare power sum (the k = 0 power
    sum counts from 1). Use power_sum_poly for the oracle-aligned variant.
    """
    B = bernoulli(depth + 1)
    Bx1 = bullet(B, make_eps(X + 1, depth + 1))
    diff = sub(Bx1, B)
    return TruncSeq(diff[n + 1] / (n + 1) for n in range(depth + 1))


def sigma_eval(y, depth: int) -> TruncSeq:
    """Numeric sigma_y(0..depth) at a rational point y."""
    y = Fraction(y)
    B = bernoulli(depth + 1)
    By1 = bullet(B, make_eps(y + 1, depth + 1))
    return TruncSeq((By1[n + 1] - B[n + 1]) / (n + 1) for n in range(depth + 1))


@lru_cache(maxsize=None)
def power_sum_poly(depth: int) -> TruncSeq:
    """Entry k is the Faulhaber polynomial S_x(k) with S_N(k) = 1^k + ... + N^k.

    Computed as bullet(B, xi_{x+1,1}) - e over RatPoly; differs from the
    sigma family only at k = 0 (S_x(0) = x, sigma_x(0) = x + 1).
    """
    B = bernoulli(depth)
    xs = make_xi(X + 1, 1, depth)
    return sub(bullet(B, xs), make_named("e", depth))


def power_sum_bruteforce(n: int, k: int) -> Fraction:
    """Oracle: the exact power sum 1^k + 2^k + ... + n^k (0 when n = 0)."""
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    return Fraction(sum(x ** k for x in range(1, n + 1)))


def faulhaber(n: int, depth: int) -> TruncSeq:
    """Power sums via the Bernoulli-number formula.

    Entry k = sum_{m=0}^{k} C(k,m) B(m) ((n+1)^(k+1-m) - 1)/(k+1-m), equal to
    power_sum_bruteforce(n, k) for every k.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    B = bernoulli(depth)
    out = []
    for k in range(depth + 1):
        total = Fraction(0)
        for m in range(k + 1):
            e = k + 1 - m
            total += binom(k, m) * B[m] * Fraction((n + 1) ** e - 1, e)
        out.append(total)
    return TruncSeq(out)


def norlund(p: int, q: int, depth: int) -> TruncSeq:
    """Norlund polynomial values at p/q: the rational power B^(p/q) in the unit group."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return power_rat(bernoulli(depth), p, q)


def mobius_bernoulli(n: int, depth: int) -> TruncSeq:
    """Moebius-Bernoulli polynomials M_k(x, n) = sum_{d|n} mu(d) d^(k-1) B_k(x/d).

    Coefficient j of d^(k-1) B_k(x/d) is C(k,j) B(k-j) d^(k-1-j), so M is the
    Appell sequence of c(m) = B(m) sum_{d|n} mu(d) d^(m-1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    from .dirichlet import divisors, mobius_value

    ds = [(mobius_value(d), d) for d in divisors(n)]
    # n sum mu(d) d^(m-1) = sum mu(d) d^m (n/d), an integer
    weights = (sum(mu * d ** m * (n // d) for mu, d in ds if mu) for m in range(depth + 1))
    return _appell(TruncSeq(Fraction(b * w, n) for b, w in zip(bernoulli(depth), weights)))


def mobius_bernoulli_numbers(n: int, depth: int) -> TruncSeq:
    """The x = 0 values M_k(n) = B(k) sum_{d|n} mu(d) d^(k-1)."""
    return poly_seq_eval(mobius_bernoulli(n, depth), 0)
