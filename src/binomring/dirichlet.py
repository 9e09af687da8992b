"""The Dirichlet ring on {1..N}: divisor-sum convolution and its twists.

Sequences are finite windows f(1..N) of arithmetic functions on the
positive integers; a sequence is a unit exactly when f(1) != 0. The sieve
tables (smallest prime factor, factorizations, Moebius values) are built
once per bound and cached. Convolutions and inverses sum integer numerators
over common denominators (seqcore's common-denominator kernel) and build
each output value once.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from operator import add, mul, truediv
from typing import Iterable, NamedTuple

from .errors import BoundMismatchError, NotAUnitError
from .seqcore import _over_common, _widen


@lru_cache(maxsize=None)
def _spf_table(n: int) -> tuple[int, ...]:
    """Smallest prime factor for 0..n via a linear sieve."""
    spf = list(range(n + 1))
    primes: list[int] = []
    for i in range(2, n + 1):
        if spf[i] == i:
            primes.append(i)
        for p in primes:
            if p > spf[i] or i * p > n:
                break
            spf[i * p] = p
    return tuple(spf)


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((p, exponent), ...), ascending primes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    spf = _spf_table(n)
    out = []
    while n > 1:
        p = spf[n]
        c = 0
        while n % p == 0:
            n //= p
            c += 1
        out.append((p, c))
    return tuple(out)


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, c in factorize(n):
        ds = [d * p ** i for d in ds for i in range(c + 1)]
    return sorted(ds)


def mobius_value(n: int) -> int:
    res = 1
    for _, c in factorize(n):
        if c > 1:
            return 0
        res = -res
    return res


class DirSeq:
    """Immutable window f(1..bound) of an arithmetic function, values exact rationals."""

    __slots__ = ("_values",)

    def __init__(self, values: Iterable):
        vs = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)
        if not vs:
            raise ValueError("a DirSeq needs at least f(1)")
        object.__setattr__(self, "_values", vs)

    def __setattr__(self, name, value):
        raise AttributeError("DirSeq is immutable")

    @property
    def values(self) -> tuple[Fraction, ...]:
        return self._values

    @property
    def bound(self) -> int:
        return len(self._values)

    def at(self, k: int) -> Fraction:
        """1-based access: at(k) = f(k) for 1 <= k <= bound."""
        if not 1 <= k <= len(self._values):
            raise IndexError(f"index {k} outside 1..{len(self._values)}")
        return self._values[k - 1]

    def __eq__(self, other):
        if not isinstance(other, DirSeq):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        shown = ", ".join(str(v) for v in self._values[:6])
        tail = ", ..." if len(self._values) > 6 else ""
        return f"DirSeq(bound={self.bound}, [{shown}{tail}])"


def _check_bounds(f: DirSeq, g: DirSeq, op: str) -> None:
    if f.bound != g.bound:
        raise BoundMismatchError(f"{op}: bound {f.bound} vs {g.bound}")


def delta(bound: int) -> DirSeq:
    """The Dirichlet identity: 1 at k=1, else 0."""
    return DirSeq([1] + [0] * (bound - 1))


def ones(bound: int) -> DirSeq:
    return DirSeq([1] * bound)


def power_values(bound: int, k: int) -> DirSeq:
    """N_k(n) = n^k, with N_{-1}(n) = 1/n and negative k handled exactly."""
    return DirSeq(Fraction(n) ** k for n in range(1, bound + 1))


def mobius(bound: int) -> DirSeq:
    """Moebius function values mu(1..bound) from the smallest-prime-factor sieve."""
    spf = _spf_table(bound)
    mu = [0] * (bound + 1)
    if bound >= 1:
        mu[1] = 1
    for n in range(2, bound + 1):
        p = spf[n]
        m = n // p
        mu[n] = 0 if m % p == 0 else -mu[m]
    return DirSeq(mu[1:])


def dirichlet_conv(f: DirSeq, g: DirSeq) -> DirSeq:
    """(f * g)(k) = sum_{d | k} f(d) g(k/d)."""
    _check_bounds(f, g, "dirichlet_conv")
    n = f.bound
    (a, da), (b, db) = _over_common(f.values), _over_common(g.values)
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        x = a[d - 1]
        if x:
            out[d::d] = map(add, out[d::d], map(x.__mul__, b))
    den = da * db
    return DirSeq(Fraction(t, den) for t in out[1:])


def dirichlet_inverse(f: DirSeq) -> DirSeq:
    """Unit recursion: g(1) = 1/f(1), g(k) = -(1/f(1)) sum_{d|k, d<k} g(d) f(k/d)."""
    if f.at(1) == 0:
        raise NotAUnitError("f(1) = 0")
    a, _ = _over_common(f.values)
    a.insert(0, 0)  # 1-based, like g
    n = f.bound
    # every divisor list in one sieve; appending d in ascending order keeps each list sorted
    divs: list[list[int]] = [[] for _ in range(n + 1)]
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            divs[m].append(d)
    g = [Fraction(0), Fraction(1) / f.at(1)]
    G, den = [0, g[1].numerator], g[1].denominator
    for k in range(2, n + 1):
        ds = divs[k]
        # ds is sorted, so k // d runs down ds[:0:-1] as d runs up ds[:-1]
        gk = Fraction(-sum(map(mul, map(G.__getitem__, ds[:-1]), map(a.__getitem__, ds[:0:-1]))), a[1] * den)
        g.append(gk)
        den = _widen(G, den, gk)
    return DirSeq(g[1:])


def gamma_twisted_conv(f: DirSeq, g: DirSeq, gamma: DirSeq) -> DirSeq:
    """Twisted convolution (f x g)(k) = sum_{d|k} [gamma(k)/(gamma(d) gamma(k/d))] f(d) g(k/d).

    The map f -> gamma f carries the plain convolution onto this one, so the
    ring structure is preserved and f x g = gamma ((f/gamma) * (g/gamma));
    gamma must be nowhere zero.
    """
    _check_bounds(f, g, "gamma_twisted_conv")
    _check_bounds(f, gamma, "gamma_twisted_conv")
    for k in range(1, gamma.bound + 1):
        if gamma.at(k) == 0:
            raise NotAUnitError(f"gamma({k}) = 0")
    cv = gamma.values
    plain = dirichlet_conv(DirSeq(map(truediv, f.values, cv)), DirSeq(map(truediv, g.values, cv)))
    return DirSeq(map(mul, cv, plain.values))


def prime_exponent_factorial(bound: int) -> DirSeq:
    """gamma(k) = product of factorials of the prime exponents of k.

    With this weight the twisted convolution becomes the binomial
    convolution on the Dirichlet side (completely multiplicative functions
    close under it).
    """
    out = []
    for k in range(1, bound + 1):
        v = 1
        for _, c in factorize(k):
            v *= factorial(c)
        out.append(v)
    return DirSeq(out)


class CoprimePowerSum(NamedTuple):
    """The three routes to sum of i^k over i <= n coprime to n."""

    brute: Fraction
    bullet_side: Fraction
    dirichlet_side: Fraction

    def agree(self) -> bool:
        return self.brute == self.bullet_side == self.dirichlet_side


def coprime_power_sum_identity(n: int, k: int) -> CoprimePowerSum:
    """Evaluate the coprime power sum three ways and return all values.

    brute: direct summation. bullet_side: xi1(k) times the binomial product
    of the sign-twisted Moebius-Bernoulli numbers with (eps_n - e), taken at
    index k+1 (depth k+1 suffices). dirichlet_side: Dirichlet convolution of
    the pointwise product mu(d) d^k against the Faulhaber polynomial
    evaluated at the rational points n/d.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    from . import special
    from .seqcore import bullet, make_eps, make_named, pointwise_mul, sub

    brute = Fraction(sum(i ** k for i in range(1, n + 1) if gcd(i, n) == 1))

    depth = k + 1
    mb = special.mobius_bernoulli_numbers(n, depth)
    twisted = pointwise_mul(make_named("nu", depth), mb)
    eps_n = make_eps(Fraction(n), depth)
    window = sub(eps_n, make_named("e", depth))
    bullet_side = Fraction(1, k + 1) * bullet(twisted, window)[k + 1]

    spoly = special.power_sum_poly(k)[k]
    dirichlet_side = Fraction(0)
    for d in divisors(n):
        mu = mobius_value(d)
        if mu == 0:
            continue
        dirichlet_side += mu * Fraction(d) ** k * spoly.evaluate(Fraction(n, d))

    return CoprimePowerSum(brute, bullet_side, dirichlet_side)
