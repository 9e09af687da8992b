"""Truncated arithmetic functions and the binomial-convolution ring structure.

A TruncSeq is a window f(0..K) of an arithmetic function with values in an
exact coefficient ring. Two rings are supported through plain duck typing:
Fraction for numeric sequences and RatPoly for polynomial-valued ones; any
value supporting +, -, *, **, ==, and exact division by a nonzero integer
fits. Depths are explicit and binary operations refuse mismatched depths
rather than truncating silently.

The central product is the weighted convolution

    (f * g)(k) = sum_{m=0}^{k} C(k, m) f(m) g(k - m)

called ``bullet`` here, which mirrors multiplication of exponential
generating functions; ``cauchy`` is the unweighted convolution mirroring
ordinary generating functions. All operations are pure and inputs are never
mutated, so values can be shared freely across threads.

Common-denominator kernel. Summing Fractions term by term runs a gcd after
every + and *. When every entry of the inputs is a Fraction, the products
here (and the power recurrence in ``units`` and the Dirichlet convolutions
in ``dirichlet``) instead write each input as integer numerators over the
lcm of its denominators, the representation of FLINT's fmpq_poly
(https://flintlib.org/doc/fmpq_poly.html), sum plain integer terms, and
normalise each output entry once with Fraction(sum, den). ``_over_common``
makes that representation and ``_widen`` extends it entry by entry under a
running lcm. A TruncSeq holding any RatPoly keeps the generic ring loop.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable, Union

from .errors import DepthMismatchError
from .poly import RatPoly

Coeff = Union[Fraction, RatPoly]

NAMED_SEQUENCES = ("e", "I", "nu", "xi1", "fact")

_PASCAL_ROWS: list[tuple[int, ...]] = [(1,)]
_PASCAL_LOCK = threading.Lock()
# binom caches rows 0.._BINOM_CACHE_MAX, far past any kernel depth the CLI allows; beyond, math.comb
_BINOM_CACHE_MAX = 512


def _pascal_row(n: int) -> tuple[int, ...]:
    if n >= len(_PASCAL_ROWS):
        with _PASCAL_LOCK:
            while len(_PASCAL_ROWS) <= n:
                prev = _PASCAL_ROWS[-1]
                _PASCAL_ROWS.append(
                    (1,) + tuple(prev[i - 1] + prev[i] for i in range(1, len(prev))) + (1,)
                )
    return _PASCAL_ROWS[n]


def _rational(values) -> bool:
    """True when every entry is a Fraction, so the integer kernel applies."""
    return all(isinstance(v, Fraction) for v in values)


def _over_common(values) -> tuple[list[int], int]:
    """Fractions as integer numerators over the lcm of their denominators."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _widen(nums: list[int], den: int, v: Fraction) -> int:
    """Append v to the numerators nums over den; return the new denominator lcm(den, v.denominator).

    nums is rescaled in place only when v's denominator does not divide den.
    """
    d = v.denominator
    if den % d:
        s = d // gcd(den, d)
        nums[:] = [x * s for x in nums]
        den *= s
    nums.append(v.numerator * (den // d))
    return den


def binom(n: int, k: int) -> int:
    """Binomial coefficient: from a cached Pascal triangle up to row _BINOM_CACHE_MAX, else math.comb."""
    if k < 0 or k > n:
        return 0
    if n > _BINOM_CACHE_MAX:
        return comb(n, k)
    return _pascal_row(n)[k]


def as_coeff(v) -> Coeff:
    """Coerce a value into the coefficient ring (ints become Fractions)."""
    if isinstance(v, RatPoly):
        return v
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"unsupported coefficient: {v!r}")


class TruncSeq:
    """Immutable truncated sequence: values[k] = f(k) for k = 0..depth."""

    __slots__ = ("_values",)

    def __init__(self, values: Iterable):
        vs = tuple(as_coeff(v) for v in values)
        if not vs:
            raise ValueError("a TruncSeq needs at least the k=0 value")
        object.__setattr__(self, "_values", vs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeq is immutable")

    @property
    def values(self) -> tuple:
        return self._values

    @property
    def depth(self) -> int:
        return len(self._values) - 1

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def __getitem__(self, k):
        """f(k) for 0 <= k <= depth (a slice gives a tuple); negative indices and slice bounds do not wrap."""
        if isinstance(k, slice):
            if (k.start or 0) < 0 or (k.stop or 0) < 0:
                raise IndexError(f"slice {k.start}:{k.stop} outside 0..{self.depth}")
        elif isinstance(k, int) and k < 0:
            raise IndexError(f"index {k} outside 0..{self.depth}")
        return self._values[k]

    def __eq__(self, other):
        if not isinstance(other, TruncSeq):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        shown = ", ".join(str(v) for v in self._values[:6])
        tail = ", ..." if len(self._values) > 6 else ""
        return f"TruncSeq(depth={self.depth}, [{shown}{tail}])"


def _check_depths(f: TruncSeq, g: TruncSeq, op: str) -> None:
    if f.depth != g.depth:
        raise DepthMismatchError(f"{op}: depth {f.depth} vs {g.depth}")


def _check_depth_arg(depth: int) -> None:
    if depth < 0:
        raise ValueError("depth must be >= 0")


def make_named(name: str, depth: int) -> TruncSeq:
    """One of the named sequences: e, I, nu, xi1, fact.

    e is the convolution identity; I is constant 1; nu(k) = (-1)^k inverts
    the binomial transform; xi1(k) = 1/(k+1) is the inverse of the Bernoulli
    numbers; fact(k) = k! conjugates the unweighted Cauchy product into the
    weighted one.
    """
    _check_depth_arg(depth)
    if name == "e":
        return TruncSeq([1] + [0] * depth)
    if name == "I":
        return TruncSeq([1] * (depth + 1))
    if name == "nu":
        return TruncSeq([(-1) ** k for k in range(depth + 1)])
    if name == "xi1":
        return TruncSeq([Fraction(1, k + 1) for k in range(depth + 1)])
    if name == "fact":
        vals = [1]
        for k in range(1, depth + 1):
            vals.append(vals[-1] * k)
        return TruncSeq(vals)
    raise ValueError(f"unknown named sequence: {name!r}")


def make_eps(x, depth: int) -> TruncSeq:
    """Geometric sequence eps_x(k) = x^k with eps_x(0) = 1 (so eps_0 = e)."""
    _check_depth_arg(depth)
    x = as_coeff(x)
    return TruncSeq([x ** k for k in range(depth + 1)])


def make_xi(x, m: int, depth: int) -> TruncSeq:
    """xi_{x,m}(k) = x^(k+m)/(k+m) for x != 0; xi_{0,m} = e by convention."""
    _check_depth_arg(depth)
    if m < 1:
        raise ValueError("m must be >= 1")
    x = as_coeff(x)
    if x == 0:
        return make_named("e", depth)
    return TruncSeq([x ** (k + m) / (k + m) for k in range(depth + 1)])


def add(f: TruncSeq, g: TruncSeq) -> TruncSeq:
    _check_depths(f, g, "add")
    return TruncSeq(a + b for a, b in zip(f, g))


def sub(f: TruncSeq, g: TruncSeq) -> TruncSeq:
    _check_depths(f, g, "sub")
    return TruncSeq(a - b for a, b in zip(f, g))


def scale(c, f: TruncSeq) -> TruncSeq:
    c = as_coeff(c)
    return TruncSeq(c * v for v in f)


def pointwise_mul(f: TruncSeq, g: TruncSeq) -> TruncSeq:
    """Ordinary product (fg)(k) = f(k) g(k)."""
    _check_depths(f, g, "pointwise_mul")
    return TruncSeq(a * b for a, b in zip(f, g))


def bullet(f: TruncSeq, g: TruncSeq) -> TruncSeq:
    """Binomial (Cauchy-type) product, truncated at the common depth."""
    _check_depths(f, g, "bullet")
    fv, gv = f.values, g.values
    if _rational(fv) and _rational(gv):
        (a, da), (b, db) = _over_common(fv), _over_common(gv)
        den = da * db
        return TruncSeq(Fraction(sum(map(mul, map(mul, _pascal_row(k), a), b[k::-1])), den)
                        for k in range(len(a)))
    out = []
    for k in range(len(fv)):
        row = _pascal_row(k)
        total = fv[0] * gv[k]
        for m in range(1, k + 1):
            total = total + row[m] * fv[m] * gv[k - m]
        out.append(total)
    return TruncSeq(out)


def cauchy(f: TruncSeq, g: TruncSeq) -> TruncSeq:
    """Unweighted Cauchy product (f o g)(k) = sum f(m) g(k-m)."""
    _check_depths(f, g, "cauchy")
    fv, gv = f.values, g.values
    if _rational(fv) and _rational(gv):
        (a, da), (b, db) = _over_common(fv), _over_common(gv)
        den = da * db
        return TruncSeq(Fraction(sum(map(mul, a, b[k::-1])), den) for k in range(len(a)))
    out = []
    for k in range(len(fv)):
        total = fv[0] * gv[k]
        for m in range(1, k + 1):
            total = total + fv[m] * gv[k - m]
        out.append(total)
    return TruncSeq(out)


def binomial_transform(f: TruncSeq) -> TruncSeq:
    """F(k) = sum C(k,m) f(m), i.e. f * I under the binomial product."""
    return bullet(f, make_named("I", f.depth))


def binomial_invert(F: TruncSeq) -> TruncSeq:
    """Inverse transform: convolve with nu, recovering f from F = f * I."""
    return bullet(F, make_named("nu", F.depth))


def compose_shift(f: TruncSeq, m: int) -> TruncSeq:
    """Shifted window g(n) = f(n + m) of depth f.depth - m."""
    if m < 0:
        raise ValueError("shift must be >= 0")
    if m > f.depth:
        raise DepthMismatchError(f"shift {m} exceeds depth {f.depth}")
    return TruncSeq(f.values[m:])


def psi_product(f: TruncSeq, g: TruncSeq, m: int) -> TruncSeq:
    """Shifted binomial product: both arguments composed with n -> n + m, then bulleted.

    (f x_m g)(n) = sum_i C(n,i) f(m+i) g(m+n-i); output depth is depth - m.
    With m = 0 this is exactly ``bullet``.
    """
    _check_depths(f, g, "psi_product")
    return bullet(compose_shift(f, m), compose_shift(g, m))


def deviation(f: TruncSeq) -> TruncSeq:
    """I * f - nu f; the zero sequence exactly when f obeys the symmetric identity."""
    K = f.depth
    return sub(bullet(make_named("I", K), f), pointwise_mul(make_named("nu", K), f))
