"""The unit group {f : f(0) != 0} under the binomial product.

Inverses, integer and rational powers, unique m-th roots (the group is
torsion-free, so roots are unique when they exist over the rationals), the
membership flags for the standard subgroups, and the direct-sum
decomposition f = v * w * c with v geometric, w vanishing at 1, c scalar.
Inverses, negative powers, roots and rational powers all run through one
routine, power_rat, which evaluates J.C.P. Miller's power recurrence.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul, sub
from typing import NamedTuple

from .errors import NotAUnitError, NotInvertibleInRingError, RootNotRepresentableError
from .seqcore import TruncSeq, _is_poly, _lift, _pascal_row, _widen, bullet, make_eps, make_named, scale


def _unit_reciprocal(v) -> Fraction:
    """1/f(0) for a unit leading coefficient; polynomial units must be constants."""
    if _is_poly(v):
        if v.is_zero():
            raise NotAUnitError("f(0) = 0")
        if not v.is_constant():
            raise NotInvertibleInRingError(f"f(0) = {v} is not a constant polynomial")
        v = v.constant_value()
    if v == 0:
        raise NotAUnitError("f(0) = 0")
    return Fraction(1, 1) / v


def inverse(f: TruncSeq) -> TruncSeq:
    """Convolution inverse, f^(-1)."""
    return power_rat(f, -1, 1)


def power_int(f: TruncSeq, n: int) -> TruncSeq:
    """n-fold bullet power by repeated squaring; f^0 = e and negative n go to power_rat."""
    if n <= 0:
        return power_rat(f, n, 1)
    result = None
    base = f
    while n:
        if n & 1:
            result = base if result is None else bullet(result, base)
        n >>= 1
        if n:
            base = bullet(base, base)
    return result


def _int_nth_root(n: int, m: int) -> int | None:
    """Exact integer m-th root of n >= 0, or None."""
    if n in (0, 1):
        return n
    r = 1 << ((n.bit_length() + m - 1) // m)
    while True:
        nr = ((m - 1) * r + n // r ** (m - 1)) // m
        if nr >= r:
            break
        r = nr
    return r if r ** m == n else None


def _rat_mth_root(c: Fraction, m: int) -> Fraction:
    if c == 0:
        raise NotAUnitError("f(0) = 0")
    if c < 0 and m % 2 == 0:
        raise RootNotRepresentableError(f"{c} has no rational {m}-th root")
    sign = -1 if c < 0 else 1
    num = _int_nth_root(abs(c.numerator), m)
    den = _int_nth_root(c.denominator, m)
    if num is None or den is None:
        raise RootNotRepresentableError(f"{c} is not an exact {m}-th power")
    return Fraction(sign * num, den)


def mth_root(f: TruncSeq, m: int) -> TruncSeq:
    """Unique g with g^m = f, requiring f(0) to be an exact rational m-th power."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return power_rat(f, 1, m)


def power_rat(f: TruncSeq, p: int, q: int) -> TruncSeq:
    """f^(p/q), the q-th root of f^p; well defined because the unit group is torsion-free.

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7) in binomial
    form. The exponential generating functions A of f and G of g = f^(p/q)
    satisfy q A G' = p A' G; comparing coefficients of t^(k-1)/(k-1)! gives

        q f(0) g(k) = sum_{i=1}^{k} (p C(k-1,i-1) - q C(k-1,i)) f(i) g(k-i)

    with C(k-1,k) = 0 and g(0) the rational q-th root of f(0)^p. At p/q = -1
    the coefficient is -C(k,i), the usual inverse loop. Cost is O(K^2) ring
    operations whatever p and q are. One sum serves both rings: it runs over
    integer numerators for Fraction sequences, g's kept over a running lcm
    (seqcore's common-denominator kernel), and over the ring values
    otherwise, each g(k) then scaled by 1/(q f(0)). Positive integer powers
    keep repeated squaring, the only route defined when f(0) is not a unit.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if p == 0:
        return make_named("e", f.depth)
    lead = f[0]
    if lead == 0:
        raise NotAUnitError("f(0) = 0")
    poly = _is_poly(lead)
    if poly and not lead.is_constant():
        error = NotInvertibleInRingError if p < 0 else RootNotRepresentableError
        raise error(f"f(0) = {lead} is not a constant polynomial")
    if q == 1 and p > 0:
        return power_int(f, p)
    f0 = lead.constant_value() if poly else lead
    g = [_rat_mth_root(f0 ** p, q)]
    (a, _), = _lift(f)
    rational = isinstance(a[0], int)
    if rational:
        # integer numerators: f = a/da, g = G/den; the da of both sides cancels
        G, den, qa0 = [g[0].numerator], g[0].denominator, q * a[0]
    else:
        G, inv = g, Fraction(1, 1) / (q * f0)
        if poly and p not in (1, -1):
            # f(0) is a factor of every entry k >= 1 of f^p, so they stay polynomials
            inv = type(lead).const(inv)
    tail = a[1:]
    for k in range(1, len(a)):
        row = _pascal_row(k - 1)
        coef = map(sub, map(p.__mul__, row), map(q.__mul__, row[1:] + (0,)))
        total = sum(map(mul, map(mul, coef, tail), G[::-1]))
        if rational:
            gk = Fraction(total, qa0 * den)
            den = _widen(G, den, gk)
        else:
            gk = total * inv  # G is g, so the append below extends it
        g.append(gk)
    return TruncSeq(g)


class Membership(NamedTuple):
    """Subgroup flags: units A, monic units U, scalars C, geometric V, units with f(1)=0 W."""

    in_A: bool
    in_U: bool
    in_C: bool
    in_V: bool
    in_W: bool


def membership(f: TruncSeq) -> Membership:
    f0 = f[0]
    in_A = not (f0 == 0)
    in_U = f0 == 1
    e = make_named("e", f.depth)
    in_C = in_A and f == scale(f0, e)
    # k = 0, 1 hold automatically once f(0) = 1, so geometric needs k >= 2 only
    in_V = in_U and all(f[k] == f[1] ** k for k in range(2, f.depth + 1))
    in_W = in_U and (f.depth == 0 or f[1] == 0)
    return Membership(in_A, in_U, in_C, in_V, in_W)


class Decomposition(NamedTuple):
    """Factors of f = v * w * c with v geometric, w(1) = 0, c = f(0) e."""

    v: TruncSeq
    w: TruncSeq
    c: TruncSeq

    def reassemble(self) -> TruncSeq:
        return bullet(bullet(self.v, self.w), self.c)


def decompose(f: TruncSeq) -> Decomposition:
    """Split a unit into its geometric, depth-one-free, and scalar parts."""
    r = _unit_reciprocal(f[0])
    K = f.depth
    u = scale(r, f)
    u1 = u[1] if K >= 1 else Fraction(0)
    v = make_eps(u1, K)
    w = bullet(make_eps(-u1, K), u)
    c = scale(f[0], make_named("e", K))
    return Decomposition(v=v, w=w, c=c)
