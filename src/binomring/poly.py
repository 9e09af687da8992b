"""Dense univariate polynomials over exact rationals.

RatPoly is the second coefficient ring next to Fraction: it carries the
symbolic parameter of polynomial families (Bernoulli/Euler polynomials and
friends) through the same sequence code paths that produce plain numbers.
All arithmetic is exact; there is no floating-point anywhere.

A polynomial is stored as integer numerators over one positive common
denominator, the representation of FLINT's fmpq_poly
(https://flintlib.org/doc/fmpq_poly.html) that seqcore's common-denominator
kernel uses for Fraction sequences. Every operation works on plain integers
and reduces its result once, instead of running a gcd after each
coefficient + and *; Fraction coefficients are built only when asked for.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"not a rational scalar: {v!r}")


def _scalar(v):
    """(numerator, denominator) of an int or Fraction scalar, else None."""
    if isinstance(v, int):
        return v, 1
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    return None


def _canonical(nums, den: int) -> "RatPoly":
    """The RatPoly nums/den for den > 0: trailing zeros stripped, gcd(den, *nums) divided out."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    if not n:
        return ZERO
    if n < len(nums):
        nums = nums[:n]
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    p = object.__new__(RatPoly)
    object.__setattr__(p, "_nums", tuple(nums))
    object.__setattr__(p, "_den", den)
    return p


def _conv(a, b) -> list[int]:
    """Integer polynomial product of two nonempty coefficient sequences."""
    lb = len(b)
    rb = b[::-1]
    # coefficient k sums a[i] b[k-i] for i >= max(0, k-lb+1); map stops at the shorter slice
    return [sum(map(mul, a[max(0, k - lb + 1):], rb[max(lb - 1 - k, 0):]))
            for k in range(len(a) + lb - 1)]


class RatPoly:
    """Polynomial in one indeterminate with rational coefficients.

    Stored as a tuple of integer numerators (index = degree) over one
    positive denominator, in canonical form: no trailing zeros, and the
    denominator shares no factor with all the numerators; the zero
    polynomial is ((), 1). ``coeffs`` gives the Fraction coefficients.
    Instances are immutable and interoperate with int/Fraction scalars on
    either side of +, -, *, / and ==.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c).as_integer_ratio() for c in coeffs]
        while cs and not cs[-1][0]:
            cs.pop()
        # reduced Fractions over the lcm of their denominators are already canonical
        den = lcm(*[d for _, d in cs])
        object.__setattr__(self, "_nums", tuple([n * (den // d) for n, d in cs]))
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    @classmethod
    def const(cls, v) -> "RatPoly":
        return cls((_as_fraction(v),))

    @classmethod
    def x(cls) -> "RatPoly":
        """The indeterminate itself."""
        return cls((Fraction(0), Fraction(1)))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(n, den) for n in self._nums)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._nums) - 1

    def is_zero(self) -> bool:
        return not self._nums

    def is_constant(self) -> bool:
        return len(self._nums) <= 1

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeff(0)

    def coeff(self, k: int) -> Fraction:
        return Fraction(self._nums[k], self._den) if 0 <= k < len(self._nums) else Fraction(0)

    @staticmethod
    def _parts(other):
        """(numerators, denominator) of a RatPoly or scalar operand, else None."""
        if isinstance(other, RatPoly):
            return other._nums, other._den
        s = _scalar(other)
        if s is None:
            return None
        return ((s[0],) if s[0] else ()), s[1]

    def _combine(self, other, op):
        """self op other for op in (add, sub), over the lcm of the two denominators."""
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, da = self._nums, self._den
        b, db = o
        if da != db:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            a = [x * sa for x in a]
            b = [x * sb for x in b]
            da *= sa
        n = min(len(a), len(b))
        out = list(map(op, a, b))
        if len(a) > n:
            out += a[n:]
        elif len(b) > n:
            out += b[n:] if op is add else [-x for x in b[n:]]
        return _canonical(out, da)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self)._combine(other, add)

    def __neg__(self):
        return _canonical([-x for x in self._nums], self._den)

    def __mul__(self, other):
        s = _scalar(other)
        if s is not None:
            n, d = s
            return _canonical([x * n for x in self._nums], self._den * d)
        if not isinstance(other, RatPoly):
            return NotImplemented
        if not self._nums or not other._nums:
            return ZERO
        return _canonical(_conv(self._nums, other._nums), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # scalar division only; polynomial divisors are not part of the ring contract
        if isinstance(other, RatPoly):
            if other.is_constant() and not other.is_zero():
                other = other.constant_value()
            else:
                return NotImplemented
        s = _scalar(other)
        if s is None:
            return NotImplemented
        n, d = s
        if n == 0:
            raise ZeroDivisionError("division of RatPoly by zero")
        if n < 0:
            n, d = -n, -d
        return _canonical([x * d for x in self._nums], self._den * n)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("RatPoly powers must be nonnegative integers")
        result = [1]
        base = list(self._nums)
        den = self._den ** n
        while n:
            if n & 1:
                result = _conv(result, base) if base else []
            n >>= 1
            if n and base:
                base = _conv(base, base)
        return _canonical(result, den)

    def __eq__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self._nums == o[0] and self._den == o[1]

    def __hash__(self):
        # constants hash like their Fraction value so mixed-ring dict keys behave
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self._nums, self._den))

    def evaluate(self, x) -> Fraction:
        """Horner evaluation at a rational point, over integers: p(u/v) = sum n_k u^k v^(d-k) / (den v^d)."""
        x = _as_fraction(x)
        u, v = x.numerator, x.denominator
        acc, vk = 0, 1
        for c in reversed(self._nums):
            acc = acc * u + c * vk
            vk *= v
        return Fraction(acc, self._den * (vk // v if self._nums else 1))

    def derivative(self) -> "RatPoly":
        return _canonical([k * c for k, c in enumerate(self._nums)][1:], self._den)

    def compose_affine(self, a, b) -> "RatPoly":
        """Substitute a*x + b for the indeterminate.

        With a*x + b = (A x + B)/L over integers, Horner's rule on
        sum n_k (A x + B)^k L^(d-k) gives the numerators over den L^d.
        """
        a = _as_fraction(a)
        b = _as_fraction(b)
        L = lcm(a.denominator, b.denominator)
        A, B = a.numerator * (L // a.denominator), b.numerator * (L // b.denominator)
        acc, Lk = [], 1
        for c in reversed(self._nums):
            # acc <- acc * (A x + B) + c L^(d-k)
            acc = list(map(add, map(B.__mul__, acc + [0]), map(A.__mul__, [0] + acc)))
            acc[0] += c * Lk
            Lk *= L
        return _canonical(acc, self._den * (Lk // L if self._nums else 1))

    def __repr__(self):
        return f"RatPoly({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        cs = self.coeffs
        parts = []
        for k in range(self.degree, -1, -1):
            c = cs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "x" if k == 1 else f"x^{k}"
                term = f"{mag}{var}"
                if c < 0:
                    term = "-" + term
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append("- " + term[1:])
            else:
                parts.append("+ " + term)
        return " ".join(parts)


ZERO = RatPoly()
X = RatPoly.x()
