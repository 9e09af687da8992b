"""RatPoly arithmetic."""
import json
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomring.jsonio import dumps_canonical, obj_to_seq, seq_to_obj, value_from_json, value_to_json
from binomring.poly import RatPoly, X
from binomring.seqcore import TruncSeq


def test_normalization_strips_trailing_zeros():
    p = RatPoly([1, 2, 0, 0])
    assert p.coeffs == (F(1), F(2))
    assert p.degree == 1
    assert RatPoly([0, 0]).is_zero()
    assert RatPoly().degree == -1


def test_constant_helpers():
    c = RatPoly.const(F(3, 4))
    assert c.is_constant() and c.constant_value() == F(3, 4)
    assert RatPoly().constant_value() == 0
    with pytest.raises(ValueError):
        (X + 1).constant_value()


def test_arithmetic():
    p = X ** 2 - 1
    q = X + 1
    assert p + q == RatPoly([0, 1, 1])
    assert p - q == RatPoly([-2, -1, 1])
    assert q * q == RatPoly([1, 2, 1])
    assert -q == RatPoly([-1, -1])
    assert (X + 1) * (X - 1) == p


def test_scalar_interop_both_sides():
    p = X + F(1, 2)
    assert 2 * p == RatPoly([1, 2])
    assert p * 2 == RatPoly([1, 2])
    assert 1 + p == RatPoly([F(3, 2), 1])
    assert p - F(1, 2) == X
    assert F(1, 2) - p == -X
    assert p / 2 == RatPoly([F(1, 4), F(1, 2)])
    assert p == p + 0


def test_equality_with_scalars():
    assert RatPoly.const(F(2, 3)) == F(2, 3)
    assert F(2, 3) == RatPoly.const(F(2, 3))
    assert RatPoly() == 0
    assert X != 1
    assert hash(RatPoly.const(F(2, 3))) == hash(F(2, 3))


def test_pow():
    assert X ** 0 == 1
    assert (X + 1) ** 3 == RatPoly([1, 3, 3, 1])
    with pytest.raises(ValueError):
        X ** -1


def test_evaluate_and_derivative():
    p = 3 * X ** 2 - X + F(1, 6)
    assert p.evaluate(F(1, 2)) == F(3, 4) - F(1, 2) + F(1, 6)
    assert p.derivative() == 6 * X - 1
    assert RatPoly().derivative().is_zero()


def test_compose_affine():
    p = X ** 2 + 1
    # p(2x + 3) = 4x^2 + 12x + 10
    assert p.compose_affine(2, 3) == RatPoly([10, 12, 4])
    assert p.compose_affine(1, 0) == p
    assert p.compose_affine(-1, 1) == RatPoly([2, -2, 1])


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        X / 0


def test_str():
    assert str(X - F(1, 2)) == "x - 1/2"
    assert str(RatPoly()) == "0"
    assert str(RatPoly([F(-1, 2)])) == "-1/2"


# Reference: a polynomial as a plain list of Fractions, one Fraction operation per term.


def ref_strip(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    return ref_strip((a[k] if k < len(a) else 0) + sign * (b[k] if k < len(b) else 0) for k in range(n))


def ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_strip(out)


def ref_pow(a, n):
    out = [F(1)]
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_eval(a, x):
    return sum((c * x ** k for k, c in enumerate(a)), F(0))


def ref_compose_affine(a, u, v):
    out = []
    for k, c in enumerate(a):
        out = ref_add(out, ref_mul([c], ref_pow([v, u], k)))
    return out


def assert_canonical(p):
    assert isinstance(p, RatPoly)
    nums, den = p._nums, p._den
    assert isinstance(nums, tuple) and all(type(x) is int for x in nums)
    assert type(den) is int and den > 0
    assert not nums or nums[-1] != 0
    assert gcd(den, *nums) == 1
    if not nums:
        assert den == 1


def same(p, ref):
    assert_canonical(p)
    assert p.coeffs == tuple(ref)
    assert p == RatPoly(ref)


rat = st.fractions(min_value=-50, max_value=50, max_denominator=40)
scalar = st.one_of(st.integers(-30, 30), rat)
coeff_lists = st.lists(st.one_of(st.just(F(0)), rat), max_size=7)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists, scalar)
def test_arithmetic_matches_fraction_reference(a, b, s):
    p, q = RatPoly(a), RatPoly(b)
    a, b, c = ref_strip(a), ref_strip(b), [F(s)] if s else []
    same(p, a)
    same(p + q, ref_add(a, b))
    same(p - q, ref_add(a, b, -1))
    same(p * q, ref_mul(a, b))
    same(-p, ref_add([], a, -1))
    # scalar operands on either side, as int or Fraction
    same(p + s, ref_add(a, c))
    same(s + p, ref_add(a, c))
    same(p - s, ref_add(a, c, -1))
    same(s - p, ref_add(c, a, -1))
    same(p * s, ref_mul(a, c))
    same(s * p, ref_mul(a, c))
    # a constant RatPoly operand behaves like its scalar
    same(p * RatPoly(c), ref_mul(a, c))
    same(p - RatPoly(c), ref_add(a, c, -1))
    if s:
        same(p / s, ref_mul(a, [1 / F(s)]))
        same(p / RatPoly.const(s), ref_mul(a, [1 / F(s)]))
    else:
        with pytest.raises(ZeroDivisionError):
            p / s


@settings(max_examples=100, deadline=None)
@given(coeff_lists, st.integers(0, 4), rat, rat, rat)
def test_pow_evaluate_derivative_compose_match_reference(a, n, x, u, v):
    p = RatPoly(a)
    a = ref_strip(a)
    same(p ** n, ref_pow(a, n))
    assert p.evaluate(x) == ref_eval(a, x)
    assert p.evaluate(int(x)) == ref_eval(a, F(int(x)))
    same(p.derivative(), ref_strip(k * c for k, c in enumerate(a))[1:] if len(a) > 1 else [])
    same(p.compose_affine(u, v), ref_compose_affine(a, u, v))
    same(p.compose_affine(int(u), 0), ref_compose_affine(a, F(int(u)), F(0)))
    for k in range(-1, len(a) + 2):
        assert p.coeff(k) == (a[k] if 0 <= k < len(a) else 0)
        assert type(p.coeff(k)) is F


@settings(max_examples=100, deadline=None)
@given(coeff_lists, coeff_lists, scalar)
def test_equality_and_hash_match_reference(a, b, s):
    p, q = RatPoly(a), RatPoly(b)
    a, b = ref_strip(a), ref_strip(b)
    assert (p == q) == (a == b)
    assert (p != q) == (a != b)
    if a == b:
        assert hash(p) == hash(q)
    # a polynomial equals a scalar exactly when it is that constant, on either side
    assert (p == s) == (s == p) == (a == ([F(s)] if s else []))
    if len(a) <= 1:
        assert hash(p) == hash(a[0] if a else F(0))
    # equal values built by different routes share one canonical form
    assert (p * 6 / 6)._nums == p._nums and (p + q - q)._den == p._den


def test_canonical_form_fixed_cases():
    for p in (RatPoly(), RatPoly([0, 0]), X - X, RatPoly([F(2, 4), F(6, 4)]), (X + F(1, 3)) ** 3,
              (2 * X + 2) * F(1, 6), RatPoly([F(1, 2), F(1, 3)]) - RatPoly([F(1, 2), F(-2, 3)]),
              (X ** 2 / 3).derivative(), (3 * X).compose_affine(F(1, 3), 0), RatPoly([F(-5, 6)]) * -6):
        assert_canonical(p)
    assert (RatPoly()._nums, RatPoly()._den) == ((), 1)
    assert (RatPoly([F(2, 4), F(6, 4)])._nums, RatPoly([F(2, 4), F(6, 4)])._den) == ((1, 3), 2)
    assert ((2 * X + 2) * F(1, 6))._nums == (1, 1) and ((2 * X + 2) * F(1, 6))._den == 3
    assert (X - X).is_zero() and (X - X).degree == -1


def test_str_and_repr_fixed_cases():
    cases = (
        (RatPoly(), "0", "RatPoly([])"),
        (RatPoly([F(-1, 2)]), "-1/2", "RatPoly([Fraction(-1, 2)])"),
        (X, "x", "RatPoly([Fraction(0, 1), Fraction(1, 1)])"),
        (-X, "-x", "RatPoly([Fraction(0, 1), Fraction(-1, 1)])"),
        (X - F(1, 2), "x - 1/2", "RatPoly([Fraction(-1, 2), Fraction(1, 1)])"),
        (RatPoly([F(1, 6), -1, F(3, 2)]), "3/2*x^2 - x + 1/6",
         "RatPoly([Fraction(1, 6), Fraction(-1, 1), Fraction(3, 2)])"),
        (RatPoly([0, 0, F(-2, 3), 0, 1]), "x^4 - 2/3*x^2",
         "RatPoly([Fraction(0, 1), Fraction(0, 1), Fraction(-2, 3), Fraction(0, 1), Fraction(1, 1)])"),
        (3 * X ** 3 - X + 7, "3*x^3 - x + 7",
         "RatPoly([Fraction(7, 1), Fraction(-1, 1), Fraction(0, 1), Fraction(3, 1)])"),
        (RatPoly([F(1, 2), 0, F(-3, 4), 0]), "-3/4*x^2 + 1/2",
         "RatPoly([Fraction(1, 2), Fraction(0, 1), Fraction(-3, 4)])"),
    )
    for p, text, rep in cases:
        assert str(p) == text
        assert repr(p) == rep


@settings(max_examples=60, deadline=None)
@given(st.lists(coeff_lists, min_size=1, max_size=5))
def test_jsonio_round_trip(lists):
    polys = [RatPoly(a) for a in lists]
    for p, a in zip(polys, lists):
        obj = value_to_json(p)
        assert obj == [[str(c.numerator), str(c.denominator)] for c in ref_strip(a)]
        back = value_from_json(json.loads(json.dumps(obj)))
        assert back == p
        assert_canonical(back)
    seq = TruncSeq(polys)
    text = dumps_canonical(seq_to_obj("p", seq))
    _, back = obj_to_seq(json.loads(text))
    assert back == seq and all(isinstance(v, RatPoly) for v in back)
    assert dumps_canonical(seq_to_obj("p", back)) == text
