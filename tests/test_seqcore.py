"""Core sequence type, products, and ring laws."""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomring.errors import DepthMismatchError
from binomring.poly import X
from binomring.seqcore import (
    TruncSeq,
    add,
    binom,
    binomial_invert,
    binomial_transform,
    bullet,
    cauchy,
    compose_shift,
    deviation,
    make_eps,
    make_named,
    make_xi,
    pointwise_mul,
    psi_product,
    scale,
    sub,
)
from binomring.special import bernoulli, euler1


def seq(*vals):
    return TruncSeq([F(v) for v in vals])


def test_binom_pascal():
    assert [binom(5, k) for k in range(6)] == [1, 5, 10, 10, 5, 1]
    assert binom(4, 7) == 0
    assert binom(4, -1) == 0


def test_binom_beyond_the_cached_rows():
    from math import comb

    from binomring import seqcore

    # the row just past the bound first, so a cache that still grows fails here, before row 100000
    assert binom(seqcore._BINOM_CACHE_MAX + 1, 7) == comb(seqcore._BINOM_CACHE_MAX + 1, 7)
    assert len(seqcore._PASCAL_ROWS) <= seqcore._BINOM_CACHE_MAX + 1
    assert binom(100000, 3) == comb(100000, 3)
    assert len(seqcore._PASCAL_ROWS) <= seqcore._BINOM_CACHE_MAX + 1


def test_named_sequences():
    assert make_named("e", 3) == seq(1, 0, 0, 0)
    assert make_named("I", 3) == seq(1, 1, 1, 1)
    assert make_named("nu", 3) == seq(1, -1, 1, -1)
    assert make_named("xi1", 3) == TruncSeq([1, F(1, 2), F(1, 3), F(1, 4)])
    assert make_named("fact", 4) == seq(1, 1, 2, 6, 24)
    with pytest.raises(ValueError):
        make_named("mystery", 3)


def test_make_eps():
    assert make_eps(2, 3) == seq(1, 2, 4, 8)
    assert make_eps(0, 3) == make_named("e", 3)
    assert make_eps(-1, 3) == make_named("nu", 3)


def test_make_xi():
    assert make_xi(1, 1, 3) == make_named("xi1", 3)
    assert make_xi(0, 2, 2) == seq(1, 0, 0)
    assert make_xi(2, 1, 2) == TruncSeq([2, 2, F(8, 3)])
    with pytest.raises(ValueError):
        make_xi(1, 0, 3)


def test_pointwise_ops():
    e = make_named("e", 4)
    assert add(e, e) == seq(2, 0, 0, 0, 0)
    assert pointwise_mul(make_named("nu", 4), make_named("I", 4)) == make_named("nu", 4)
    assert scale(3, make_named("xi1", 4))[1] == F(3, 2)
    assert sub(e, e) == seq(0, 0, 0, 0, 0)


def test_bullet_examples():
    K = 8
    assert bullet(make_named("I", K), make_named("nu", K)) == make_named("e", K)
    f = seq(3, 1, 4, 1, 5)
    assert bullet(make_named("e", 4), f) == f
    a, b = F(2, 3), F(-1, 5)
    assert bullet(make_eps(a, K), make_eps(b, K)) == make_eps(a + b, K)


def test_cauchy_examples():
    K = 6
    assert cauchy(make_named("I", K), make_named("I", K)) == TruncSeq(range(1, K + 2))
    f = seq(2, 7, 1)
    assert cauchy(make_named("e", 2), f) == f
    fact = make_named("fact", 2)
    assert cauchy(fact, fact)[2] == 5


def test_binomial_transform():
    K = 6
    assert binomial_transform(make_named("e", K)) == make_named("I", K)
    assert binomial_transform(make_named("I", K)) == TruncSeq([2 ** k for k in range(K + 1)])
    nu = make_named("nu", K)
    assert binomial_invert(binomial_transform(nu)) == nu


def test_compose_shift():
    f = seq(1, 5, 7, 9)
    assert compose_shift(f, 2) == seq(7, 9)
    assert compose_shift(f, 0) == f
    assert compose_shift(make_named("nu", 4), 1) == TruncSeq([-1, 1, -1, 1])
    with pytest.raises(DepthMismatchError):
        compose_shift(f, 4)


def test_psi_product():
    K = 8
    f = seq(3, 1, 4, 1, 5, 9, 2, 6, 5)
    g = seq(2, 7, 1, 8, 2, 8, 1, 8, 2)
    assert psi_product(f, g, 0) == bullet(f, g)
    B = bernoulli(3)
    got = psi_product(make_named("I", 3), B, 1)
    assert got[2] == F(-1, 6)  # B(1) + 2 B(2) + B(3)
    assert got.depth == 2
    with pytest.raises(DepthMismatchError):
        psi_product(f, g, 9)


def test_deviation():
    assert deviation(bernoulli(8)) == TruncSeq([0] * 9)
    dev_e1 = deviation(euler1(6))
    assert dev_e1 == TruncSeq([0] + [2] * 6)  # 2(I - e)
    assert deviation(make_named("e", 5)) == TruncSeq([0] + [1] * 5)  # I - e


def test_depth_mismatch_errors():
    f, g = make_named("I", 3), make_named("I", 4)
    for op in (add, sub, pointwise_mul, bullet, cauchy):
        with pytest.raises(DepthMismatchError):
            op(f, g)


def test_polynomial_coefficients_flow_through():
    K = 5
    ex = make_eps(X, K)
    assert ex[3] == X ** 3
    b = bullet(ex, make_eps(-X, K))
    assert b == make_named("e", K)


rats = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def seqs(depth):
    return st.lists(rats, min_size=depth + 1, max_size=depth + 1).map(TruncSeq)


@settings(max_examples=25, deadline=None)
@given(seqs(9), seqs(9))
def test_bullet_commutative(f, g):
    assert bullet(f, g) == bullet(g, f)


@settings(max_examples=25, deadline=None)
@given(seqs(7), seqs(7), seqs(7))
def test_bullet_associative(f, g, h):
    assert bullet(bullet(f, g), h) == bullet(f, bullet(g, h))


@settings(max_examples=25, deadline=None)
@given(seqs(8), seqs(8), seqs(8))
def test_bullet_distributive(f, g, h):
    assert bullet(f, add(g, h)) == add(bullet(f, g), bullet(f, h))


@settings(max_examples=25, deadline=None)
@given(seqs(10))
def test_bullet_identity(f):
    assert bullet(make_named("e", 10), f) == f


@settings(max_examples=25, deadline=None)
@given(rats, rats)
def test_eps_homomorphism(a, b):
    assert bullet(make_eps(a, 8), make_eps(b, 8)) == make_eps(a + b, 8)


@settings(max_examples=25, deadline=None)
@given(seqs(10))
def test_transform_roundtrip(f):
    assert binomial_invert(binomial_transform(f)) == f
    assert binomial_transform(binomial_invert(f)) == f


@settings(max_examples=15, deadline=None)
@given(rats, rats, rats, seqs(7), seqs(7))
def test_twist_rule(x, y, z, f, g):
    K = 7
    lhs = pointwise_mul(
        make_eps(x, K),
        bullet(pointwise_mul(make_eps(y, K), f), pointwise_mul(make_eps(z, K), g)),
    )
    rhs = bullet(pointwise_mul(make_eps(x * y, K), f), pointwise_mul(make_eps(x * z, K), g))
    assert lhs == rhs


def test_negative_index_does_not_wrap():
    f = seq(1, 2, 3)
    assert f[2] == 3 and f[1:] == (F(2), F(3))
    for k in (-1, -3, 3):
        with pytest.raises(IndexError):
            f[k]


def test_negative_slice_bounds_do_not_wrap():
    f = seq(1, 2, 3)
    assert f[0:2] == (F(1), F(2)) and f[::-1] == (F(3), F(2), F(1)) and f[1:99] == (F(2), F(3))
    for bad in (slice(-2, None), slice(None, -1), slice(0, -1), slice(-3, 3, 1)):
        with pytest.raises(IndexError):
            f[bad]
