"""Unit group: inverses, powers, roots, membership, decomposition."""
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomring.egf import egf_to_seq, seq_to_egf, series_pow_rat
from binomring.errors import NotAUnitError, NotInvertibleInRingError, RootNotRepresentableError
from binomring.poly import RatPoly, X
from binomring.seqcore import TruncSeq, bullet, make_eps, make_named, scale
from binomring.special import bernoulli, bernoulli_poly
from binomring.units import (
    decompose,
    inverse,
    membership,
    mth_root,
    power_int,
    power_rat,
)


def test_inverse_examples():
    K = 10
    assert inverse(make_named("I", K)) == make_named("nu", K)
    assert inverse(make_named("xi1", K)) == bernoulli(K)
    assert inverse(make_named("e", K)) == make_named("e", K)
    f = TruncSeq([F(2), F(1, 3), F(-5)])
    assert bullet(f, inverse(f)) == make_named("e", 2)


def test_inverse_errors():
    with pytest.raises(NotAUnitError):
        inverse(TruncSeq([0, 1, 2]))
    with pytest.raises(NotInvertibleInRingError):
        inverse(TruncSeq([X, RatPoly.const(1)]))
    with pytest.raises(NotAUnitError):
        inverse(TruncSeq([RatPoly(), RatPoly.const(1)]))


def test_inverse_over_polynomials():
    K = 6
    assert inverse(make_eps(X, K)) == make_eps(-X, K)


def test_power_int():
    K = 8
    xi1 = make_named("xi1", K)
    sq = power_int(xi1, 2)
    for k in range(K + 1):
        assert sq[k] == F(2 * (2 ** (k + 1) - 1), (k + 1) * (k + 2))
    assert sq[2] == F(7, 6)
    f = TruncSeq([F(3), F(1), F(4)])
    assert power_int(f, 0) == make_named("e", 2)
    assert power_int(f, 1) == f
    x = F(2, 7)
    assert power_int(make_eps(x, K), -1) == make_eps(-x, K)
    assert power_int(f, -2) == inverse(bullet(f, f))


def test_mth_root_of_bernoulli_square():
    got = mth_root(bernoulli(8), 2)
    want = TruncSeq([F(1), F(-1, 4), F(1, 48), F(1, 64), F(-3, 1280), F(-19, 3072),
                     F(79, 86016), F(275, 49152), F(-2339, 2949120)])
    assert got == want


def test_mth_root_of_bernoulli_cube_entry():
    # the exp/log oracle and the published closed forms both give 1/108 here
    assert mth_root(bernoulli(4), 3)[3] == F(1, 108)


def test_mth_root_polynomial_sequence():
    K = 6
    assert mth_root(make_eps(-X, K), 2) == make_eps(-X / 2, K)


def test_mth_root_errors():
    with pytest.raises(RootNotRepresentableError):
        mth_root(TruncSeq([F(2), F(1)]), 2)
    with pytest.raises(RootNotRepresentableError):
        mth_root(TruncSeq([F(-1), F(1)]), 2)
    with pytest.raises(NotAUnitError):
        mth_root(TruncSeq([F(0), F(1)]), 3)
    with pytest.raises(ValueError):
        mth_root(make_named("e", 3), 0)


def test_mth_root_negative_leading_odd():
    f = scale(-8, make_named("e", 5))
    g = mth_root(f, 3)
    assert g[0] == -2
    assert power_int(g, 3) == f


def test_torsion_free_roots_of_identity():
    e = make_named("e", 12)
    for s in range(2, 7):
        assert mth_root(e, s) == e


def test_root_roundtrip_random():
    rng = random.Random(4)
    for m in (2, 3, 4, 5):
        f = TruncSeq([F(1)] + [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(10)])
        assert power_int(mth_root(f, m), m) == f


def test_power_rat():
    K = 8
    x = F(3, 5)
    p, q = 4, 3
    got = power_rat(make_eps(x, K), p, q)
    assert got == make_eps(F(p, q) * x, K)
    f = TruncSeq([F(1), F(2), F(-1, 3), F(5)])
    assert power_rat(f, 1, 1) == f
    assert power_rat(bernoulli(8), 1, 2) == mth_root(bernoulli(8), 2)


def test_power_rat_scalar_action_law():
    rng = random.Random(13)
    f = TruncSeq([F(1)] + [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)])
    for (p1, q1), (p2, q2) in [((1, 2), (1, 3)), ((2, 3), (-1, 2)), ((3, 4), (1, 4))]:
        combined = power_rat(f, p1 * q2 + p2 * q1, q1 * q2)
        split = bullet(power_rat(f, p1, q1), power_rat(f, p2, q2))
        assert combined == split


rats = st.fractions(min_value=-9, max_value=9, max_denominator=9)
monic_units = st.lists(rats, min_size=0, max_size=12).map(lambda tail: TruncSeq([F(1)] + tail))


@settings(max_examples=60, deadline=None)
@given(monic_units, st.integers(-6, 6), st.integers(1, 7))
def test_power_rat_matches_egf_oracle(f, p, q):
    assert power_rat(f, p, q) == egf_to_seq(series_pow_rat(seq_to_egf(f), p, q))


def test_power_rat_polynomial_lead_error_follows_sign_of_p():
    f = TruncSeq([X + 1, RatPoly.const(1), F(2)])
    for p in (-3, -1):
        with pytest.raises(NotInvertibleInRingError):
            power_rat(f, p, 2)
    for p in (1, 2):
        with pytest.raises(RootNotRepresentableError):
            power_rat(f, p, 1)
    with pytest.raises(NotInvertibleInRingError):
        power_int(f, -2)
    with pytest.raises(RootNotRepresentableError):
        mth_root(f, 1)


def test_power_rat_zero_exponent_needs_no_unit():
    e = make_named("e", 2)
    for lead in (F(0), RatPoly(), X + 1):
        f = TruncSeq([lead, F(1), F(2)])
        assert power_rat(f, 0, 3) == e
        with pytest.raises(ValueError):
            power_rat(f, 0, 0)


def test_power_rat_zero_lead_is_not_a_unit():
    for lead in (F(0), RatPoly()):
        f = TruncSeq([lead, F(1), F(2)])
        for p, q in ((2, 1), (1, 2), (-1, 1), (-2, 3)):
            with pytest.raises(NotAUnitError):
                power_rat(f, p, q)
    # repeated squaring stays defined off the unit group
    assert power_int(TruncSeq([0, 1, 2]), 2) == TruncSeq([0, 0, 2])


def test_power_rat_entry_zero_type():
    f = bernoulli_poly(4)
    assert isinstance(f[0], RatPoly)
    assert isinstance(power_rat(f, 2, 1)[0], RatPoly)
    for p, q in ((1, 2), (-1, 1), (2, 3), (-2, 1)):
        assert isinstance(power_rat(f, p, q)[0], F)


def test_power_rat_constant_polynomial_lead_types():
    # f(0) is a factor of f^p, so for |p| > 1 a polynomial f(0) makes every later entry one
    f = TruncSeq([RatPoly.const(4), F(1), F(2)])
    for p, q in ((2, 2), (-2, 1), (3, 2), (-3, 2)):
        assert all(isinstance(v, RatPoly) for v in power_rat(f, p, q)[1:])
    for p, q in ((1, 2), (-1, 1), (-1, 2)):
        assert all(isinstance(v, F) for v in power_rat(f, p, q))


def test_mth_root_huge_m_has_bounded_memory():
    f = TruncSeq([F(1), F(2, 3), F(-1, 5), F(7), F(1, 9)])
    tracemalloc.start()
    try:
        g = mth_root(f, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert power_int(g, 10 ** 6) == f


def test_membership():
    e = make_named("e", 6)
    m = membership(e)
    assert (m.in_A, m.in_U, m.in_C, m.in_V, m.in_W) == (True, True, True, True, True)
    m = membership(make_eps(3, 6))
    assert (m.in_A, m.in_U, m.in_C, m.in_V, m.in_W) == (True, True, False, True, False)
    m = membership(bernoulli(6))
    assert (m.in_A, m.in_U, m.in_C, m.in_V, m.in_W) == (True, True, False, False, False)
    m = membership(scale(5, e))
    assert m.in_C and m.in_A and not m.in_U
    m = membership(TruncSeq([0, 1]))
    assert not m.in_A


def test_decompose():
    e = make_named("e", 6)
    d = decompose(e)
    assert d.v == e and d.w == e and d.c == e
    d = decompose(make_eps(F(7, 2), 6))
    assert d.v == make_eps(F(7, 2), 6) and d.w == e and d.c == e

    f = scale(2, bernoulli(6))
    d = decompose(f)
    assert d.c == scale(2, e)
    assert d.v == make_eps(F(-1, 2), 6)
    assert d.w == bullet(make_eps(F(1, 2), 6), bernoulli(6))
    assert d.reassemble() == f
    assert membership(d.v).in_V and membership(d.w).in_W and membership(d.c).in_C


def test_decompose_uniqueness_marker():
    # v is pinned by v(1) = f(1) for f in U
    rng = random.Random(8)
    f = TruncSeq([F(1)] + [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)])
    d = decompose(f)
    assert d.v == make_eps(f[1], 7)


def test_decompose_non_unit():
    with pytest.raises(NotAUnitError):
        decompose(TruncSeq([0, 1, 2]))
