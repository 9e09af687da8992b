"""The common-denominator kernels against plain Fraction loops, brute divisor sums and the EGF oracle."""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomring.dirichlet import DirSeq, dirichlet_conv, dirichlet_inverse, gamma_twisted_conv
from binomring.egf import egf_to_seq, seq_to_egf, series_mul, series_pow_rat
from binomring.errors import NotAUnitError
from binomring.poly import RatPoly, X
from binomring.seqcore import TruncSeq, binom, bullet, cauchy, make_named, scale
from binomring.units import power_rat

# Reference loops: one Fraction operation per term, no shared code with the kernels.


def ref_bullet(f, g):
    return TruncSeq(sum((binom(k, m) * f[m] * g[k - m] for m in range(1, k + 1)), f[0] * g[k])
                    for k in range(len(f)))


def ref_cauchy(f, g):
    return TruncSeq(sum((f[m] * g[k - m] for m in range(1, k + 1)), f[0] * g[k]) for k in range(len(f)))


def ref_power_rat(f, p, q, g0):
    """Miller's recurrence q f(0) g(k) = sum_i (p C(k-1,i-1) - q C(k-1,i)) f(i) g(k-i), term by term."""
    g = [g0]
    for k in range(1, len(f)):
        total = F(0)
        for i in range(1, k + 1):
            total += (p * binom(k - 1, i - 1) - q * binom(k - 1, i)) * f[i] * g[k - i]
        g.append(total / (q * f[0]))
    return TruncSeq(g)


def ref_dirichlet_conv(f, g, weight=lambda k, d: 1):
    n = f.bound
    return DirSeq(sum(weight(k, d) * f.at(d) * g.at(k // d) for d in range(1, k + 1) if k % d == 0)
                  for k in range(1, n + 1))


def ref_dirichlet_inverse(f):
    g = {1: 1 / f.at(1)}
    for k in range(2, f.bound + 1):
        g[k] = -sum(g[d] * f.at(k // d) for d in range(1, k) if k % d == 0) / f.at(1)
    return DirSeq(g[k] for k in range(1, f.bound + 1))


# Inputs: small rationals, or pairwise-coprime prime denominators (the worst case for a
# common denominator), each with a run of zeros at the tail.

PRIMES = tuple(p for p in range(2, 200) if all(p % d for d in range(2, p))) + (999983, 1000003, 2147483647)
LEADS = (F(1), F(-1), F(2), F(-3, 4), F(9, 4), F(-8, 27), F(1, 7), F(0))


@st.composite
def entries(draw, size):
    if draw(st.booleans()):
        vals = draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9),
                             min_size=size, max_size=size))
    else:
        dens = draw(st.lists(st.sampled_from(PRIMES), min_size=size, max_size=size, unique=True))
        vals = [F(draw(st.integers(-9, 9)), d) for d in dens]
    zeros = draw(st.integers(0, size))
    return vals[:size - zeros] + [F(0)] * zeros


@st.composite
def seq_pairs(draw):
    K = draw(st.integers(0, 14))
    f = TruncSeq([draw(st.sampled_from(LEADS))] + draw(entries(K)))
    g = TruncSeq([draw(st.sampled_from(LEADS))] + draw(entries(K)))
    return f, g


@settings(max_examples=100, deadline=None)
@given(seq_pairs())
def test_bullet_matches_reference_and_egf(fg):
    f, g = fg
    out = bullet(f, g)
    assert out == ref_bullet(f, g)
    assert out == egf_to_seq(series_mul(seq_to_egf(f), seq_to_egf(g)))
    assert all(type(v) is F for v in out)


@settings(max_examples=100, deadline=None)
@given(seq_pairs())
def test_cauchy_matches_reference_and_egf(fg):
    f, g = fg
    out = cauchy(f, g)
    assert out == ref_cauchy(f, g)
    assert list(out) == series_mul(list(f), list(g))
    assert all(type(v) is F for v in out)


@settings(max_examples=100, deadline=None)
@given(seq_pairs(), st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
       st.integers(-4, 4), st.integers(1, 5))
def test_power_rat_matches_reference_and_egf(fg, c, p, q):
    # a lead c^q has the rational q-th root r = |c| (even q) or c (odd q), so g(0) = r^p
    f = TruncSeq([c ** q] + list(fg[0])[1:])
    r = abs(c) if q % 2 == 0 else c
    out = power_rat(f, p, q)
    assert out == ref_power_rat(f, p, q, r ** p)
    monic = scale(1 / f[0], f)
    assert out == scale(r ** p, egf_to_seq(series_pow_rat(seq_to_egf(monic), p, q)))
    assert all(type(v) is F for v in out)


@settings(max_examples=40, deadline=None)
@given(seq_pairs(), st.integers(-4, 4), st.integers(1, 5))
def test_power_rat_zero_lead(fg, p, q):
    f = TruncSeq([F(0)] + list(fg[0])[1:])
    if p == 0:
        assert power_rat(f, p, q) == make_named("e", f.depth)
    else:
        with pytest.raises(NotAUnitError):
            power_rat(f, p, q)


@st.composite
def dir_triples(draw):
    n = draw(st.integers(1, 24))
    f, g = (DirSeq(draw(entries(n))) for _ in range(2))
    gamma = DirSeq(draw(st.lists(st.sampled_from((1, 2, -3, F(1, 2), F(5, 7))), min_size=n, max_size=n)))
    return f, g, gamma


@settings(max_examples=50, deadline=None)
@given(dir_triples())
def test_dirichlet_conv_matches_divisor_sum(fgc):
    f, g, _ = fgc
    assert dirichlet_conv(f, g) == ref_dirichlet_conv(f, g)


@settings(max_examples=50, deadline=None)
@given(dir_triples(), st.sampled_from(LEADS[:-1]))
def test_dirichlet_inverse_matches_divisor_recursion(fgc, lead):
    f = DirSeq((lead,) + fgc[0].values[1:])
    assert dirichlet_inverse(f) == ref_dirichlet_inverse(f)


@settings(max_examples=50, deadline=None)
@given(dir_triples())
def test_gamma_twisted_conv_matches_divisor_sum(fgc):
    f, g, gamma = fgc

    def weight(k, d):
        return gamma.at(k) / (gamma.at(d) * gamma.at(k // d))

    assert gamma_twisted_conv(f, g, gamma) == ref_dirichlet_conv(f, g, weight)


# Sequences holding a RatPoly keep the ring loop, with its per-entry types.

MIXED = TruncSeq([F(1), F(1, 2), X, F(3)])
RATIONAL = TruncSeq([F(2), F(0), F(1, 3), F(-1)])
POLY_LEAD = TruncSeq([RatPoly.const(1), F(1, 2), F(0), F(3)])


def kinds(seq):
    return ["P" if isinstance(v, RatPoly) else "F" for v in seq]


def test_mixed_products_keep_entry_types():
    assert kinds(bullet(MIXED, RATIONAL)) == ["F", "F", "P", "P"]
    assert kinds(cauchy(RATIONAL, MIXED)) == ["F", "F", "P", "P"]
    assert kinds(bullet(RATIONAL, POLY_LEAD)) == ["P", "P", "P", "P"]
    assert kinds(bullet(RATIONAL, RATIONAL)) == ["F", "F", "F", "F"]
    assert bullet(MIXED, RATIONAL) == ref_bullet(MIXED, RATIONAL)
    assert cauchy(RATIONAL, MIXED) == ref_cauchy(RATIONAL, MIXED)


@pytest.mark.parametrize("p,q,mixed,poly_lead", [
    (-1, 1, "FFPP", "FFFF"),
    (1, 2, "FFPP", "FFFF"),
    (2, 3, "FFPP", "FPPP"),
    (-2, 1, "FFPP", "FPPP"),
    (3, 1, "FFPP", "PPPP"),
    (-3, 2, "FFPP", "FPPP"),
])
def test_mixed_powers_keep_entry_types(p, q, mixed, poly_lead):
    assert "".join(kinds(power_rat(MIXED, p, q))) == mixed
    assert "".join(kinds(power_rat(POLY_LEAD, p, q))) == poly_lead
    if q > 1 or p < 0:
        assert power_rat(MIXED, p, q) == ref_power_rat(MIXED, p, q, F(1))
