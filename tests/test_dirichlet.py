"""Dirichlet side: convolution, Moebius, twists, coprime power sums."""
import random
from fractions import Fraction as F
from math import gcd

import pytest

from binomring.dirichlet import (
    DirSeq,
    _spf_table,
    coprime_power_sum_identity,
    delta,
    dirichlet_conv,
    dirichlet_inverse,
    divisors,
    factorize,
    gamma_twisted_conv,
    mobius,
    mobius_value,
    ones,
    power_values,
    prime_exponent_factorial,
)
from binomring.errors import BoundMismatchError, NotAUnitError


def test_factorize_divisors():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(1) == ()
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_factorize_matches_a_sieve():
    spf = _spf_table(30000)
    for n in range(1, 30001):
        want, m = [], n
        while m > 1:
            p, c = spf[m], 0
            while m % p == 0:
                m //= p
                c += 1
            want.append((p, c))
        assert factorize(n) == tuple(want), n
    assert factorize(2 ** 40 * 3 ** 5 * 1000003) == ((2, 40), (3, 5), (1000003, 1))
    assert factorize(99999999977) == ((99999999977, 1),)  # a prime near 10^11
    assert factorize(10 ** 11) == ((2, 11), (5, 11))


def test_divisors_build_no_sieve_table():
    # factorize works by trial division, so factoring 1..N keeps no table per n
    _spf_table.cache_clear()
    factorize.cache_clear()
    for k in range(1, 1501):
        divisors(k)
    assert _spf_table.cache_info().currsize == 0


def test_mobius_values():
    assert list(mobius(6).values) == [1, -1, -1, 0, -1, 1]
    assert mobius_value(30) == -1
    assert mobius_value(4) == 0


def test_dirichlet_conv_counts_divisors():
    t = dirichlet_conv(ones(12), ones(12))
    assert t.at(6) == 4
    assert t.at(12) == 6
    assert t.at(1) == 1


def test_mobius_inversion():
    N = 30
    assert dirichlet_conv(mobius(N), ones(N)) == delta(N)


def test_delta_identity():
    rng = random.Random(1)
    f = DirSeq([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(20)])
    assert dirichlet_conv(delta(20), f) == f


def test_inverse():
    N = 64
    assert dirichlet_inverse(ones(N)) == mobius(N)
    assert dirichlet_inverse(delta(N)) == delta(N)
    rng = random.Random(2)
    f = DirSeq([F(3)] + [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(N - 1)])
    assert dirichlet_conv(f, dirichlet_inverse(f)) == delta(N)
    with pytest.raises(NotAUnitError):
        dirichlet_inverse(DirSeq([0, 1, 1]))


def test_group_laws_random():
    N = 64
    rng = random.Random(3)

    def rand_unit():
        return DirSeq([F(rng.randint(1, 9))] +
                      [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(N - 1)])

    for _ in range(5):
        f, g, h = rand_unit(), rand_unit(), rand_unit()
        assert dirichlet_conv(f, g) == dirichlet_conv(g, f)
        assert dirichlet_conv(dirichlet_conv(f, g), h) == dirichlet_conv(f, dirichlet_conv(g, h))
        assert dirichlet_conv(f, dirichlet_inverse(f)) == delta(N)


def test_bound_mismatch():
    with pytest.raises(BoundMismatchError):
        dirichlet_conv(ones(5), ones(6))


def test_gamma_ones_reduces_to_plain_conv():
    N = 40
    rng = random.Random(4)
    f = DirSeq([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(N)])
    g = DirSeq([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(N)])
    assert gamma_twisted_conv(f, g, ones(N)) == dirichlet_conv(f, g)


def test_gamma_prime_exponent_factorial():
    gam = prime_exponent_factorial(16)
    assert gam.at(12) == 2  # 2!. 1!
    assert gam.at(8) == 6   # 3!
    assert gam.at(1) == 1
    assert gam.at(16) == 24


def test_delta_is_twisted_identity():
    N = 36
    rng = random.Random(5)
    f = DirSeq([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(N)])
    gam = prime_exponent_factorial(N)
    assert gamma_twisted_conv(delta(N), f, gam) == f


def test_twisted_iso_law():
    # gamma ((f/gamma) * (g/gamma)) equals the twisted product
    N = 64
    rng = random.Random(6)
    f = DirSeq([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(N)])
    g = DirSeq([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(N)])
    gam = prime_exponent_factorial(N)
    lhs = gamma_twisted_conv(f, g, gam)
    scaled = dirichlet_conv(
        DirSeq(f.at(k) / gam.at(k) for k in range(1, N + 1)),
        DirSeq(g.at(k) / gam.at(k) for k in range(1, N + 1)),
    )
    rhs = DirSeq(gam.at(k) * scaled.at(k) for k in range(1, N + 1))
    assert lhs == rhs


def test_completely_multiplicative_closure_under_twist():
    N = 36
    gam = prime_exponent_factorial(N)
    f = power_values(N, 2)
    g = power_values(N, 3)
    h = gamma_twisted_conv(f, g, gam)
    for i in range(1, 7):
        for j in range(1, 7):
            if i * j <= N and gcd(i, j) >= 1:
                assert h.at(i * j) == h.at(i) * h.at(j)


def test_gamma_zero_rejected():
    N = 6
    bad = DirSeq([1, 0, 1, 1, 1, 1])
    with pytest.raises(NotAUnitError):
        gamma_twisted_conv(ones(N), ones(N), bad)


def test_power_values_negative_exponent():
    seq = power_values(5, -1)
    assert seq.at(4) == F(1, 4)


def test_coprime_power_sum_examples():
    assert coprime_power_sum_identity(6, 1).brute == 6
    r = coprime_power_sum_identity(6, 2)
    assert r.brute == 26 and r.agree()
    for k in range(5):
        r = coprime_power_sum_identity(1, k)
        assert r.brute == 1 and r.agree()


def test_coprime_power_sum_three_way_small_sweep():
    for n in range(1, 25):
        for k in range(0, 6):
            assert coprime_power_sum_identity(n, k).agree(), (n, k)


def test_dirseq_accessors():
    s = DirSeq([5, 6, 7])
    assert s.bound == 3
    assert s.at(1) == 5 and s.at(3) == 7
    with pytest.raises(IndexError):
        s.at(0)
    with pytest.raises(IndexError):
        s.at(4)
