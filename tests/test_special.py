"""Special-sequence generators against independent oracles."""
import random
from fractions import Fraction as F

import pytest

from binomring.dirichlet import mobius_value
from binomring.poly import RatPoly, X
from binomring.seqcore import (
    TruncSeq,
    add,
    bullet,
    make_eps,
    make_named,
    make_xi,
    pointwise_mul,
    scale,
    sub,
)
from binomring.special import (
    _appell,
    ber_inv_pow,
    bernoulli,
    bernoulli_poly,
    bernoulli_poly_at,
    euler1,
    euler_poly,
    faulhaber,
    mobius_bernoulli,
    mobius_bernoulli_numbers,
    norlund,
    poly_seq_eval,
    power_sum_bruteforce,
    power_sum_poly,
    sigma,
    sigma_eval,
)
from binomring.units import inverse, power_int


def akiyama_tanigawa(n):
    """Independent Bernoulli oracle; adjusted to the B_1 = -1/2 convention."""
    A = [F(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        A[m] = F(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
        out.append(A[0])
    out[1] = F(-1, 2)
    return out


def test_bernoulli_small():
    assert list(bernoulli(4)) == [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30)]


def test_bernoulli_vs_independent_oracle():
    oracle = akiyama_tanigawa(30)
    assert list(bernoulli(30)) == oracle


def test_bernoulli_odd_vanishing():
    B = bernoulli(21)
    assert all(B[k] == 0 for k in range(3, 22, 2))


def test_bernoulli_defining_identity():
    K = 12
    assert bullet(bernoulli(K), make_named("xi1", K)) == make_named("e", K)


def test_bernoulli_poly_entries():
    polys = bernoulli_poly(4)
    assert polys[0] == 1
    assert polys[1] == X - F(1, 2)
    assert polys[2] == X ** 2 - X + F(1, 6)
    assert poly_seq_eval(polys, 0) == bernoulli(4)


def test_bernoulli_poly_reflection():
    # B_k(1 - x) = (-1)^k B_k(x)
    polys = bernoulli_poly(10)
    for k, p in enumerate(polys):
        assert p.compose_affine(-1, 1) == F(-1) ** k * p


def test_bernoulli_poly_translation():
    # B_poly(x + y) = B_poly(x) bullet eps_y at sampled rational y
    K = 8
    polys = bernoulli_poly(K)
    rng = random.Random(2)
    for _ in range(4):
        y = F(rng.randint(-9, 9), rng.randint(1, 9))
        shifted = TruncSeq(p.compose_affine(1, y) for p in polys)
        assert shifted == bullet(polys, make_eps(F(y), K))


def test_bernoulli_family_invariants():
    numbers, polys = bernoulli(8), bernoulli_poly(8)
    assert poly_seq_eval(polys, 0) == numbers
    assert polys == bullet(numbers, make_eps(X, 8))


def test_inverse_of_bernoulli_poly_closed_form():
    # inverse(B_poly at x) equals xi_{-x+1,1} - xi_{-x,1} for x outside {0, 1}
    # (at 0 and 1 the xi_{0,m} = e convention breaks the subtraction form)
    K = 10
    for x in (F(3, 5), F(-2), F(7, 2)):
        got = inverse(bernoulli_poly_at(x, K))
        want = sub(make_xi(-x + 1, 1, K), make_xi(-x, 1, K))
        assert got == want
        assert got == bullet(make_named("xi1", K), make_eps(-x, K))


def test_ber_inv_pow_n1():
    K = 8
    seq = ber_inv_pow(1, K)
    for k in range(K + 1):
        want = (RatPoly([1, -1]) ** (k + 1) - RatPoly([0, -1]) ** (k + 1)) / (k + 1)
        assert seq[k] == want
    # value check: entry 2 at x = -1 is 7/3
    assert seq[2].evaluate(-1) == F(7, 3)


def test_ber_inv_pow_n2_closed_form():
    # the two published closed forms for the square agree for k <= 10
    seq = ber_inv_pow(2, 10)
    for k in range(11):
        lhs = seq[k]
        rhs = (RatPoly([1, -2]) ** (k + 2)
               - 2 ** (k + 1) * RatPoly([1, -1]) ** (k + 2)
               - 2 ** (k + 1) * RatPoly([0, -1]) ** (k + 2)) * F(-2, (k + 1) * (k + 2))
        assert lhs == rhs


def test_ber_inv_pow_equals_iterated_inverse():
    K = 10
    inv = inverse(bernoulli_poly(K))
    for n in (1, 2, 3, 4):
        assert ber_inv_pow(n, K) == power_int(inv, n)


def test_ber_inv_pow_reflection_and_derivative():
    for n in (1, 2, 3):
        seq = ber_inv_pow(n, 9)
        for k in range(10):
            assert seq[k].compose_affine(-1, 1) == F(-1) ** k * seq[k]
            if k >= 1:
                assert seq[k].derivative() == -n * k * seq[k - 1]


def test_euler1_values():
    assert list(euler1(5)) == [F(1), F(1, 2), F(0), F(-1, 4), F(0), F(1, 2)]


def test_euler1_defining_identity():
    from binomring.seqcore import add

    K = 10
    E1 = euler1(K)
    lhs = add(bullet(make_named("nu", K), E1), E1)
    assert lhs == TruncSeq([2] + [0] * K)


def test_euler1_pointwise_identity():
    # nu . E1 = nu E1 (convolution with nu equals pointwise product with nu)
    K = 10
    E1 = euler1(K)
    assert bullet(make_named("nu", K), E1) == pointwise_mul(make_named("nu", K), E1)


def test_euler_poly():
    polys = euler_poly(6)
    assert polys[0] == 1
    assert polys[1] == X - F(1, 2)
    assert poly_seq_eval(polys, 1) == euler1(6)


def test_sigma_family():
    sig = sigma(6)
    B = bernoulli(7)
    polys = bernoulli_poly(7)
    for n in range(7):
        # (n+1) sigma_x(n) = (B_poly(x+1) - B)(n+1)
        assert (n + 1) * sig[n] == polys[n + 1].compose_affine(1, 1) - B[n + 1]
    # integer evaluation: power sum plus the k=0 identity bump
    for x in range(0, 6):
        vals = poly_seq_eval(sig, x)
        assert vals[0] == x + 1
        for n in range(1, 7):
            assert vals[n] == power_sum_bruteforce(x, n)
    assert sig[2].evaluate(3) == 14


def test_sigma_eval_matches_family():
    y = F(5, 3)
    assert sigma_eval(y, 6) == poly_seq_eval(sigma(6), y)


def test_power_sum_poly_oracle():
    spoly = power_sum_poly(8)
    for n in range(0, 12):
        for k in range(9):
            assert spoly[k].evaluate(n) == power_sum_bruteforce(n, k)


def test_power_sum_bruteforce():
    assert power_sum_bruteforce(3, 2) == 14
    assert power_sum_bruteforce(0, 5) == 0
    assert power_sum_bruteforce(10, 1) == 55
    assert power_sum_bruteforce(7, 0) == 7


def test_faulhaber():
    assert faulhaber(3, 4)[2] == 14
    assert faulhaber(0, 6) == TruncSeq([0] * 7)
    for n in (1, 2, 5, 9):
        got = faulhaber(n, 10)
        want = TruncSeq(power_sum_bruteforce(n, k) for k in range(11))
        assert got == want


def test_faulhaber_bullet_form():
    # the same sequence as bullet(B, xi_{n+1,1}) - e
    K = 9
    for n in (0, 1, 4, 7):
        alt = sub(bullet(bernoulli(K), make_xi(n + 1, 1, K)), make_named("e", K))
        assert alt == faulhaber(n, K)


def closed_norlund(p, q, k):
    p, q = F(p), F(q)
    return {
        0: F(1),
        1: -p / (2 * q),
        2: p * (3 * p - q) / (12 * q ** 2),
        3: -p ** 2 * (p - q) / (8 * q ** 3),
        4: p * (15 * p ** 3 - 30 * p ** 2 * q + 5 * p * q ** 2 + 2 * q ** 3) / (240 * q ** 4),
    }[k]


def test_norlund_closed_forms():
    rng = random.Random(6)
    for _ in range(10):
        p, q = rng.randint(1, 9), rng.randint(1, 9)
        seq = norlund(p, q, 4)
        for k in range(5):
            assert seq[k] == closed_norlund(p, q, k)


def test_norlund_whole_powers():
    for q in (1, 2, 3):
        assert norlund(q, q, 8) == bernoulli(8)
    assert norlund(2, 1, 6) == power_int(bernoulli(6), 2)


def test_norlund_flagged_entry():
    # closed form and the exp/log oracle both give -1/150, against the
    # published table's 13/750
    assert norlund(1, 5, 2)[2] == F(-1, 150)
    assert norlund(1, 2, 2)[2] == F(1, 48)


def test_norlund_negative_p():
    seq = norlund(-1, 2, 6)
    assert bullet(seq, norlund(1, 2, 6)) == make_named("e", 6)


def test_mobius_bernoulli():
    assert mobius_bernoulli(1, 6) == bernoulli_poly(6)
    nums = mobius_bernoulli_numbers(2, 4)
    assert nums[2] == F(-1, 6)  # B_2 (mu(1) 2^1 + mu(2) 2^1)/2 form: (1/6)(1 - 2)
    # k = 0 entry sums mu(d)/d
    assert mobius_bernoulli_numbers(6, 2)[0] == F(1, 3)
    assert mobius_bernoulli_numbers(4, 2)[0] == F(1, 2)


def test_mobius_bernoulli_depth_zero_poly():
    seq = mobius_bernoulli(12, 3)
    assert all(isinstance(v, RatPoly) for v in seq)


def test_preconditions():
    with pytest.raises(ValueError):
        ber_inv_pow(0, 4)
    with pytest.raises(ValueError):
        norlund(1, 0, 4)
    with pytest.raises(ValueError):
        mobius_bernoulli(0, 4)
    with pytest.raises(ValueError):
        power_sum_bruteforce(-1, 2)


# The Appell builders against the ring products they replace.


def test_appell_matches_bullet_with_eps_x():
    rng = random.Random(7)
    for K in range(13):
        seqs = (bernoulli(K), euler1(K), make_named("e", K),
                TruncSeq(F(rng.randint(-20, 20), rng.randint(1, 30)) for _ in range(K + 1)))
        for c in seqs:
            got, want = _appell(c), bullet(c, make_eps(X, K))
            assert got == want
            assert all(isinstance(v, RatPoly) for v in got)
            assert [type(v) for v in got] == [type(v) for v in want]


def test_bernoulli_and_euler_poly_match_products():
    for K in range(13):
        assert bernoulli_poly(K) == bullet(bernoulli(K), make_eps(X, K))
        want = scale(2, bullet(make_eps(X, K), inverse(add(make_named("I", K), make_named("e", K)))))
        got = euler_poly(K)
        assert got == want
        assert all(isinstance(v, RatPoly) for v in bernoulli_poly(K)) and all(isinstance(v, RatPoly) for v in got)


def test_mobius_bernoulli_matches_compose_affine_form():
    for n in (1, 2, 4, 6, 7, 12, 30):
        for K in range(13):
            polys = bullet(bernoulli(K), make_eps(X, K))
            want = []
            for k in range(K + 1):
                total = RatPoly()
                for d in range(1, n + 1):
                    mu = mobius_value(d) if n % d == 0 else 0
                    if mu:
                        total = total + mu * F(d) ** (k - 1) * polys[k].compose_affine(F(1, d), 0)
                want.append(total)
            got = mobius_bernoulli(n, K)
            assert list(got) == want
            assert all(isinstance(v, RatPoly) for v in got)
