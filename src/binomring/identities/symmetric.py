"""Symmetric identities: carlitz, gould12, eq13, Theorem 5 both ways, eq15-eq20."""
from __future__ import annotations

from fractions import Fraction

from ..seqcore import TruncSeq, add, binom, bullet, deviation, make_named, psi_product, scale
from ..special import bernoulli, euler1
from . import _DEFAULT_SEED, _get_int, _get_seq, _rng, _seq_mismatches, _verdict, random_rational, random_unit


def _check_carlitz(params, depth):
    m = _get_int(params, "m", 1)
    n = _get_int(params, "n", 2)
    B = _get_seq(params, "bernoulli") or bernoulli(m + n)
    if B.depth < m + n:
        raise ValueError("bernoulli override too shallow")
    lhs = Fraction(-1) ** n * sum(binom(n, i) * B[m + i] for i in range(n + 1))
    rhs = Fraction(-1) ** m * sum(binom(m, i) * B[n + i] for i in range(m + 1))
    mism = [((m, n), lhs, rhs)] if lhs != rhs else []
    return _verdict("carlitz", {"m": m, "n": n}, depth, mism)


def _check_gould12(params, depth):
    m = _get_int(params, "m", 2)
    n = _get_int(params, "n", 3)
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    if m + n > depth:
        raise ValueError("need depth >= m + n")
    rng = _rng(params)
    f = _get_seq(params, "f") or random_unit(rng, depth)
    F = _get_seq(params, "F") or bullet(make_named("I", depth), f)
    lhs = sum(binom(n, i) * f[m + i] for i in range(n + 1))
    rhs = sum(binom(m, i) * Fraction(-1) ** (m - i) * F[n + i] for i in range(m + 1))
    mism = [((m, n), lhs, rhs)] if lhs != rhs else []
    return _verdict("gould12", {"m": m, "n": n, "seed": params.get("seed", _DEFAULT_SEED)}, depth, mism)


def _check_eq13(params, depth):
    m = _get_int(params, "m", 1)
    n = _get_int(params, "n", 2)
    if m + n > depth:
        raise ValueError("need depth >= m + n")
    rng = _rng(params)
    f = _get_seq(params, "f") or random_unit(rng, depth)
    F = bullet(make_named("I", depth), f)
    lhs = psi_product(make_named("I", depth), f, m)[n]
    rhs = Fraction(-1) ** n * psi_product(make_named("nu", depth), F, n)[m]
    mism = [((m, n), lhs, rhs)] if lhs != rhs else []
    return _verdict("eq13", {"m": m, "n": n, "seed": params.get("seed", _DEFAULT_SEED)}, depth, mism)


def build_symmetric_function(evens: list[Fraction], depth: int) -> TruncSeq:
    """Extend prescribed even values to an f with I * f = nu f, via the Euler-value recursion."""
    E1 = euler1(depth)
    vals: list = [None] * (depth + 1)
    for k, v in enumerate(evens):
        if 2 * k <= depth:
            vals[2 * k] = Fraction(v)
    for k in range(depth + 1):
        if vals[k] is None and k % 2 == 1:
            kk = (k - 1) // 2
            vals[k] = -sum(binom(k, 2 * i + 1) * E1[2 * i + 1] * vals[2 * (kk - i)]
                           for i in range(kk + 1))
    return TruncSeq(vals)


def _check_thm5_forward(params, depth):
    rng = _rng(params)
    evens = [Fraction(1)] + [random_rational(rng) for _ in range(depth // 2)]
    f = build_symmetric_function(evens, depth)
    used = {"seed": params.get("seed", _DEFAULT_SEED)}

    def mism():
        dev = deviation(f)
        for k in range(depth + 1):
            if dev[k] != 0:
                yield ("deviation", k), dev[k], Fraction(0)
                return
        Iseq = make_named("I", depth)
        for m in range(depth + 1):
            for n in range(depth + 1 - m):
                lhs = Fraction(-1) ** n * psi_product(Iseq, f, m)[n]
                rhs = Fraction(-1) ** m * psi_product(Iseq, f, n)[m]
                if lhs != rhs:
                    yield (m, n), lhs, rhs
                    return

    return _verdict("thm5-forward", used, depth, mism())


def _check_thm5_converse(params, depth):
    # the m = 0 instance of the symmetric identity is exactly the deviation:
    # (-1)^n (I x_0 f)(n) - (I x_n f)(0) = nu(n) (I*f - nu f)(n), so the
    # symmetric identity at m = 0 already forces I * f = nu f.
    rng = _rng(params)
    f = _get_seq(params, "f") or random_unit(rng, depth)
    Iseq = make_named("I", depth)
    dev = deviation(f)

    def mism():
        for n in range(depth + 1):
            residual = Fraction(-1) ** n * psi_product(Iseq, f, 0)[n] - psi_product(Iseq, f, n)[0]
            expected = Fraction(-1) ** n * dev[n]
            if residual != expected:
                yield n, residual, expected

    return _verdict("thm5-converse", {"seed": params.get("seed", _DEFAULT_SEED)}, depth, mism())


def _check_eq15(params, depth):
    f = _get_seq(params, "f") or bernoulli(depth)
    E1 = _get_seq(params, "euler1") or euler1(depth)

    def mism():
        for k in range((depth - 1) // 2 + 1):
            lhs = f[2 * k + 1]
            rhs = -sum(binom(2 * k + 1, 2 * i + 1) * E1[2 * i + 1] * f[2 * (k - i)]
                       for i in range(k + 1))
            if lhs != rhs:
                yield 2 * k + 1, lhs, rhs

    return _verdict("eq15", {}, depth, mism())


def _check_eq16(params, depth):
    E1 = _get_seq(params, "euler1") or euler1(depth)
    lhs = add(bullet(make_named("nu", depth), E1), E1)
    rhs = scale(2, make_named("e", depth))
    return _verdict("eq16", {}, depth, _seq_mismatches(lhs, rhs))


def _check_eq18(params, depth):
    f = _get_seq(params, "f") or bernoulli(depth)
    B = bernoulli(depth)

    def mism():
        for k in range(1, (depth - 1) // 2 + 1):
            lhs = f[2 * k]
            rhs = -Fraction(2, 2 * k + 1) * sum(
                binom(2 * k + 1, 2 * i + 1) * B[2 * (k - i)] * f[2 * i + 1] for i in range(k + 1)
            )
            if lhs != rhs:
                yield 2 * k, lhs, rhs

    return _verdict("eq18", {}, depth, mism())


def _check_eq19(params, depth):
    rng = _rng(params)
    f = _get_seq(params, "f") or random_unit(rng, depth)
    Iseq = make_named("I", depth)
    nus = make_named("nu", depth)
    dev = deviation(f)

    def mism():
        for m in range(depth + 1):
            for n in range(depth + 1 - m):
                lhs = (Fraction(-1) ** n * psi_product(Iseq, f, m)[n]
                       - Fraction(-1) ** m * psi_product(Iseq, f, n)[m])
                rhs = psi_product(nus, dev, n)[m]
                if lhs != rhs:
                    yield (m, n), lhs, rhs
                    return

    return _verdict("eq19", {"seed": params.get("seed", _DEFAULT_SEED)}, depth, mism())


def _check_eq20(params, depth):
    E1 = euler1(depth)
    Iseq = make_named("I", depth)

    def e(j):
        return Fraction(1 if j == 0 else 0)

    def nu(j):
        return Fraction(-1) ** j

    def mism():
        for m in range(depth + 1):
            for n in range(depth + 1 - m):
                lhs = (nu(n) * psi_product(Iseq, E1, m)[n] - nu(m) * psi_product(Iseq, E1, n)[m])
                rhs = 2 * (nu(n) * e(m) - nu(m) * e(n))
                if lhs != rhs:
                    yield (m, n), lhs, rhs
                    return

    return _verdict("eq20", {}, depth, mism())
