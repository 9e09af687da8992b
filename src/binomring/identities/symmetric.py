"""Symmetric identities: carlitz, gould12, eq13, Theorem 5 both ways, eq15-eq20.

The shifted products these identities are stated in, (I x_m f)(n) =
sum_i C(n,i) f(m+i), form the Euler-Seidel table of f (Seidel 1877; Dumont,
"Matrices d'Euler-Seidel", Sem. Lothar. Combin. B05c, 1981): each entry is
the sum of the entry above it and the one above and to the right, so the
whole table for m + n <= K costs O(K^2) integer additions over one common
denominator instead of one O(K^2) product per (m, n). With a minus sign the
same recurrence gives the finite-difference table, which is the nu-product
(nu x_n g)(m) up to the sign (-1)^(m+n). eq13, Theorem 5 both ways, eq19 and
eq20 read both sides of every (m, n) from these tables and hand them to
``check`` in the order m = 0, 1, .. outer and n = 0, 1, .. inner, as integer
numerators with their common denominator, so a Fraction is built only for a
mismatch.
"""
from __future__ import annotations

import operator
from fractions import Fraction

from ..seqcore import TruncSeq, _over_common, _rational, add, binom, bullet, deviation, make_named, scale
from ..special import bernoulli, euler1
from . import _DEFAULT_SEED, _entrywise, _rng, random_rational, random_unit


def _seidel(values, op=operator.add) -> list[list]:
    """Euler-Seidel table: row n, entry m is sum_i C(n,i) s^i values[m+i], s = 1 for add and -1 for sub.

    Row n is op(row n-1 at m, row n-1 at m+1), so row n has len(values) - n entries.
    """
    rows = [list(values)]
    for _ in range(1, len(values)):
        prev = rows[-1]
        rows.append(list(map(op, prev, prev[1:])))
    return rows


def _numerators(*seqs) -> tuple[list[list], int]:
    """The entries of equally deep seqs over one denominator: integer numerators when all are Fractions.

    Other ring values come back as they are, over 1.
    """
    values = [v for s in seqs for v in s]
    nums, den = _over_common(values) if _rational(values) else (values, 1)
    size = len(seqs[0])
    return [nums[i:i + size] for i in range(0, len(nums), size)], den


def _signs(depth) -> list[int]:
    """(-1)^k for k = 0..depth, looked up per (m, n) pair rather than raised to a power."""
    return [(-1) ** k for k in range(depth + 1)]


def _mn(params, depth, m_default, n_default) -> tuple[int, int]:
    """m and n for a single (m, n) check; a default shrinks, never below 0, until m + n <= depth."""
    m = params.get("m", m_default)
    n = params.get("n", max(0, min(n_default, depth - m)))
    m = params.get("m", max(0, min(m, depth - n)))
    if m + n > depth:
        raise ValueError("need depth >= m + n")
    return m, n


def _check_carlitz(params, depth):
    m, n = params.get("m", 1), params.get("n", 2)
    B = params.get("bernoulli") or bernoulli(m + n)
    if B.depth < m + n:
        raise ValueError("bernoulli override too shallow")
    lhs = Fraction(-1) ** n * sum(binom(n, i) * B[m + i] for i in range(n + 1))
    rhs = Fraction(-1) ** m * sum(binom(m, i) * B[n + i] for i in range(m + 1))
    return {"m": m, "n": n}, [((m, n), lhs, rhs)]


def _check_gould12(params, depth):
    m, n = _mn(params, depth, 2, 3)
    rng = _rng(params)
    f = params.get("f") or random_unit(rng, depth)
    F = params.get("F") or bullet(make_named("I", depth), f)
    lhs = sum(binom(n, i) * f[m + i] for i in range(n + 1))
    rhs = sum(binom(m, i) * Fraction(-1) ** (m - i) * F[n + i] for i in range(m + 1))
    return {"m": m, "n": n, "seed": params.get("seed", _DEFAULT_SEED)}, [((m, n), lhs, rhs)]


def _check_eq13(params, depth):
    # (I x_m f)(n) = (-1)^n (nu x_n F)(m) with F = I * f
    m, n = _mn(params, depth, 1, 2)
    f = params.get("f") or random_unit(_rng(params), depth)
    F = bullet(make_named("I", depth), f)
    (a, b), den = _numerators(f, F)
    lhs = _seidel(a[:m + n + 1])[n][m]
    rhs = (-1) ** m * _seidel(b[:m + n + 1], operator.sub)[m][n]
    return {"m": m, "n": n, "seed": params.get("seed", _DEFAULT_SEED)}, [((m, n), lhs, rhs)], den


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
    (a, d), den = _numerators(f, deviation(f))

    def pairs():
        yield from ((("deviation", k), v, 0) for k, v in enumerate(d))
        T, sign = _seidel(a), _signs(depth)
        # (-1)^n (I x_m f)(n) against (-1)^m (I x_n f)(m)
        for m in range(depth + 1):
            for n in range(depth + 1 - m):
                yield (m, n), sign[n] * T[n][m], sign[m] * T[m][n]

    return {"seed": params.get("seed", _DEFAULT_SEED)}, pairs(), den


def _check_thm5_converse(params, depth):
    # the m = 0 instance of the symmetric identity is exactly the deviation:
    # (-1)^n (I x_0 f)(n) - (I x_n f)(0) = nu(n) (I*f - nu f)(n), so the
    # symmetric identity at m = 0 already forces I * f = nu f.
    f = params.get("f") or random_unit(_rng(params), depth)
    (a, d), den = _numerators(f, deviation(f))
    T = _seidel(a)
    pairs = ((n, (-1) ** n * T[n][0] - T[0][n], (-1) ** n * d[n]) for n in range(depth + 1))
    return {"seed": params.get("seed", _DEFAULT_SEED)}, pairs, den


def _parity(f: TruncSeq, r: int, depth: int) -> TruncSeq:
    """f(0..depth) on the indices k = r mod 2, zero elsewhere."""
    return TruncSeq(f[k] if k % 2 == r else 0 for k in range(depth + 1))


def _check_eq15(params, depth):
    # f(2k+1) = -sum_i C(2k+1, 2i+1) E1(2i+1) f(2k-2i), the odd entries of -(E1 odd) * (f even)
    f = params.get("f") or bernoulli(depth)
    E1 = params.get("euler1") or euler1(depth)
    rhs = bullet(_parity(E1, 1, depth), _parity(f, 0, depth))
    return {}, ((k, f[k], -rhs[k]) for k in range(1, depth + 1, 2))


def _check_eq16(params, depth):
    E1 = params.get("euler1") or euler1(depth)
    lhs = add(bullet(make_named("nu", depth), E1), E1)
    rhs = scale(2, make_named("e", depth))
    return {}, _entrywise(lhs, rhs)


def _check_eq18(params, depth):
    # f(2k) = -2/(2k+1) sum_i C(2k+1, 2i+1) B(2k-2i) f(2i+1), from entry 2k+1 of (B even) * (f odd)
    f = params.get("f") or bernoulli(depth)
    P = bullet(_parity(bernoulli(depth), 0, depth), _parity(f, 1, depth))
    return {}, ((k, f[k], -Fraction(2, k + 1) * P[k + 1]) for k in range(2, depth, 2))


def _check_eq19(params, depth):
    # (-1)^n (I x_m f)(n) - (-1)^m (I x_n f)(m) = (nu x_n dev)(m), dev = I * f - nu f
    f = params.get("f") or random_unit(_rng(params), depth)
    (a, d), den = _numerators(f, deviation(f))
    T, D, sign = _seidel(a), _seidel(d, operator.sub), _signs(depth)
    pairs = (((m, n), sign[n] * T[n][m] - sign[m] * T[m][n], sign[m + n] * D[m][n])
             for m in range(depth + 1) for n in range(depth + 1 - m))
    return {"seed": params.get("seed", _DEFAULT_SEED)}, pairs, den


def _check_eq20(params, depth):
    # nu(n) (I x_m E1)(n) - nu(m) (I x_n E1)(m) = 2 (nu(n) e(m) - nu(m) e(n))
    (a,), den = _numerators(euler1(depth))
    T, sign = _seidel(a), _signs(depth)
    pairs = (((m, n), sign[n] * T[n][m] - sign[m] * T[m][n], 2 * den * (sign[n] * (m == 0) - sign[m] * (n == 0)))
             for m in range(depth + 1) for n in range(depth + 1 - m))
    return {}, pairs, den
