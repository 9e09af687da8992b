"""Exact checks of benchmark results by routes independent of the call checked.

Products, inverses, roots and rational powers are checked from their
definitions (f * g, f * f^-1 = e, (f^(p/q))^q = f^p) by integer convolutions
over a common denominator, which share no code with the ring recursions.
Bernoulli values are also checked against the OEIS b-files in tests/data,
the Dirichlet side by brute divisor sums, and the polynomial families by
brute-force power sums or by closed forms for their coefficients, built from
the truncated-series algebra of ``binomring.egf``. Nothing here calls a
function that a workload times, and every comparison is exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, isqrt, lcm
from pathlib import Path

# Bernoulli numbers B_0..B_30 (numerators, denominators) and the square root
# B^(1/2), k = 0..8 (numerators, denominators).
BFILES = ("b027641.txt", "b027642.txt", "b241885.txt", "b242225.txt")


def read_bfile(path: Path) -> dict[int, int]:
    """'index value' lines of an OEIS b-file; blank lines and # comments skipped."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            idx, val = line.split()
            out[int(idx)] = int(val)
    return out


# A scaled sequence is (integer numerators, common denominator). Products of
# scaled sequences never reduce, so each check is a few integer convolutions.


def _scaled(values) -> tuple[list[int], int]:
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _mul(x, y, binomial: bool = True) -> tuple[list[int], int]:
    """Binomial (or, with binomial=False, plain) convolution, one Pascal row at a time."""
    a, b = x[0], y[0]
    out, row = [], [1]
    for n in range(len(a)):
        if n:
            row = [1] + [row[i - 1] + row[i] for i in range(1, n)] + [1]
        if binomial:
            out.append(sum(row[k] * a[k] * b[n - k] for k in range(n + 1)))
        else:
            out.append(sum(a[k] * b[n - k] for k in range(n + 1)))
    return out, x[1] * y[1]


def _pow(x, n: int) -> tuple[list[int], int]:
    """x^n for n >= 1 by repeated squaring."""
    result = None
    while n:
        if n & 1:
            result = x if result is None else _mul(result, x)
        n >>= 1
        if n:
            x = _mul(x, x)
    return result


def _same(x, y) -> bool:
    return len(x[0]) == len(y[0]) and all(a * y[1] == b * x[1] for a, b in zip(x[0], y[0]))


def _identity(n: int, c: int = 1) -> tuple[list[int], int]:
    return [c] + [0] * (n - 1), 1


def _is_power(g, f, p: int, q: int) -> bool:
    """g^q == f^p for scaled sequences g and f, with g(0) = 1 picking the root."""
    lhs = _pow(g, q)
    if p == 0:
        ok = _same(lhs, _identity(len(g[0])))
    elif p > 0:
        ok = _same(lhs, _pow(f, p))
    else:
        ok = _same(_mul(lhs, _pow(f, -p)), _identity(len(g[0])))
    return ok and g[0][0] == g[1]


def _xi1(depth: int) -> tuple[list[int], int]:
    """xi1(k) = 1/(k+1), the inverse of the Bernoulli numbers, scaled."""
    return _scaled([Fraction(1, k + 1) for k in range(depth + 1)])


def _strip(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _coeffs(v) -> tuple:
    """Coefficients of a polynomial value; a rational value is a constant polynomial."""
    return tuple(v.coeffs) if hasattr(v, "coeffs") else _strip((v,))


def _horner(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divisors(k: int) -> list[int]:
    small = [d for d in range(1, isqrt(k) + 1) if k % d == 0]
    return small + [k // d for d in reversed(small) if d * d != k]


def _mobius(d: int) -> int:
    """Moebius function by trial division."""
    sign, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if d > 1 else sign


def _power_sum(n: int, k: int) -> int:
    return sum(i ** k for i in range(1, n + 1))


class Oracles:
    """Checks bound to one import of ``binomring.egf`` and the checkout's b-files.

    Each check takes the inputs of a request followed by its output and
    returns True only when the output equals the independently computed value.
    """

    def __init__(self, egf, data_dir: Path):
        self.egf = egf
        num, den, half_num, half_den = (read_bfile(data_dir / name) for name in BFILES)
        self.bernoulli_bfile = {k: Fraction(num[k], den[k]) for k in num}
        self.half_bfile = {k: Fraction(half_num[k], half_den[k]) for k in half_num}
        self._bern_egf: dict[int, list] = {}

    # -- helpers shared by several checks --------------------------------

    def bern_egf(self, depth: int) -> list:
        """EGF of the Bernoulli numbers, t/(e^t - 1), as the reciprocal of sum t^k/(k+1)!."""
        if depth not in self._bern_egf:
            self._bern_egf[depth] = self.egf.series_recip(
                [Fraction(1, factorial(k + 1)) for k in range(depth + 1)])
        return self._bern_egf[depth]

    def bernoulli_numbers(self, depth: int) -> list:
        return [c * factorial(k) for k, c in enumerate(self.bern_egf(depth))]

    def _bfile_prefix(self, table: dict, values) -> bool:
        return all(values[k] == table[k] for k in range(min(len(values), len(table))))

    # -- binomial-ring kernels --------------------------------------------

    def bullet(self, f, g, out) -> bool:
        return _same(_scaled(out.values), _mul(_scaled(f.values), _scaled(g.values)))

    def cauchy(self, f, g, out) -> bool:
        return _same(_scaled(out.values), _mul(_scaled(f.values), _scaled(g.values), binomial=False))

    def inverse(self, f, out) -> bool:
        """f * out is the identity e."""
        return _same(_mul(_scaled(f.values), _scaled(out.values)), _identity(len(f)))

    def power(self, f, p: int, q: int, out) -> bool:
        """out = f^(p/q) for f(0) = 1: out^q == f^p and out(0) = 1."""
        if f.values[0] != 1:
            raise ValueError("power oracle needs f(0) = 1")
        return len(out) == len(f) and _is_power(_scaled(out.values), _scaled(f.values), p, q)

    def bernoulli(self, depth: int, out) -> bool:
        """B * xi1 = e with xi1(k) = 1/(k+1), and B agrees with the b-files."""
        return (len(out) == depth + 1 and _same(_mul(_scaled(out.values), _xi1(depth)), _identity(depth + 1))
                and self._bfile_prefix(self.bernoulli_bfile, out.values))

    def euler1(self, depth: int, out) -> bool:
        """euler1 * (e + nu) = 2e."""
        e_plus_nu = ([2] + [(-1) ** k for k in range(1, depth + 1)], 1)
        return len(out) == depth + 1 and _same(_mul(_scaled(out.values), e_plus_nu), _identity(depth + 1, 2))

    def norlund(self, p: int, q: int, depth: int, out) -> bool:
        """out = B^(p/q) with B = xi1^(-1): out^q == xi1^(-p) and out(0) = 1."""
        ok = len(out) == depth + 1 and _is_power(_scaled(out.values), _xi1(depth), -p, q)
        if (p, q) == (1, 2):
            ok = ok and self._bfile_prefix(self.half_bfile, out.values)
        return ok

    # -- Dirichlet side, by brute divisor sums ----------------------------

    def dirichlet_conv(self, f, g, out) -> bool:
        fv, gv = f.values, g.values
        return list(out.values) == [sum(fv[d - 1] * gv[k // d - 1] for d in _divisors(k))
                                    for k in range(1, len(fv) + 1)]

    def dirichlet_inverse(self, f, out) -> bool:
        fv, gv = f.values, out.values
        return len(gv) == len(fv) and all(
            sum(fv[d - 1] * gv[k // d - 1] for d in _divisors(k)) == (1 if k == 1 else 0)
            for k in range(1, len(fv) + 1))

    def twisted_conv(self, f, g, gamma, out) -> bool:
        fv, gv, w = f.values, g.values, gamma.values
        return list(out.values) == [
            sum(w[k - 1] / (w[d - 1] * w[k // d - 1]) * fv[d - 1] * gv[k // d - 1] for d in _divisors(k))
            for k in range(1, len(fv) + 1)]

    # -- polynomial families, by closed forms for their coefficients -------

    def _coeff_table(self, out, depth: int, coeff) -> bool:
        """Entry k of ``out`` has coefficients coeff(k, j) for j = 0..k."""
        return len(out) == depth + 1 and all(
            _coeffs(v) == _strip(coeff(k, j) for j in range(k + 1)) for k, v in enumerate(out.values))

    def bernoulli_poly(self, depth: int, out) -> bool:
        B = self.bernoulli_numbers(depth)
        return self._coeff_table(out, depth, lambda k, j: comb(k, j) * B[k - j])

    def euler_poly(self, depth: int, out) -> bool:
        # E_k(x) = sum_j C(k,j) eps(k-j) x^j with eps the coefficients of 2/(e^t + 1)
        base = [Fraction(2)] + [Fraction(1, factorial(k)) for k in range(1, depth + 1)]
        eps = [2 * c * factorial(k) for k, c in enumerate(self.egf.series_recip(base))]
        return self._coeff_table(out, depth, lambda k, j: comb(k, j) * eps[k - j])

    def mobius_bernoulli(self, n: int, depth: int, out) -> bool:
        B = self.bernoulli_numbers(depth)
        mus = [(d, _mobius(d)) for d in _divisors(n)]

        def coeff(k, j):
            return comb(k, j) * B[k - j] * sum(mu * Fraction(d) ** (k - 1 - j) for d, mu in mus if mu)

        return self._coeff_table(out, depth, coeff)

    def bern_inv_power(self, n: int, depth: int, out) -> bool:
        """Entry k of inverse(bernoulli_poly)^n: the EGF is ((e^t - 1)/t)^n e^(-n x t)."""
        base = [Fraction(1, factorial(k + 1)) for k in range(depth + 1)]
        if n < 0:
            base = self.egf.series_recip(base)
        power = base
        for _ in range(abs(n) - 1):
            power = self.egf.series_mul(power, base)
        P = [c * factorial(k) for k, c in enumerate(power)]
        return self._coeff_table(out, depth, lambda k, j: comb(k, j) * P[k - j] * (-n) ** j)

    def _power_sums(self, depth: int, out, at_zero) -> bool:
        """Entry k is the degree <= k+1 polynomial whose value at N = 0..k+1 is sum i^k, i <= N."""
        for k, v in enumerate(out.values):
            coeffs = _coeffs(v)
            if len(coeffs) > k + 2:
                return False
            for N in range(k + 2):
                want = at_zero(N) if k == 0 else _power_sum(N, k)
                if _horner(coeffs, N) != want:
                    return False
        return len(out) == depth + 1

    def power_sum_poly(self, depth: int, out) -> bool:
        return self._power_sums(depth, out, lambda N: N)

    def sigma(self, depth: int, out) -> bool:
        # sigma_N(0) = e(0) + N; a sigma family object carries its sequence in .entries
        return self._power_sums(depth, getattr(out, "entries", out), lambda N: N + 1)

    # -- the published root table ----------------------------------------

    def root_table_rows(self, stdout: str, depth: int = 8) -> bool:
        """table1 output: one row per (m, k), m = 2..5, whose computed column is B^(1/m)(k)."""
        lines = stdout.splitlines()
        rows = lines[1:-1]
        if len(rows) != 4 * (depth + 1) or not lines[-1].startswith("rows m in [2, 3, 4, 5];"):
            return False
        roots = {m: [c * factorial(k) for k, c in enumerate(self.egf.series_pow_rat(self.bern_egf(depth), 1, m))]
                 for m in range(2, 6)}
        for row in rows:
            mk, computed, _published, status = row.split()
            m, k = (int(t) for t in mk.split(","))
            if Fraction(computed) != roots[m][k] or status not in ("ok", "DIFF"):
                return False
        return True
