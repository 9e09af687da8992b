"""Bernoulli-polynomial symmetry family: eq21-eq24, tuenter and cor9."""
from __future__ import annotations

from fractions import Fraction

from ..seqcore import TruncSeq, bullet, make_eps, pointwise_mul, scale, sub
from ..special import bernoulli, bernoulli_poly_at, sigma_eval
from ..units import power_int
from . import _distinct_nonzero_triple, _entrywise, _rng


def _given(params, keys: str, draw) -> tuple:
    """The rationals named by keys; if any is missing, draw() samples them all and each given one overrides its part."""
    given = [params.get(key) for key in keys]
    if None in given:
        given = [s if v is None else v for v, s in zip(given, draw())]
    return tuple(given)


def _twisted(x, f, y, g):
    """(eps_x f) * (eps_y g): the product on each side of the Bernoulli-polynomial symmetries."""
    return bullet(pointwise_mul(make_eps(Fraction(x), f.depth), f), pointwise_mul(make_eps(Fraction(y), g.depth), g))


def _check_eq21(params, depth):
    rng = _rng(params)
    a, b, c = _given(params, "abc", lambda: _distinct_nonzero_triple(rng))
    Bc = bernoulli_poly_at(c, depth)
    Bac = bernoulli_poly_at(a + c, depth)
    Bbc = bernoulli_poly_at(b + c, depth)
    return {"a": a, "b": b, "c": c}, _entrywise(_twisted(a, Bc, b, Bac), _twisted(b, Bc, a, Bbc))


def _remainder(a, b, Bc, B, K):
    """R1 - R2 at depth K, where R1 = (eps_b Bc) * (eps_a B) and R2 swaps a and b."""
    return sub(_twisted(b, Bc, a, B), _twisted(a, Bc, b, B))


def _eq22_sides(a, b, c, depth):
    """Both sigma-weighted products at depth+1, plus the antisymmetric remainder R1 - R2.

    The exact relation is  b L1(n) - a L2(n) = (R1 - R2)(n+1) / (n+1); the
    remainder vanishes identically when c = 0, which recovers the plain
    printed symmetry.
    """
    K = depth + 1
    Bc = bernoulli_poly_at(c, K)
    L1 = _twisted(a, Bc, b, sigma_eval(a + c - 1, K))
    L2 = _twisted(b, Bc, a, sigma_eval(b + c - 1, K))
    return L1, L2, _remainder(a, b, Bc, bernoulli(K), K)


def _check_eq22(params, depth):
    rng = _rng(params)
    a, b, c = _given(params, "abc", lambda: _distinct_nonzero_triple(rng))
    L1, L2, R = _eq22_sides(a, b, c, depth)
    printed_ok = all(b * L1[n] == a * L2[n] for n in range(depth + 1))
    rhs = TruncSeq(R[n + 1] / (n + 1) for n in range(depth + 1))
    used = {"a": a, "b": b, "c": c, "printed_form_holds": printed_ok}
    return used, _entrywise(sub(scale(b, L1), scale(a, L2)), rhs)


# sigma_eval, bernoulli_poly_at and the remainder are prefix-consistent: entry i
# is the same at every depth >= i. So the eq23 terms build each of them once at
# depth nmax + 1 and index it, rather than rebuilding it per n and i.

def _weighted_sums(Bc, a, b, s1, s2, sign) -> list:
    """Entry n: sum_{i=1}^{n} C(n,i) Bc(n-i) sign^i (a^(n-1-i) b^i s1(i) - a^i b^(n-1-i) s2(i)), n <= s1.depth.

    Pointwise multiplication by eps_x is a ring endomorphism of the binomial
    product, so the sum is a^(n-1) (Bc * eps_{sign b/a} s1)(n) minus
    b^(n-1) (Bc * eps_{sign a/b} s2)(n), less the two i = 0 terms.
    """
    nmax = s1.depth
    B = TruncSeq(Bc[:nmax + 1])
    p1 = bullet(B, pointwise_mul(make_eps(Fraction(sign * b, a), nmax), s1))
    p2 = bullet(B, pointwise_mul(make_eps(Fraction(sign * a, b), nmax), s2))
    return [a ** (n - 1) * (p1[n] - B[n] * s1[0]) - b ** (n - 1) * (p2[n] - B[n] * s2[0]) for n in range(nmax + 1)]


def _eq23_terms(a, b, c, nmax: int, violated="eq23 precondition violated at n={}: denominator is 0"):
    """Yield (n, B_n(c), printed right side, corrected right side) of eq23 for n = 1..nmax; 0 = den raises."""
    K = nmax + 1
    Bc = bernoulli_poly_at(c, K)
    s1 = sigma_eval(a + c - 1, nmax)
    s2 = sigma_eval(b + c - 1, nmax)
    R = _remainder(a, b, Bc, bernoulli(K), K)
    totals = _weighted_sums(Bc, a, b, s1, s2, 1)
    for n in range(1, nmax + 1):
        den = b ** (n - 1) * (b + c) - a ** (n - 1) * (a + c)
        if den == 0:
            raise ValueError(violated.format(n))
        total = totals[n]
        yield n, Bc[n], total / den, (total - R[n + 1] / ((n + 1) * a * b)) / den


def _sample_eq23_triple(rng, nmax, force_c=None):
    while True:
        a, b, c = _distinct_nonzero_triple(rng)
        if force_c is not None:
            c = force_c
        if all(b ** (n - 1) * (b + c) - a ** (n - 1) * (a + c) != 0 for n in range(1, nmax + 1)):
            return a, b, c


def _corrected(used, terms):
    """The corrected sides of every term, recording in used whether the printed sides held too."""
    terms = list(terms)
    used["printed_form_holds"] = all(lhs == printed for _, lhs, printed, _ in terms)
    return used, [(n, lhs, rhs) for n, lhs, _, rhs in terms]


def _check_eq23(params, depth):
    rng = _rng(params)
    nmax = params.get("n", max(depth, 1))
    a, b, c = _given(params, "abc", lambda: _sample_eq23_triple(rng, nmax))
    return _corrected({"a": a, "b": b, "c": c, "n": nmax}, _eq23_terms(a, b, c, nmax))


def _check_tuenter(params, depth):
    rng = _rng(params)
    nmax = params.get("n", max(depth, 1))
    a, b = _given(params, "ab", lambda: _sample_eq23_triple(rng, nmax, force_c=Fraction(0))[:2])
    # the printed form, which needs no correction at c = 0
    terms = _eq23_terms(a, b, Fraction(0), nmax)
    return {"a": a, "b": b, "n": nmax}, ((n, lhs, printed) for n, lhs, printed, _ in terms)


def _check_eq24(params, depth):
    rng = _rng(params)
    nmax = params.get("n", max(depth, 1))
    a, b = _given(params, "ab", lambda: _sample_eq23_triple(rng, nmax, force_c=Fraction(1))[:2])
    # B_n(1) = (-1)^n B_n, so the terms of eq24 are those of eq23 at c = 1, each times (-1)^n
    terms = _eq23_terms(a, b, Fraction(1), nmax, "eq24 precondition violated at n={}")
    return _corrected({"a": a, "b": b, "n": nmax}, ((n, *((-1) ** n * v for v in sides)) for n, *sides in terms))


def _check_cor9(params, depth):
    if "r" in params and "p" in params:
        raise ValueError("cor9 takes its power as r or as p, not both")
    r = params.get("r", params.get("p", 2))
    rng = _rng(params)
    a, b, c = _given(params, "abc", lambda: _distinct_nonzero_triple(rng))
    K = depth

    def pairs():
        # first display: powered Bernoulli-polynomial symmetry, any c
        Bc = power_int(bernoulli_poly_at(c, K), r)
        Bac = power_int(bernoulli_poly_at(a + c, K), r)
        Bbc = power_int(bernoulli_poly_at(b + c, K), r)
        yield from _entrywise(_twisted(a, Bc, b, Bac), _twisted(b, Bc, a, Bbc), "power-symmetry")
        # second display: sigma-weighted power symmetry; exact at c = 0
        B0 = power_int(bernoulli_poly_at(Fraction(0), K), r)
        s1 = power_int(sigma_eval(a - 1, K), r)
        s2 = power_int(sigma_eval(b - 1, K), r)
        yield from _entrywise(scale(b ** r, _twisted(a, B0, b, s1)), scale(a ** r, _twisted(b, B0, a, s2)),
                              "sigma-power")

    return {"r": r, "a": a, "b": b, "c": c, "sigma_display_at": "c=0"}, pairs()
