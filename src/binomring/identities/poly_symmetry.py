"""Bernoulli-polynomial symmetry family: eq21-eq24, tuenter and cor9."""
from __future__ import annotations

from fractions import Fraction

from ..seqcore import TruncSeq, bullet, make_eps, pointwise_mul, scale, sub
from ..special import bernoulli, bernoulli_poly_at, sigma_eval
from ..units import power_int
from . import _distinct_nonzero_triple, _get_int, _get_nmax, _get_rat, _rng, _seq_mismatches, _verdict


def _given(params, keys: str, draw) -> tuple:
    """The rationals named by keys; if any is missing, draw() samples them all and each given one overrides its part."""
    given = [_get_rat(params, key, None) for key in keys]
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
    mism = _seq_mismatches(_twisted(a, Bc, b, Bac), _twisted(b, Bc, a, Bbc))
    return _verdict("eq21", {"a": a, "b": b, "c": c}, depth, mism)


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
    return _verdict("eq22", used, depth, _seq_mismatches(sub(scale(b, L1), scale(a, L2)), rhs))


# sigma_eval, bernoulli_poly_at and the remainder are prefix-consistent: entry i
# is the same at every depth >= i. So the eq23 and eq24 terms build each of them
# once at depth nmax + 1 and index it, rather than rebuilding it per n and i.

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


def _eq23_terms(a, b, c, nmax: int):
    """Yield (n, B_n(c), printed right side, corrected right side) of eq23 for n = 1..nmax."""
    K = nmax + 1
    Bc = bernoulli_poly_at(c, K)
    s1 = sigma_eval(a + c - 1, nmax)
    s2 = sigma_eval(b + c - 1, nmax)
    R = _remainder(a, b, Bc, bernoulli(K), K)
    totals = _weighted_sums(Bc, a, b, s1, s2, 1)
    for n in range(1, nmax + 1):
        den = b ** (n - 1) * (b + c) - a ** (n - 1) * (a + c)
        if den == 0:
            raise ValueError(f"eq23 precondition violated at n={n}: denominator is 0")
        total = totals[n]
        yield n, Bc[n], total / den, (total - R[n + 1] / ((n + 1) * a * b)) / den


def _eq24_terms(a, b, nmax: int):
    """Yield (n, B_n, printed right side, corrected right side) of eq24 for n = 1..nmax."""
    K = nmax + 1
    B = bernoulli(K)
    s1 = sigma_eval(a, nmax)
    s2 = sigma_eval(b, nmax)
    R = _remainder(a, b, bernoulli_poly_at(Fraction(1), K), B, K)
    totals = _weighted_sums(B, a, b, s1, s2, -1)
    for n in range(1, nmax + 1):
        den = b ** (n - 1) * (b + 1) - a ** (n - 1) * (a + 1)
        if den == 0:
            raise ValueError(f"eq24 precondition violated at n={n}")
        total = totals[n]
        yield n, B[n], total / den, (total - (-1) ** n * R[n + 1] / ((n + 1) * a * b)) / den


def _nonzero(**values):
    """Refuse a zero a or b, which the eq23 and eq24 sides divide by."""
    for key, v in values.items():
        if v == 0:
            raise ValueError(f"{key} must be nonzero")


def _sample_eq23_triple(rng, nmax, force_c=None):
    while True:
        a, b, c = _distinct_nonzero_triple(rng)
        if force_c is not None:
            c = force_c
        if all(b ** (n - 1) * (b + c) - a ** (n - 1) * (a + c) != 0 for n in range(1, nmax + 1)):
            return a, b, c


def _corrected_verdict(name, used, depth, terms):
    """Verdict on the corrected sides, recording in used whether the printed sides held too."""
    terms = list(terms)
    used["printed_form_holds"] = all(lhs == printed for _, lhs, printed, _ in terms)
    return _verdict(name, used, depth, ((n, lhs, rhs) for n, lhs, _, rhs in terms if lhs != rhs))


def _check_eq23(params, depth):
    rng = _rng(params)
    nmax = _get_nmax(params, depth)
    a, b, c = _given(params, "abc", lambda: _sample_eq23_triple(rng, nmax))
    _nonzero(a=a, b=b)
    return _corrected_verdict("eq23", {"a": a, "b": b, "c": c, "n": nmax}, depth,
                              _eq23_terms(a, b, c, nmax))


def _check_tuenter(params, depth):
    rng = _rng(params)
    nmax = _get_nmax(params, depth)
    a, b = _given(params, "ab", lambda: _sample_eq23_triple(rng, nmax, force_c=Fraction(0))[:2])
    _nonzero(a=a, b=b)
    # the printed form, which needs no correction at c = 0
    terms = _eq23_terms(a, b, Fraction(0), nmax)
    return _verdict("tuenter", {"a": a, "b": b, "n": nmax}, depth,
                    ((n, lhs, printed) for n, lhs, printed, _ in terms if lhs != printed))


def _check_eq24(params, depth):
    rng = _rng(params)
    nmax = _get_nmax(params, depth)
    a, b = _given(params, "ab", lambda: _sample_eq23_triple(rng, nmax, force_c=Fraction(1))[:2])
    _nonzero(a=a, b=b)
    return _corrected_verdict("eq24", {"a": a, "b": b, "n": nmax}, depth, _eq24_terms(a, b, nmax))


def _check_cor9(params, depth):
    if "r" in params and "p" in params:
        raise ValueError("cor9 takes its power as r or as p, not both")
    r = _get_int(params, "r", _get_int(params, "p", 2))
    if r < 1:
        raise ValueError("r must be >= 1")
    rng = _rng(params)
    a, b, c = _given(params, "abc", lambda: _distinct_nonzero_triple(rng))
    K = depth

    def mism():
        # first display: powered Bernoulli-polynomial symmetry, any c
        Bc = power_int(bernoulli_poly_at(c, K), r)
        Bac = power_int(bernoulli_poly_at(a + c, K), r)
        Bbc = power_int(bernoulli_poly_at(b + c, K), r)
        yield from _seq_mismatches(_twisted(a, Bc, b, Bac), _twisted(b, Bc, a, Bbc), "power-symmetry")
        # second display: sigma-weighted power symmetry; exact at c = 0
        B0 = power_int(bernoulli_poly_at(Fraction(0), K), r)
        s1 = power_int(sigma_eval(a - 1, K), r)
        s2 = power_int(sigma_eval(b - 1, K), r)
        yield from _seq_mismatches(scale(b ** r, _twisted(a, B0, b, s1)), scale(a ** r, _twisted(b, B0, a, s2)),
                                   "sigma-power")

    used = {"r": r, "a": a, "b": b, "c": c, "sigma_display_at": "c=0"}
    return _verdict("cor9", used, depth, mism())
