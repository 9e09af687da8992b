"""The table- and product-based identity checks against per-index references.

Each reference below evaluates its identity the direct way: one shifted
product psi_product, or one sum, per index. A reference reads the library
functions through the family module, as the check does, so a corruption
patched into the module reaches both.
"""
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from binomring.identities import (_DEFAULT_SEED, _rng, _verdict, check, inverse_power, poly_symmetry,
                                  random_rational, random_unit, symmetric)
from binomring.poly import RatPoly
from binomring.seqcore import TruncSeq, binom, make_named, psi_product


def corrupt(seq: TruncSeq, k: int) -> TruncSeq:
    vals = list(seq.values)
    vals[k] = vals[k] + 1
    return TruncSeq(vals)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seidel_tables_are_the_shifted_products(seed):
    K = 20
    f = random_unit(_rng({"seed": seed}), K)
    (a,), den = symmetric._numerators(f)
    T, D = symmetric._seidel(a), symmetric._seidel(a, symmetric.operator.sub)
    I, nu = make_named("I", K), make_named("nu", K)
    for m in range(K + 1):
        for n in range(K + 1 - m):
            assert Fraction(T[n][m], den) == psi_product(I, f, m)[n]
            assert psi_product(nu, f, n)[m] == (-1) ** (m + n) * Fraction(D[m][n], den)


def test_seidel_table_of_polynomials():
    f = TruncSeq([RatPoly((Fraction(k), Fraction(1, k + 1))) for k in range(7)])
    (a,), den = symmetric._numerators(f)
    T = symmetric._seidel(a)
    for m in range(7):
        for n in range(7 - m):
            assert symmetric._value(T[n][m], den) == psi_product(make_named("I", 6), f, m)[n]


# ---------------------------------------------------------------------------
# per-index references

def _used(params):
    return {"seed": params.get("seed", _DEFAULT_SEED)}


def ref_eq13(params, depth):
    m, n = symmetric._mn(params, depth, 1, 2)
    f = random_unit(_rng(params), depth)
    F = symmetric.bullet(make_named("I", depth), f)
    lhs = psi_product(make_named("I", depth), f, m)[n]
    rhs = Fraction(-1) ** n * psi_product(make_named("nu", depth), F, n)[m]
    return _verdict("eq13", {"m": m, "n": n, **_used(params)}, depth, [((m, n), lhs, rhs)] if lhs != rhs else [])


def ref_thm5_forward(params, depth):
    rng = _rng(params)
    f = symmetric.build_symmetric_function([Fraction(1)] + [random_rational(rng) for _ in range(depth // 2)], depth)

    def mism():
        dev = symmetric.deviation(f)
        for k in range(depth + 1):
            if dev[k] != 0:
                yield ("deviation", k), dev[k], Fraction(0)
        I = make_named("I", depth)
        for m in range(depth + 1):
            for n in range(depth + 1 - m):
                lhs = Fraction(-1) ** n * psi_product(I, f, m)[n]
                rhs = Fraction(-1) ** m * psi_product(I, f, n)[m]
                if lhs != rhs:
                    yield (m, n), lhs, rhs

    return _verdict("thm5-forward", _used(params), depth, mism())


def ref_thm5_converse(params, depth):
    f = random_unit(_rng(params), depth)
    I = make_named("I", depth)
    dev = symmetric.deviation(f)
    mism = []
    for n in range(depth + 1):
        residual = Fraction(-1) ** n * psi_product(I, f, 0)[n] - psi_product(I, f, n)[0]
        if residual != Fraction(-1) ** n * dev[n]:
            mism.append((n, residual, Fraction(-1) ** n * dev[n]))
    return _verdict("thm5-converse", _used(params), depth, mism)


def ref_eq19(params, depth):
    f = random_unit(_rng(params), depth)
    I, nu = make_named("I", depth), make_named("nu", depth)
    dev = symmetric.deviation(f)
    mism = []
    for m in range(depth + 1):
        for n in range(depth + 1 - m):
            lhs = Fraction(-1) ** n * psi_product(I, f, m)[n] - Fraction(-1) ** m * psi_product(I, f, n)[m]
            rhs = psi_product(nu, dev, n)[m]
            if lhs != rhs:
                mism.append(((m, n), lhs, rhs))
    return _verdict("eq19", _used(params), depth, mism)


def ref_eq20(params, depth):
    E1 = symmetric.euler1(depth)
    I = make_named("I", depth)
    mism = []
    for m in range(depth + 1):
        for n in range(depth + 1 - m):
            lhs = (-1) ** n * psi_product(I, E1, m)[n] - (-1) ** m * psi_product(I, E1, n)[m]
            rhs = 2 * ((-1) ** n * (m == 0) - (-1) ** m * (n == 0))
            if lhs != rhs:
                mism.append(((m, n), lhs, Fraction(rhs)))
    return _verdict("eq20", {}, depth, mism)


def ref_eq23_terms(a, b, c, nmax):
    """The eq23 terms with the i-sum written out term by term."""
    K = nmax + 1
    Bc = poly_symmetry.bernoulli_poly_at(c, K)
    s1 = poly_symmetry.sigma_eval(a + c - 1, nmax)
    s2 = poly_symmetry.sigma_eval(b + c - 1, nmax)
    R = poly_symmetry._remainder(a, b, Bc, poly_symmetry.bernoulli(K), K)
    for n in range(1, nmax + 1):
        den = b ** (n - 1) * (b + c) - a ** (n - 1) * (a + c)
        if den == 0:
            raise ValueError(f"eq23 precondition violated at n={n}: denominator is 0")
        total = sum(binom(n, i) * Bc[n - i] * (a ** (n - 1 - i) * b ** i * s1[i] - a ** i * b ** (n - 1 - i) * s2[i])
                    for i in range(1, n + 1))
        yield n, Bc[n], total / den, (total - R[n + 1] / ((n + 1) * a * b)) / den


def ref_eq24_terms(a, b, nmax):
    """The eq24 terms with the i-sum written out term by term."""
    K = nmax + 1
    B = poly_symmetry.bernoulli(K)
    s1 = poly_symmetry.sigma_eval(a, nmax)
    s2 = poly_symmetry.sigma_eval(b, nmax)
    R = poly_symmetry._remainder(a, b, poly_symmetry.bernoulli_poly_at(Fraction(1), K), B, K)
    for n in range(1, nmax + 1):
        den = b ** (n - 1) * (b + 1) - a ** (n - 1) * (a + 1)
        if den == 0:
            raise ValueError(f"eq24 precondition violated at n={n}")
        total = sum(binom(n, i) * B[n - i] * (-1) ** i
                    * (a ** (n - 1 - i) * b ** i * s1[i] - a ** i * b ** (n - 1 - i) * s2[i])
                    for i in range(1, n + 1))
        yield n, B[n], total / den, (total - (-1) ** n * R[n + 1] / ((n + 1) * a * b)) / den


def ref_eq9(params, depth):
    n = params.get("n", 2)
    Bxn = inverse_power.power_int(inverse_power.bernoulli_poly(depth), n)

    def mism():
        for k in range(depth + 1):
            total = RatPoly()
            for m in range(k + 1):
                for j in range(n + 1):
                    poly = RatPoly((Fraction(j), Fraction(-n))) ** (m + n)
                    coeff = Fraction((-1) ** (n - j),
                                     factorial(k - m) * factorial(n - j) * factorial(m + n) * factorial(j))
                    total = total + coeff * Bxn[k - m] * poly
            total = factorial(n) * total
            expect = Fraction(1 if k == 0 else 0)
            if total != expect:
                yield k, total, expect

    return _verdict("eq9", {"n": n, "mode": "polynomial"}, depth, mism())


# name -> (reference, the symmetric-module names whose result a case may corrupt)
SYMMETRIC_CASES = {
    "eq13": (ref_eq13, [None, "bullet"]),
    "thm5-forward": (ref_thm5_forward, [None, "build_symmetric_function", "deviation", "zero-deviation"]),
    "thm5-converse": (ref_thm5_converse, [None, "deviation"]),
    "eq19": (ref_eq19, [None, "deviation"]),
    "eq20": (ref_eq20, [None, "euler1"]),
}


def _corrupt_symmetric(mp, how, k):
    """Patch one symmetric-module name so its result is off by one at k (capped at the sequence depth)."""
    if how is None:
        return
    if how == "zero-deviation":
        # deviation reads zero while f is off by one: the (m, n) scan of thm5-forward has to catch it
        mp.setattr(symmetric, "deviation", lambda f: TruncSeq([0] * len(f)))
        how = "build_symmetric_function"
    original = getattr(symmetric, how)
    mp.setattr(symmetric, how, lambda *args: (lambda s: corrupt(s, min(k, s.depth)))(original(*args)))


@pytest.mark.parametrize("name, how", [(name, how) for name, (_, hows) in SYMMETRIC_CASES.items() for how in hows])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32), depth=st.integers(0, 16), k=st.integers(0, 16))
def test_symmetric_checks_match_per_index_reference(name, how, seed, depth, k):
    with pytest.MonkeyPatch.context() as mp:
        _corrupt_symmetric(mp, how, k)
        params = {} if name == "eq20" else {"seed": seed}
        assert check(name, params, depth) == SYMMETRIC_CASES[name][0](params, depth)


@pytest.mark.parametrize("name", ["eq23", "tuenter", "eq24"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32), depth=st.integers(0, 16), k=st.integers(-1, 16))
def test_poly_symmetry_checks_match_per_index_reference(name, seed, depth, k):
    # k = -1 leaves sigma_eval alone; otherwise its entry k is off by one
    with pytest.MonkeyPatch.context() as mp:
        if k >= 0:
            original = poly_symmetry.sigma_eval
            mp.setattr(poly_symmetry, "sigma_eval", lambda y, K: corrupt(original(y, K), min(k, K)))
        report = check(name, {"seed": seed}, depth)
        mp.setattr(poly_symmetry, "_eq23_terms", ref_eq23_terms)
        mp.setattr(poly_symmetry, "_eq24_terms", ref_eq24_terms)
        assert report == check(name, {"seed": seed}, depth)


@pytest.mark.parametrize("depth", [0, 1, 4, 7])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [None, 0, 4])
def test_eq9_matches_its_triple_sum(depth, n, k, monkeypatch):
    if k is not None:
        original = inverse_power.bernoulli_poly
        monkeypatch.setattr(inverse_power, "bernoulli_poly", lambda K: corrupt(original(K), min(k, K)))
    assert check("eq9", {"n": n}, depth) == ref_eq9({"n": n}, depth)

