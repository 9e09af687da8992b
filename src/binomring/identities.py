"""Registry of named identity checks over the binomial-convolution ring.

Every check evaluates both sides of one numbered identity exactly (Fraction
or RatPoly arithmetic, no tolerances) and returns a structured report with
the first failing index when the sides differ. Checks sample any free
rational parameters from a seeded generator so runs are reproducible;
explicit parameters override the sampling.

Three of the printed identities (the sigma-weighted symmetry, its Bernoulli
recovery corollary, and the c=1 family) require a correction term except in
the c=0 case; those checks verify the corrected identity, additionally
evaluate the plain printed form, and record whether the printed form held in
the report parameters. See the tuenter check for the printed c=0 case.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import factorial
from typing import Callable, Mapping, NamedTuple, Optional

from .poly import RatPoly, X
from .seqcore import (
    TruncSeq,
    add,
    binom,
    bullet,
    cauchy,
    deviation,
    make_eps,
    make_named,
    pointwise_mul,
    psi_product,
    scale,
    sub,
)
from .special import (
    bernoulli,
    bernoulli_poly,
    bernoulli_poly_at,
    euler1,
    faulhaber,
    power_sum_bruteforce,
    power_sum_poly,
    sigma_eval,
)
from .units import inverse, power_int

DEFAULT_DEPTH = 12
_DEFAULT_SEED = 20270406


class FirstFailure(NamedTuple):
    index: object
    lhs: str
    rhs: str


class IdentityReport(NamedTuple):
    name: str
    params: dict
    depth: int = DEFAULT_DEPTH
    passed: bool = True
    first_failure: Optional[FirstFailure] = None


_REGISTRY: dict[str, Callable[[Mapping, int], IdentityReport]] = {}


def register(name: str):
    def deco(fn):
        _REGISTRY[name] = fn
        return fn

    return deco


def registered_names() -> list[str]:
    return sorted(_REGISTRY)


def check(name: str, params: Mapping | None = None, depth: int = DEFAULT_DEPTH) -> IdentityReport:
    """Dispatch a named check. Unknown names raise KeyError; bad params ValueError."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown identity: {name!r}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _REGISTRY[name](dict(params or {}), depth)


def run_all(depth: int = DEFAULT_DEPTH) -> list[IdentityReport]:
    return [check(name, {}, depth) for name in registered_names()]


# ---------------------------------------------------------------------------
# helpers

def _fmt(v) -> str:
    return str(v)


def _scalar_params(used: dict) -> dict:
    out = {}
    for k, v in used.items():
        out[k] = "<sequence>" if isinstance(v, TruncSeq) else str(v)
    return out


def _verdict(name, used, depth, mismatches) -> IdentityReport:
    """Build a report from an iterable of (index, lhs, rhs) mismatches."""
    for idx, lhs, rhs in mismatches:
        return IdentityReport(name, _scalar_params(used), depth, False,
                              FirstFailure(idx, _fmt(lhs), _fmt(rhs)))
    return IdentityReport(name, _scalar_params(used), depth, True, None)


def _seq_mismatches(lhs: TruncSeq, rhs: TruncSeq):
    for k in range(min(len(lhs), len(rhs))):
        if lhs[k] != rhs[k]:
            yield k, lhs[k], rhs[k]


def _rng(params: Mapping) -> random.Random:
    return random.Random(int(params.get("seed", _DEFAULT_SEED)))


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_nonzero_rational(rng: random.Random) -> Fraction:
    while True:
        v = random_rational(rng)
        if v != 0:
            return v


def random_unit(rng: random.Random, depth: int, monic: bool = False) -> TruncSeq:
    """A random member of the unit group; monic forces f(0) = 1."""
    head = Fraction(1) if monic else random_nonzero_rational(rng)
    return TruncSeq([head] + [random_rational(rng) for _ in range(depth)])


def _get_int(params: Mapping, key: str, default: int) -> int:
    v = params.get(key, default)
    return int(v)


def _get_rat(params: Mapping, key: str, default: Fraction | None) -> Fraction | None:
    v = params.get(key, default)
    if v is None or isinstance(v, Fraction):
        return v
    return Fraction(v)


def _get_seq(params: Mapping, key: str) -> TruncSeq | None:
    v = params.get(key)
    if v is not None and not isinstance(v, TruncSeq):
        raise ValueError(f"parameter {key!r} must be a TruncSeq")
    return v


def _distinct_nonzero_triple(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    while True:
        a, b, c = (random_nonzero_rational(rng) for _ in range(3))
        if a != b:
            return a, b, c


# ---------------------------------------------------------------------------
# Bernoulli / inverse-power family

@register("eq3")
def _check_eq3(params, depth):
    B = _get_seq(params, "bernoulli") or bernoulli(depth)
    lhs = bullet(B, make_named("xi1", depth))
    return _verdict("eq3", {}, depth, _seq_mismatches(lhs, make_named("e", depth)))


@register("eq9")
def _check_eq9(params, depth):
    n = _get_int(params, "n", 2)
    if n < 1:
        raise ValueError("n must be >= 1")
    Bxn = power_int(bernoulli_poly(depth), n)

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


@register("eq9-k0-a")
def _check_eq9_k0_a(params, depth):
    nmax = _get_int(params, "n", min(depth, 8))

    def mism():
        for n in range(1, nmax + 1):
            total = RatPoly()
            for j in range(n + 1):
                poly = RatPoly((Fraction(j), Fraction(-n))) ** n
                total = total + Fraction((-1) ** (n - j), factorial(n - j) * factorial(j)) * poly
            if total != 1:
                yield n, total, RatPoly.const(1)

    return _verdict("eq9-k0-a", {"n": nmax, "mode": "polynomial"}, depth, mism())


@register("eq9-k0-b")
def _check_eq9_k0_b(params, depth):
    alpha_max = _get_int(params, "alpha", 3)
    nmax = _get_int(params, "n", min(depth, 8))
    if alpha_max < 1:
        raise ValueError("alpha must be >= 1")

    def mism():
        for alpha in range(1, alpha_max + 1):
            for n in range(alpha, nmax + 1):
                total = RatPoly()
                for j in range(n + 1):
                    poly = RatPoly((Fraction(j), Fraction(-n))) ** (n - alpha)
                    total = total + Fraction((-1) ** (n - j), factorial(n - j) * factorial(j)) * poly
                if not total.is_zero():
                    yield (alpha, n), total, RatPoly()

    return _verdict("eq9-k0-b", {"alpha": alpha_max, "n": nmax, "mode": "polynomial"}, depth, mism())


# ---------------------------------------------------------------------------
# power sums

@register("faulhaber")
def _check_faulhaber(params, depth):
    n = _get_int(params, "n", 10)
    B = _get_seq(params, "bernoulli")
    if B is None:
        computed = faulhaber(n, depth)
    else:
        # formula evaluated against an injected (possibly corrupted) Bernoulli sequence
        vals = []
        for k in range(depth + 1):
            total = Fraction(0)
            for m in range(k + 1):
                e = k + 1 - m
                total += binom(k, m) * B[m] * Fraction((n + 1) ** e - 1, e)
            vals.append(total)
        computed = TruncSeq(vals)
    oracle = TruncSeq(power_sum_bruteforce(n, k) for k in range(depth + 1))
    return _verdict("faulhaber", {"n": n}, depth, _seq_mismatches(computed, oracle))


@register("powersum-sigma-form")
def _check_powersum_sigma_form(params, depth):
    lhs = power_sum_poly(depth)
    B = bernoulli(depth + 1)
    Bx1 = bullet(B, make_eps(X + 1, depth + 1))
    # Bernoulli polynomials at 1 are the sign-twisted numbers
    B1 = pointwise_mul(make_named("nu", depth + 1), B)

    def mism():
        for k in range(depth + 1):
            rhs = (Bx1[k + 1] - B1[k + 1]) / (k + 1)
            if lhs[k] != rhs:
                yield k, lhs[k], rhs

    return _verdict("powersum-sigma-form", {"mode": "polynomial"}, depth, mism())


# ---------------------------------------------------------------------------
# symmetric identities

@register("carlitz")
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


@register("gould12")
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


@register("eq13")
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


@register("thm5-forward")
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


@register("thm5-converse")
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


@register("eq15")
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


@register("eq16")
def _check_eq16(params, depth):
    E1 = _get_seq(params, "euler1") or euler1(depth)
    lhs = add(bullet(make_named("nu", depth), E1), E1)
    rhs = scale(2, make_named("e", depth))
    return _verdict("eq16", {}, depth, _seq_mismatches(lhs, rhs))


@register("eq18")
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


@register("eq19")
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


@register("eq20")
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


# ---------------------------------------------------------------------------
# Bernoulli-polynomial symmetry family (eq21-eq24, cor9)

def _abc(params, rng) -> tuple[Fraction, Fraction, Fraction]:
    a = _get_rat(params, "a", None)
    b = _get_rat(params, "b", None)
    c = _get_rat(params, "c", None)
    if a is None or b is None or c is None:
        ra, rb, rc = _distinct_nonzero_triple(rng)
        a = ra if a is None else a
        b = rb if b is None else b
        c = rc if c is None else c
    return a, b, c


def _eps_pt(x, depth):
    return make_eps(Fraction(x), depth)


@register("eq21")
def _check_eq21(params, depth):
    rng = _rng(params)
    a, b, c = _abc(params, rng)
    Bc = bernoulli_poly_at(c, depth)
    Bac = bernoulli_poly_at(a + c, depth)
    Bbc = bernoulli_poly_at(b + c, depth)
    lhs = bullet(pointwise_mul(_eps_pt(a, depth), Bc), pointwise_mul(_eps_pt(b, depth), Bac))
    rhs = bullet(pointwise_mul(_eps_pt(b, depth), Bc), pointwise_mul(_eps_pt(a, depth), Bbc))
    return _verdict("eq21", {"a": a, "b": b, "c": c}, depth, _seq_mismatches(lhs, rhs))


def _remainder(a, b, Bc, B, K):
    """R1 - R2 at depth K, where R1 = (eps_b Bc) * (eps_a B) and R2 swaps a and b."""
    ea, eb = _eps_pt(a, K), _eps_pt(b, K)
    return sub(bullet(pointwise_mul(eb, Bc), pointwise_mul(ea, B)),
               bullet(pointwise_mul(ea, Bc), pointwise_mul(eb, B)))


def _eq22_sides(a, b, c, depth):
    """Both sigma-weighted products at depth+1, plus the antisymmetric remainder R1 - R2.

    The exact relation is  b L1(n) - a L2(n) = (R1 - R2)(n+1) / (n+1); the
    remainder vanishes identically when c = 0, which recovers the plain
    printed symmetry.
    """
    K = depth + 1
    Bc = bernoulli_poly_at(c, K)
    ea, eb = _eps_pt(a, K), _eps_pt(b, K)
    s1 = sigma_eval(a + c - 1, K)
    s2 = sigma_eval(b + c - 1, K)
    L1 = bullet(pointwise_mul(ea, Bc), pointwise_mul(eb, s1))
    L2 = bullet(pointwise_mul(eb, Bc), pointwise_mul(ea, s2))
    return L1, L2, _remainder(a, b, Bc, bernoulli(K), K)


@register("eq22")
def _check_eq22(params, depth):
    rng = _rng(params)
    a, b, c = _abc(params, rng)
    L1, L2, R = _eq22_sides(a, b, c, depth)
    printed_ok = all(b * L1[n] == a * L2[n] for n in range(depth + 1))

    def mism():
        for n in range(depth + 1):
            lhs = b * L1[n] - a * L2[n]
            rhs = R[n + 1] / (n + 1)
            if lhs != rhs:
                yield n, lhs, rhs

    used = {"a": a, "b": b, "c": c, "printed_form_holds": printed_ok}
    return _verdict("eq22", used, depth, mism())


# sigma_eval, bernoulli_poly_at and the remainder are prefix-consistent: entry i
# is the same at every depth >= i. So the eq23 and eq24 terms build each of them
# once at depth nmax + 1 and index it, rather than rebuilding it per n and i.

def _eq23_terms(a, b, c, nmax: int):
    """Yield (n, B_n(c), printed right side, corrected right side) of eq23 for n = 1..nmax."""
    K = nmax + 1
    Bc = bernoulli_poly_at(c, K)
    s1 = sigma_eval(a + c - 1, nmax)
    s2 = sigma_eval(b + c - 1, nmax)
    R = _remainder(a, b, Bc, bernoulli(K), K)
    for n in range(1, nmax + 1):
        den = b ** (n - 1) * (b + c) - a ** (n - 1) * (a + c)
        if den == 0:
            raise ValueError(f"eq23 precondition violated at n={n}: denominator is 0")
        total = sum(binom(n, i) * Bc[n - i] * (a ** (n - 1 - i) * b ** i * s1[i] - a ** i * b ** (n - 1 - i) * s2[i])
                    for i in range(1, n + 1))
        yield n, Bc[n], total / den, (total - R[n + 1] / ((n + 1) * a * b)) / den


def _eq24_terms(a, b, nmax: int):
    """Yield (n, B_n, printed right side, corrected right side) of eq24 for n = 1..nmax."""
    K = nmax + 1
    B = bernoulli(K)
    s1 = sigma_eval(a, nmax)
    s2 = sigma_eval(b, nmax)
    R = _remainder(a, b, bernoulli_poly_at(Fraction(1), K), B, K)
    for n in range(1, nmax + 1):
        den = b ** (n - 1) * (b + 1) - a ** (n - 1) * (a + 1)
        if den == 0:
            raise ValueError(f"eq24 precondition violated at n={n}")
        total = sum(binom(n, i) * B[n - i] * (-1) ** i
                    * (a ** (n - 1 - i) * b ** i * s1[i] - a ** i * b ** (n - 1 - i) * s2[i])
                    for i in range(1, n + 1))
        yield n, B[n], total / den, (total - (-1) ** n * R[n + 1] / ((n + 1) * a * b)) / den


def _get_nmax(params: Mapping, depth: int) -> int:
    nmax = _get_int(params, "n", depth)
    if nmax < 1:
        raise ValueError("n must be >= 1")
    return nmax


def _sample_eq23_triple(rng, nmax, force_c=None):
    while True:
        a, b, c = _distinct_nonzero_triple(rng)
        if force_c is not None:
            c = force_c
        ok = all(b ** (n - 1) * (b + c) - a ** (n - 1) * (a + c) != 0 for n in range(1, nmax + 1))
        if ok:
            return a, b, c


def _corrected_verdict(name, used, depth, terms):
    """Verdict on the corrected sides, recording in used whether the printed sides held too."""
    terms = list(terms)
    used["printed_form_holds"] = all(lhs == printed for _, lhs, printed, _ in terms)
    return _verdict(name, used, depth, ((n, lhs, rhs) for n, lhs, _, rhs in terms if lhs != rhs))


@register("eq23")
def _check_eq23(params, depth):
    rng = _rng(params)
    nmax = _get_nmax(params, depth)
    if all(k in params for k in ("a", "b", "c")):
        a = _get_rat(params, "a", None)
        b = _get_rat(params, "b", None)
        c = _get_rat(params, "c", None)
        for n in range(1, nmax + 1):
            if b ** (n - 1) * (b + c) - a ** (n - 1) * (a + c) == 0:
                raise ValueError(f"eq23 precondition violated at n={n}")
    else:
        a, b, c = _sample_eq23_triple(rng, nmax)
    return _corrected_verdict("eq23", {"a": a, "b": b, "c": c, "n": nmax}, depth,
                              _eq23_terms(a, b, c, nmax))


@register("tuenter")
def _check_tuenter(params, depth):
    rng = _rng(params)
    nmax = _get_nmax(params, depth)
    a = _get_rat(params, "a", None)
    b = _get_rat(params, "b", None)
    if a is None or b is None:
        a, b, _ = _sample_eq23_triple(rng, nmax, force_c=Fraction(0))
    # the printed form, which needs no correction at c = 0
    terms = _eq23_terms(a, b, Fraction(0), nmax)
    return _verdict("tuenter", {"a": a, "b": b, "n": nmax}, depth,
                    ((n, lhs, printed) for n, lhs, printed, _ in terms if lhs != printed))


@register("eq24")
def _check_eq24(params, depth):
    rng = _rng(params)
    nmax = _get_nmax(params, depth)
    a = _get_rat(params, "a", None)
    b = _get_rat(params, "b", None)
    if a is None or b is None:
        a, b, _ = _sample_eq23_triple(rng, nmax, force_c=Fraction(1))
    return _corrected_verdict("eq24", {"a": a, "b": b, "n": nmax}, depth, _eq24_terms(a, b, nmax))


@register("cor9")
def _check_cor9(params, depth):
    r = _get_int(params, "r", _get_int(params, "p", 2))
    if r < 1:
        raise ValueError("r must be >= 1")
    rng = _rng(params)
    a, b, c = _abc(params, rng)
    K = depth

    def mism():
        # first display: powered Bernoulli-polynomial symmetry, any c
        Bc = power_int(bernoulli_poly_at(c, K), r)
        Bac = power_int(bernoulli_poly_at(a + c, K), r)
        Bbc = power_int(bernoulli_poly_at(b + c, K), r)
        lhs = bullet(pointwise_mul(_eps_pt(a, K), Bc), pointwise_mul(_eps_pt(b, K), Bac))
        rhs = bullet(pointwise_mul(_eps_pt(b, K), Bc), pointwise_mul(_eps_pt(a, K), Bbc))
        for n in range(K + 1):
            if lhs[n] != rhs[n]:
                yield ("power-symmetry", n), lhs[n], rhs[n]
                return
        # second display: sigma-weighted power symmetry; exact at c = 0
        B0 = power_int(bernoulli_poly_at(Fraction(0), K), r)
        s1 = power_int(sigma_eval(a - 1, K), r)
        s2 = power_int(sigma_eval(b - 1, K), r)
        lhs2 = scale(b ** r, bullet(pointwise_mul(_eps_pt(a, K), B0), pointwise_mul(_eps_pt(b, K), s1)))
        rhs2 = scale(a ** r, bullet(pointwise_mul(_eps_pt(b, K), B0), pointwise_mul(_eps_pt(a, K), s2)))
        for n in range(K + 1):
            if lhs2[n] != rhs2[n]:
                yield ("sigma-power", n), lhs2[n], rhs2[n]
                return

    used = {"r": r, "a": a, "b": b, "c": c, "sigma_display_at": "c=0"}
    return _verdict("cor9", used, depth, mism())


# ---------------------------------------------------------------------------
# convolution-pair identities

@register("prop10")
def _check_prop10(params, depth):
    rng = _rng(params)
    f = _get_seq(params, "f") or random_unit(rng, depth)
    g2 = _get_seq(params, "g") or random_unit(rng, depth)
    Iseq = make_named("I", depth)
    F = bullet(Iseq, f)
    g1 = bullet(Iseq, g2)

    def mism():
        fwd_l, fwd_r = bullet(f, g1), bullet(F, g2)
        for k in range(depth + 1):
            if fwd_l[k] != fwd_r[k]:
                yield ("forward", k), fwd_l[k], fwd_r[k]
                return
        # converse: recover g1 from f * g1 = F * g2 and confirm it is I * g2
        recovered = bullet(inverse(f), bullet(F, g2))
        for k in range(depth + 1):
            if recovered[k] != g1[k]:
                yield ("converse", k), recovered[k], g1[k]
                return

    return _verdict("prop10", {"seed": params.get("seed", _DEFAULT_SEED)}, depth, mism())


@register("eq31")
def _check_eq31(params, depth):
    m = _get_int(params, "m", 2)
    n = _get_int(params, "n", 3)
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    rng = _rng(params)
    f = _get_seq(params, "f") or random_unit(rng, depth)
    g1 = TruncSeq(Fraction(1, (m + n + s + 1) * binom(m + n + s, m)) for s in range(depth + 1))
    g2 = TruncSeq(Fraction((-1) ** s, (m + n + s + 1) * binom(m + n + s, n)) for s in range(depth + 1))
    F = _get_seq(params, "F") or bullet(make_named("I", depth), f)

    def mism():
        pair = bullet(make_named("I", depth), g2)
        for s in range(depth + 1):
            if g1[s] != pair[s]:
                yield ("pair", s), g1[s], pair[s]
                return
        lhs, rhs = bullet(f, g1), bullet(F, g2)
        for s in range(depth + 1):
            if lhs[s] != rhs[s]:
                yield s, lhs[s], rhs[s]
                return

    return _verdict("eq31", {"m": m, "n": n, "seed": params.get("seed", _DEFAULT_SEED)}, depth, mism())


@register("eq32")
def _check_eq32(params, depth):
    rng = _rng(params)
    f = _get_seq(params, "f") or random_unit(rng, depth)
    B = bernoulli(depth)
    F = _get_seq(params, "F") or bullet(make_named("I", depth), f)
    lhs = bullet(f, pointwise_mul(make_named("nu", depth), B))
    rhs = bullet(F, B)
    return _verdict("eq32", {"seed": params.get("seed", _DEFAULT_SEED)}, depth,
                    _seq_mismatches(lhs, rhs))


@register("eq25-iso")
def _check_eq25_iso(params, depth):
    rng = _rng(params)
    f = _get_seq(params, "f") or random_unit(rng, depth)
    g = _get_seq(params, "g") or random_unit(rng, depth)
    fact = make_named("fact", depth)
    recip = TruncSeq(Fraction(1, factorial(k)) for k in range(depth + 1))

    def mism():
        lhs = pointwise_mul(fact, cauchy(f, g))
        rhs = bullet(pointwise_mul(fact, f), pointwise_mul(fact, g))
        for k in range(depth + 1):
            if lhs[k] != rhs[k]:
                yield ("forward", k), lhs[k], rhs[k]
                return
        lhs2 = pointwise_mul(fact, cauchy(pointwise_mul(recip, f), pointwise_mul(recip, g)))
        rhs2 = bullet(f, g)
        for k in range(depth + 1):
            if lhs2[k] != rhs2[k]:
                yield ("reverse", k), lhs2[k], rhs2[k]
                return

    return _verdict("eq25-iso", {"seed": params.get("seed", _DEFAULT_SEED)}, depth, mism())


@register("eq29")
def _check_eq29(params, depth):
    from .dirichlet import coprime_power_sum_identity

    n = _get_int(params, "n", 6)
    k = _get_int(params, "k", 2)
    res = coprime_power_sum_identity(n, k)
    used = {"n": n, "k": k, "value": res.brute}

    def mism():
        if res.bullet_side != res.brute:
            yield ("bullet", (n, k)), res.brute, res.bullet_side
        elif res.dirichlet_side != res.brute:
            yield ("dirichlet", (n, k)), res.brute, res.dirichlet_side

    return _verdict("eq29", used, depth, mism())
