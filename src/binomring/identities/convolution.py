"""Convolution-pair identities: prop10, eq31, eq32, the eq25 isomorphism and eq29."""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from ..seqcore import TruncSeq, binom, bullet, cauchy, make_named, pointwise_mul
from ..special import bernoulli
from ..units import inverse
from . import _DEFAULT_SEED, _get_int, _get_seq, _rng, _seq_mismatches, _verdict, random_unit


def _check_prop10(params, depth):
    rng = _rng(params)
    f = _get_seq(params, "f") or random_unit(rng, depth)
    g2 = _get_seq(params, "g") or random_unit(rng, depth)
    Iseq = make_named("I", depth)
    F = bullet(Iseq, f)
    g1 = bullet(Iseq, g2)

    def mism():
        yield from _seq_mismatches(bullet(f, g1), bullet(F, g2), "forward")
        # converse: recover g1 from f * g1 = F * g2 and confirm it is I * g2
        yield from _seq_mismatches(bullet(inverse(f), bullet(F, g2)), g1, "converse")

    return _verdict("prop10", {"seed": params.get("seed", _DEFAULT_SEED)}, depth, mism())


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
        yield from _seq_mismatches(g1, bullet(make_named("I", depth), g2), "pair")
        yield from _seq_mismatches(bullet(f, g1), bullet(F, g2))

    return _verdict("eq31", {"m": m, "n": n, "seed": params.get("seed", _DEFAULT_SEED)}, depth, mism())


def _check_eq32(params, depth):
    rng = _rng(params)
    f = _get_seq(params, "f") or random_unit(rng, depth)
    B = bernoulli(depth)
    F = _get_seq(params, "F") or bullet(make_named("I", depth), f)
    lhs = bullet(f, pointwise_mul(make_named("nu", depth), B))
    rhs = bullet(F, B)
    return _verdict("eq32", {"seed": params.get("seed", _DEFAULT_SEED)}, depth,
                    _seq_mismatches(lhs, rhs))


def _check_eq25_iso(params, depth):
    rng = _rng(params)
    f = _get_seq(params, "f") or random_unit(rng, depth)
    g = _get_seq(params, "g") or random_unit(rng, depth)
    fact = make_named("fact", depth)
    recip = TruncSeq(Fraction(1, factorial(k)) for k in range(depth + 1))

    def mism():
        yield from _seq_mismatches(pointwise_mul(fact, cauchy(f, g)),
                                   bullet(pointwise_mul(fact, f), pointwise_mul(fact, g)), "forward")
        yield from _seq_mismatches(pointwise_mul(fact, cauchy(pointwise_mul(recip, f), pointwise_mul(recip, g))),
                                   bullet(f, g), "reverse")

    return _verdict("eq25-iso", {"seed": params.get("seed", _DEFAULT_SEED)}, depth, mism())


def _check_eq29(params, depth):
    from ..dirichlet import coprime_power_sum_identity

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
