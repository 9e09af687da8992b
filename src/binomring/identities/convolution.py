"""Convolution-pair identities: prop10, eq31, eq32, the eq25 isomorphism and eq29."""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from ..seqcore import TruncSeq, binom, bullet, cauchy, make_named, pointwise_mul
from ..special import bernoulli
from ..units import inverse
from . import _DEFAULT_SEED, _entrywise, _rng, random_unit


def _check_prop10(params, depth):
    rng = _rng(params)
    f = params.get("f") or random_unit(rng, depth)
    g2 = params.get("g") or random_unit(rng, depth)
    Iseq = make_named("I", depth)
    F = bullet(Iseq, f)
    g1 = bullet(Iseq, g2)

    def pairs():
        yield from _entrywise(bullet(f, g1), bullet(F, g2), "forward")
        # converse: recover g1 from f * g1 = F * g2 and confirm it is I * g2
        yield from _entrywise(bullet(inverse(f), bullet(F, g2)), g1, "converse")

    return {"seed": params.get("seed", _DEFAULT_SEED)}, pairs()


def _check_eq31(params, depth):
    m, n = params.get("m", 2), params.get("n", 3)
    rng = _rng(params)
    f = params.get("f") or random_unit(rng, depth)
    g1 = TruncSeq(Fraction(1, (m + n + s + 1) * binom(m + n + s, m)) for s in range(depth + 1))
    g2 = TruncSeq(Fraction((-1) ** s, (m + n + s + 1) * binom(m + n + s, n)) for s in range(depth + 1))
    F = params.get("F") or bullet(make_named("I", depth), f)

    def pairs():
        yield from _entrywise(g1, bullet(make_named("I", depth), g2), "pair")
        yield from _entrywise(bullet(f, g1), bullet(F, g2))

    return {"m": m, "n": n, "seed": params.get("seed", _DEFAULT_SEED)}, pairs()


def _check_eq32(params, depth):
    rng = _rng(params)
    f = params.get("f") or random_unit(rng, depth)
    B = bernoulli(depth)
    F = params.get("F") or bullet(make_named("I", depth), f)
    lhs = bullet(f, pointwise_mul(make_named("nu", depth), B))
    rhs = bullet(F, B)
    return {"seed": params.get("seed", _DEFAULT_SEED)}, _entrywise(lhs, rhs)


def _check_eq25_iso(params, depth):
    rng = _rng(params)
    f = params.get("f") or random_unit(rng, depth)
    g = params.get("g") or random_unit(rng, depth)
    fact = make_named("fact", depth)
    recip = TruncSeq(Fraction(1, factorial(k)) for k in range(depth + 1))

    def pairs():
        yield from _entrywise(pointwise_mul(fact, cauchy(f, g)),
                              bullet(pointwise_mul(fact, f), pointwise_mul(fact, g)), "forward")
        yield from _entrywise(pointwise_mul(fact, cauchy(pointwise_mul(recip, f), pointwise_mul(recip, g))),
                              bullet(f, g), "reverse")

    return {"seed": params.get("seed", _DEFAULT_SEED)}, pairs()


def _check_eq29(params, depth):
    from ..dirichlet import coprime_power_sum_identity

    n, k = params.get("n", 6), params.get("k", 2)
    res = coprime_power_sum_identity(n, k)
    pairs = [(("bullet", (n, k)), res.brute, res.bullet_side), (("dirichlet", (n, k)), res.brute, res.dirichlet_side)]
    return {"n": n, "k": k, "value": res.brute}, pairs
