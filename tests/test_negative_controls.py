"""Negative control for every registry check: a corrupted input must fail at a known first index.

Where a check takes a sequence override (``f``, ``F``, ``g``, ``bernoulli``,
``euler1``) the override is corrupted. Otherwise one name the check's family
module imports is replaced by a version whose result is off by one at a fixed
index, or, for the two eq9 k = 0 checks, which read no library input, RatPoly
powering itself is corrupted. A check that stops comparing, or compares
something else, fails here.
"""
import pytest

import binomring.dirichlet
from binomring.identities import (check, convolution, inverse_power, poly_symmetry, power_sums, registered_names,
                                  symmetric)
from binomring.poly import RatPoly
from binomring.seqcore import TruncSeq, bullet, make_named
from binomring.special import bernoulli, euler1

DEPTH = 12


def corrupt(seq: TruncSeq, k: int) -> TruncSeq:
    vals = list(seq.values)
    vals[k] = vals[k] + 1
    return TruncSeq(vals)


def _transformed(f):
    """I * f at DEPTH, the F that pairs with f."""
    return bullet(make_named("I", DEPTH), f)


def patch_result(module, attr, k):
    """Make module.attr return its usual sequence with entry k off by one."""
    def corrupt_input(monkeypatch):
        original = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *args: corrupt(original(*args), k))
        return {}
    return corrupt_input


def override(**seqs):
    return lambda monkeypatch: dict(seqs)


def bad_squares(monkeypatch):
    """RatPoly squares of a base with no constant term come out one too large."""
    power = RatPoly.__pow__

    def bad_pow(self, n):
        result = power(self, n)
        return result + 1 if n == 2 and self.coeff(0) == 0 else result

    monkeypatch.setattr(RatPoly, "__pow__", bad_pow)
    return {}


def bad_bullet_side(monkeypatch):
    """eq29's binomial-product route comes out one too large."""
    original = binomring.dirichlet.coprime_power_sum_identity

    def bad_identity(n, k):
        res = original(n, k)
        return res._replace(bullet_side=res.bullet_side + 1)

    monkeypatch.setattr(binomring.dirichlet, "coprime_power_sum_identity", bad_identity)
    return {}


_B = bernoulli(DEPTH)

# name -> (corrupt the input and return the check's parameters, expected first-failure index)
CORRUPTIONS = {
    "eq3": (override(bernoulli=corrupt(_B, 1)), 1),
    "eq9": (patch_result(inverse_power, "bernoulli_poly", 3), 3),
    "eq9-k0-a": (bad_squares, 2),
    "eq9-k0-b": (bad_squares, (1, 3)),
    "faulhaber": (override(bernoulli=corrupt(_B, 0)), 0),
    "powersum-sigma-form": (patch_result(power_sums, "power_sum_poly", 2), 2),
    "carlitz": (override(bernoulli=corrupt(bernoulli(3), 2)), (1, 2)),
    "gould12": (override(f=_B, F=corrupt(_transformed(_B), 4)), (2, 3)),
    "eq13": (patch_result(symmetric, "bullet", 2), (1, 2)),
    "thm5-forward": (patch_result(symmetric, "build_symmetric_function", 3), ("deviation", 3)),
    "thm5-converse": (patch_result(symmetric, "deviation", 3), 3),
    "eq15": (override(f=corrupt(_B, 5)), 5),
    "eq16": (override(euler1=corrupt(euler1(DEPTH), 3)), 3),
    "eq18": (override(f=corrupt(_B, 4)), 4),
    "eq19": (patch_result(symmetric, "deviation", 3), (0, 3)),
    "eq20": (patch_result(symmetric, "euler1", 3), (0, 3)),
    "eq21": (patch_result(poly_symmetry, "bernoulli_poly_at", 2), 3),
    "eq22": (patch_result(poly_symmetry, "sigma_eval", 2), 2),
    "eq23": (patch_result(poly_symmetry, "sigma_eval", 2), 2),
    "tuenter": (patch_result(poly_symmetry, "sigma_eval", 2), 2),
    "eq24": (patch_result(poly_symmetry, "sigma_eval", 2), 2),
    "cor9": (patch_result(poly_symmetry, "power_int", 2), ("power-symmetry", 3)),
    "prop10": (patch_result(convolution, "inverse", 2), ("converse", 2)),
    "eq31": (override(f=_B, F=corrupt(_transformed(_B), 4)), 4),
    "eq32": (override(f=_B, F=corrupt(_transformed(_B), 4)), 4),
    "eq25-iso": (patch_result(convolution, "cauchy", 2), ("forward", 2)),
    "eq29": (bad_bullet_side, ("bullet", (6, 2))),
}


def test_controls_cover_the_registry():
    assert set(CORRUPTIONS) == set(registered_names())


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_input_fails_at_known_index(name, monkeypatch):
    corrupt_input, index = CORRUPTIONS[name]
    report = check(name, corrupt_input(monkeypatch), DEPTH)
    assert report.passed is False
    assert report.first_failure.index == index
    assert report.first_failure.lhs != report.first_failure.rhs
    assert 1 <= report.checked
