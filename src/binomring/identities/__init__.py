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

The checks live in five family modules: ``inverse_power`` (eq3, eq9),
``power_sums``, ``symmetric`` (carlitz .. eq20), ``poly_symmetry`` (eq21 ..
eq24, tuenter, cor9) and ``convolution`` (prop10, eq25-iso, eq29, eq31,
eq32). This package holds the report types, the shared helpers and one
static table, ``_TABLE``, which declares once what each name's check reads:
``depth`` when the values it compares depend on the depth (all but carlitz
and eq29), as ``depth>=B`` when it compares nothing below depth B, then each
parameter with its rule, such as ``n>=1`` or ``a!=0``. A parameter is a
rational (a, b, c), a TruncSeq (the sequence overrides) or else an int.
``check`` is the one validator: it refuses an unknown name, a depth below
the check's floor or a parameter the check does not read, converts each
value to its kind (a float, or a non-integral int, is refused) and refuses
one that breaks its rule, or a sequence whose depth is not the depth of a
check that reads it.
Only then does it import the family module and call ``_check_<name>``
(dashes become underscores) there, which reads ``params.get(key, default)``;
a process that runs a single check loads only that family.

Each ``_check_<name>`` returns the parameters it reports and a lazy iterable
of every (index, lhs, rhs) it compares, plus their common denominator when
lhs and rhs are integer numerators. ``check`` is the one place that
compares: it stops at the first pair that differs (later pairs are never
built), builds Fractions only for that pair, counts the pairs compared in
the report's ``checked`` (the failing one included; the verify JSON does not
carry it) and raises ValueError if a run compared nothing.

The checks use the ring operations rather than one product per index. The
``symmetric`` family reads every shifted product (I x_m f)(n) from one
Euler-Seidel table of f, O(K^2) integer additions, and hands over the pairs
with m outer, n inner; ``poly_symmetry`` writes the eq23 and eq24 sums as
two binomial products; ``inverse_power`` checks eq9 as one product.
``run_all`` runs every name whose depth floor the depth meets (eq15 needs 1,
eq18 3), and passes at every depth: gould12's and eq13's default m and n
shrink to fit m + n <= depth, and a default n of a 1..n range is at least 1.
"""
from __future__ import annotations

import random
from fractions import Fraction
from importlib import import_module
from typing import Callable, Mapping, NamedTuple, Optional

from ..errors import DepthMismatchError
from ..seqcore import TruncSeq, _value

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
    checked: int = 0


# name -> (family module, what its check reads): "depth" when the values it compares depend on the depth
# ("depth>=BOUND" when it compares nothing below BOUND), then each parameter, as KEY, KEY>=BOUND for an int
# with a lower bound or KEY!=0 for a nonzero rational
_TABLE = {
    "eq3": ("inverse_power", "depth bernoulli"),
    "eq9": ("inverse_power", "depth n>=1"),
    "eq9-k0-a": ("inverse_power", "depth n>=1"),
    "eq9-k0-b": ("inverse_power", "depth alpha>=1 n>=1"),
    "faulhaber": ("power_sums", "depth n>=0 bernoulli"),
    "powersum-sigma-form": ("power_sums", "depth"),
    "carlitz": ("symmetric", "m>=0 n>=0 bernoulli"),
    "gould12": ("symmetric", "depth m>=0 n>=0 seed f F"),
    "eq13": ("symmetric", "depth m>=0 n>=0 seed f"),
    "thm5-forward": ("symmetric", "depth seed"),
    "thm5-converse": ("symmetric", "depth seed f"),
    "eq15": ("symmetric", "depth>=1 f euler1"),
    "eq16": ("symmetric", "depth euler1"),
    "eq18": ("symmetric", "depth>=3 f"),
    "eq19": ("symmetric", "depth seed f"),
    "eq20": ("symmetric", "depth"),
    "eq21": ("poly_symmetry", "depth a b c seed"),
    "eq22": ("poly_symmetry", "depth a b c seed"),
    "eq23": ("poly_symmetry", "depth n>=1 a!=0 b!=0 c seed"),
    "tuenter": ("poly_symmetry", "depth n>=1 a!=0 b!=0 seed"),
    "eq24": ("poly_symmetry", "depth n>=1 a!=0 b!=0 seed"),
    "cor9": ("poly_symmetry", "depth r>=1 p>=1 a b c seed"),
    "prop10": ("convolution", "depth seed f g"),
    "eq31": ("convolution", "depth m>=0 n>=0 seed f F"),
    "eq32": ("convolution", "depth seed f F"),
    "eq25-iso": ("convolution", "depth seed f g"),
    "eq29": ("convolution", "n>=1 k>=0"),
}

# the kind of each parameter that is not an int
_KINDS = {**dict.fromkeys("abc", Fraction), **dict.fromkeys(("bernoulli", "euler1", "f", "F", "g"), TruncSeq)}


def registered_names() -> list[str]:
    return sorted(_TABLE)


def reads(name: str) -> list[str]:
    """What the named check reads: "depth" first if what it compares depends on it, then the parameters."""
    if name not in _TABLE:
        raise KeyError(f"unknown identity: {name!r}")
    return [word.partition("!=")[0].partition(">=")[0] for word in _TABLE[name][1].split()]


def _depth_floor(name: str) -> int:
    """The least depth the named check runs at: BOUND for a declared depth>=BOUND, else 0."""
    first = _TABLE[name][1].split()[0]
    return int(first.partition(">=")[2] or 0) if first.startswith("depth") else 0


def _check_function(name: str) -> Callable[[dict, int], tuple]:
    """The check behind a table name: ``_check_<name>`` in its family module, imported here."""
    family = import_module(f".{_TABLE[name][0]}", __name__)
    return getattr(family, "_check_" + name.replace("-", "_"))


def _convert(key: str, value):
    """value as its parameter's kind: a TruncSeq as it is, a Fraction or an int from an exact number (no float)."""
    kind = _KINDS.get(key, int)
    if kind is TruncSeq:
        if isinstance(value, TruncSeq):
            return value
    elif not isinstance(value, float):
        try:
            exact = Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError):
            exact = None
        if exact is not None and (kind is Fraction or exact.denominator == 1):
            return exact if kind is Fraction else exact.numerator
    noun = {int: "an integer", Fraction: "a rational", TruncSeq: "a TruncSeq"}[kind]
    raise ValueError(f"{key} must be {noun}, got {value!r}")


def check(name: str, params: Mapping | None = None, depth: int = DEFAULT_DEPTH) -> IdentityReport:
    """Run a named check once its parameters pass its declaration, and compare every pair it hands over.

    Unknown names raise KeyError; a depth below the check's floor (0 unless declared), a parameter the check
    does not read, a value not of its kind or breaking its rule, or a run that compared nothing ValueError; a
    sequence whose depth is not the run depth, in a check that reads the depth, DepthMismatchError.
    """
    words = reads(name)
    keys = [key for key in words if key != "depth"]
    floor = _depth_floor(name)
    if depth < floor:
        raise ValueError(f"depth must be >= {floor}")
    params = dict(params or {})
    unread = [repr(k) for k in params if k not in keys]
    if unread:
        raise ValueError(f"{name} does not take {', '.join(unread)}; it takes {', '.join(keys) or 'no parameters'}")
    for word in _TABLE[name][1].split():
        key, rule, bound = word.partition("!=" if "!=" in word else ">=")
        if key in params:
            params[key] = value = _convert(key, params[key])
            if rule == ">=" and value < int(bound):
                raise ValueError(f"{key} must be >= {bound}")
            if rule == "!=" and value == 0:
                raise ValueError(f"{key} must be nonzero")
            if isinstance(value, TruncSeq) and "depth" in words and value.depth != depth:
                raise DepthMismatchError(f"{key} has depth {value.depth} but the check runs at depth {depth}")
    used, pairs, *den = _check_function(name)(params, depth)
    return _verdict(name, used, depth, pairs, *den)


def run_all(depth: int = DEFAULT_DEPTH) -> list[IdentityReport]:
    """Every check with its defaults whose depth floor the depth meets."""
    return [check(name, {}, depth) for name in registered_names() if depth >= _depth_floor(name)]


# ---------------------------------------------------------------------------
# helpers

def _scalar_params(used: dict) -> dict:
    return {k: "<sequence>" if isinstance(v, TruncSeq) else str(v) for k, v in used.items()}


def _verdict(name, used, depth, pairs, den=1) -> IdentityReport:
    """Compare (index, lhs, rhs) pairs, int sides being numerators over den, up to the first that differs."""
    checked = 0
    for checked, (idx, lhs, rhs) in enumerate(pairs, 1):
        if lhs != rhs:
            failure = FirstFailure(idx, str(_value(lhs, den)), str(_value(rhs, den)))
            return IdentityReport(name, _scalar_params(used), depth, False, failure, checked)
    if not checked:
        raise ValueError(f"{name} compares nothing at depth {depth}")
    return IdentityReport(name, _scalar_params(used), depth, True, None, checked)


def _entrywise(lhs: TruncSeq, rhs: TruncSeq, tag=None):
    """Every entrywise pair, indexed k, or (tag, k) when a tag names the comparison."""
    for k in range(min(len(lhs), len(rhs))):
        yield k if tag is None else (tag, k), lhs[k], rhs[k]


def _rng(params: Mapping) -> random.Random:
    return random.Random(params.get("seed", _DEFAULT_SEED))


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


def _distinct_nonzero_triple(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    while True:
        a, b, c = (random_nonzero_rational(rng) for _ in range(3))
        if a != b:
            return a, b, c
