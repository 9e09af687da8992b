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
static table, ``_TABLE``, mapping each name to its family module, to the
parameter names its check reads and to whether its comparison depends on
the depth (all but carlitz and eq29); the check itself is the function
``_check_<name>`` (dashes become underscores) in that module. ``check``
looks a name up in the table, rejects any parameter the check does not
read, and only then imports the one family module, so a process that runs a
single check compiles and loads only that family.

The checks use the ring operations rather than one product per index. The
``symmetric`` family reads every shifted product (I x_m f)(n) from one
Euler-Seidel table of f, O(K^2) integer additions, and reports the first
mismatch in the order m outer, n inner; ``poly_symmetry`` writes the eq23
and eq24 sums as two binomial products; ``inverse_power`` checks eq9 as one
product. ``run_all`` passes at every depth: gould12's and eq13's default m
and n shrink to fit m + n <= depth, and a default n of a 1..n range is at
least 1.
"""
from __future__ import annotations

import random
from fractions import Fraction
from importlib import import_module
from typing import Callable, Mapping, NamedTuple, Optional

from ..seqcore import TruncSeq

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


# name -> (family module, the parameter names its check reads, whether what it compares depends on the depth)
_TABLE = {
    "eq3": ("inverse_power", "bernoulli", True),
    "eq9": ("inverse_power", "n", True),
    "eq9-k0-a": ("inverse_power", "n", True),
    "eq9-k0-b": ("inverse_power", "alpha n", True),
    "faulhaber": ("power_sums", "n bernoulli", True),
    "powersum-sigma-form": ("power_sums", "", True),
    "carlitz": ("symmetric", "m n bernoulli", False),
    "gould12": ("symmetric", "m n seed f F", True),
    "eq13": ("symmetric", "m n seed f", True),
    "thm5-forward": ("symmetric", "seed", True),
    "thm5-converse": ("symmetric", "seed f", True),
    "eq15": ("symmetric", "f euler1", True),
    "eq16": ("symmetric", "euler1", True),
    "eq18": ("symmetric", "f", True),
    "eq19": ("symmetric", "seed f", True),
    "eq20": ("symmetric", "", True),
    "eq21": ("poly_symmetry", "a b c seed", True),
    "eq22": ("poly_symmetry", "a b c seed", True),
    "eq23": ("poly_symmetry", "n a b c seed", True),
    "tuenter": ("poly_symmetry", "n a b seed", True),
    "eq24": ("poly_symmetry", "n a b seed", True),
    "cor9": ("poly_symmetry", "r p a b c seed", True),
    "prop10": ("convolution", "seed f g", True),
    "eq31": ("convolution", "m n seed f F", True),
    "eq32": ("convolution", "seed f F", True),
    "eq25-iso": ("convolution", "seed f g", True),
    "eq29": ("convolution", "n k", False),
}


def registered_names() -> list[str]:
    return sorted(_TABLE)


def reads_depth(name: str) -> bool:
    """Whether the check compares more or other values at another depth; carlitz and eq29 compare one
    fixed value, so the CLI refuses an explicit --depth for them. Unknown names raise KeyError."""
    if name not in _TABLE:
        raise KeyError(f"unknown identity: {name!r}")
    return _TABLE[name][2]


def _check_function(name: str) -> Callable[[dict, int], IdentityReport]:
    """The check behind a table name: ``_check_<name>`` in its family module, imported here."""
    family = import_module(f".{_TABLE[name][0]}", __name__)
    return getattr(family, "_check_" + name.replace("-", "_"))


def check(name: str, params: Mapping | None = None, depth: int = DEFAULT_DEPTH) -> IdentityReport:
    """Dispatch a named check. Unknown names raise KeyError; bad params ValueError."""
    if name not in _TABLE:
        raise KeyError(f"unknown identity: {name!r}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    params = dict(params or {})
    reads = _TABLE[name][1].split()
    unread = [repr(k) for k in params if k not in reads]
    if unread:
        raise ValueError(f"{name} does not take {', '.join(unread)}; it takes {', '.join(reads) or 'no parameters'}")
    return _check_function(name)(params, depth)


def run_all(depth: int = DEFAULT_DEPTH) -> list[IdentityReport]:
    return [check(name, {}, depth) for name in registered_names()]


# ---------------------------------------------------------------------------
# helpers

def _scalar_params(used: dict) -> dict:
    out = {}
    for k, v in used.items():
        out[k] = "<sequence>" if isinstance(v, TruncSeq) else str(v)
    return out


def _verdict(name, used, depth, mismatches) -> IdentityReport:
    """Build a report from the first of an iterable of (index, lhs, rhs) mismatches; the rest are never made."""
    for idx, lhs, rhs in mismatches:
        return IdentityReport(name, _scalar_params(used), depth, False, FirstFailure(idx, str(lhs), str(rhs)))
    return IdentityReport(name, _scalar_params(used), depth, True, None)


def _seq_mismatches(lhs: TruncSeq, rhs: TruncSeq, tag=None):
    """Entrywise mismatches, indexed k, or (tag, k) when a tag names the comparison."""
    for k in range(min(len(lhs), len(rhs))):
        if lhs[k] != rhs[k]:
            yield k if tag is None else (tag, k), lhs[k], rhs[k]


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


def _get_nmax(params: Mapping, default: int) -> int:
    """The top of a 1..n range; a default below 1 (at depth 0) becomes 1, an explicit n < 1 is refused."""
    nmax = _get_int(params, "n", max(default, 1))
    if nmax < 1:
        raise ValueError("n must be >= 1")
    return nmax


def _distinct_nonzero_triple(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    while True:
        a, b, c = (random_nonzero_rational(rng) for _ in range(3))
        if a != b:
            return a, b, c
