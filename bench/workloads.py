"""The benchmark's four workloads: seeded pools of requests, each with its exact check.

A pool is a fixed list of request templates; the seed draws the values in
the random inputs (units, prime denominators, Dirichlet windows, input files)
and the order of each cycle, so every seed runs the same mix of calls and
depths. The library receives only the generated inputs.

ring-numeric
    Fraction-valued calls at K in {64, 128, 256}: bullet, cauchy,
    binomial_transform, inverse of random units and of xi1, roots (m in
    {2, 3, 5}) and rational powers at K <= 128, cold bernoulli, euler1 and
    norlund, and a minority of Dirichlet calls at bounds of a few thousand.
    The seqcore and units kernels do nearly all the work.
coprime-denominators
    The same seqcore/units calls on units whose entries have pairwise-coprime
    20-bit prime denominators, at lower depth. This is the worst case for a
    common-denominator kernel; it keeps such a kernel's cost on these inputs
    from hiding inside ring-numeric.
poly-families
    RatPoly-valued generators at K in 16..48. RatPoly arithmetic does most
    of the work; the Fraction kernels do little.
cli-mix
    binomring processes, one at a time, at depth <= 64: gen, op on JSON files
    written at set-up, verify over all 27 registry names, table1,
    oeis-compare against the b-files, and the documented exit-2/3 paths.
    Interpreter start, imports, argparse, JSON and the identity checks
    dominate; the kernels do little.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb
from pathlib import Path
from typing import Callable, NamedTuple

from oracles import Oracles, read_bfile


def seq_view(out) -> tuple:
    """An output's values as a plain tuple: Fractions, or coefficient tuples for polynomials."""
    values = getattr(out, "entries", out)  # a sigma family object wraps its sequence
    return tuple(tuple(v.coeffs) if hasattr(v, "coeffs") else v for v in values.values)


@dataclass(frozen=True)
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    view: Callable[[object], tuple] = seq_view
    argv: tuple = ()  # cli-mix: the binomring arguments
    input_bytes: int = 0  # cli-mix: size of the files those arguments name


@dataclass
class Context:
    """What a workload needs from outside the library: the checkout and, for cli-mix, its processes."""

    data_dir: Path
    tmp: Path | None = None
    env: dict | None = None


def _invoke(module, name: str, args: tuple):
    # the attribute is looked up per call, so a traced run sees the rebound function
    return getattr(module, name)(*args)


def _req(label, module, name, args, check) -> Request:
    return Request(label, partial(_invoke, module, name, args), check)


# -- inputs ---------------------------------------------------------------


def small_rational(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_unit(lib, rng, depth: int, monic: bool = False, max_den: int = 9):
    head = Fraction(1) if monic else Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    tail = [Fraction(rng.randint(-9, 9), rng.randint(1, max_den)) for _ in range(depth)]
    return lib.seqcore.TruncSeq([head] + tail)


def primes_20bit() -> list[int]:
    """The primes in [2^19, 2^20), by a sieve of Eratosthenes."""
    n = 1 << 20
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, 1 << 10):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    return [p for p in range(1 << 19, n) if sieve[p]]


def coprime_unit(lib, rng, primes: list[int], depth: int):
    """A monic unit whose k-th entry is a small numerator over the next unused prime."""
    vals = [Fraction(1)]
    for _ in range(depth):
        vals.append(Fraction(rng.choice((-7, -5, -3, -2, -1, 1, 2, 3, 5, 7)), primes.pop()))
    return lib.seqcore.TruncSeq(vals)


def prime_exponent_factorial(bound: int) -> list[int]:
    """gamma(k) = product of the factorials of k's prime exponents, by trial division."""
    out = []
    for k in range(1, bound + 1):
        v, p = 1, 2
        while p * p <= k:
            c = 0
            while k % p == 0:
                k //= p
                c += 1
            for i in range(2, c + 1):
                v *= i
            p += 1
        out.append(v)
    return out


# -- in-process workloads -------------------------------------------------


def ring_numeric(lib, rng, ctx: Context) -> list[Request]:
    sc, un, sp, dr = lib.seqcore, lib.units, lib.special, lib.dirichlet
    ora = Oracles(lib.egf, ctx.data_dir)
    T, D = sc.TruncSeq, dr.DirSeq
    reqs = []
    # Two sets of random inputs at K = 64 put the median among calls of similar cost; half-integer
    # entries at K = 256 keep the costliest calls close together. Both steady the percentiles.
    for K, tag in ((64, " a"), (64, " b"), (128, ""), (256, "")):
        max_den = 2 if K == 256 else 9
        f, g, h = (random_unit(lib, rng, K, max_den=max_den) for _ in range(3))
        ones = T([1] * (K + 1))
        reqs += [
            _req(f"bullet K={K}{tag}", sc, "bullet", (f, g), partial(ora.bullet, f, g)),
            _req(f"cauchy K={K}{tag}", sc, "cauchy", (g, h), partial(ora.cauchy, g, h)),
            _req(f"binomial_transform K={K}{tag}", sc, "binomial_transform", (h,), partial(ora.bullet, h, ones)),
            _req(f"inverse K={K}{tag}", un, "inverse", (f,), partial(ora.inverse, f)),
        ]
    for K in (64, 128, 256):
        xi1 = T([Fraction(1, k + 1) for k in range(K + 1)])
        reqs += [
            _req(f"inverse xi1 K={K}", un, "inverse", (xi1,), partial(ora.inverse, xi1)),
            _req(f"bernoulli K={K}", sp, "bernoulli", (K,), partial(ora.bernoulli, K)),
            _req(f"euler1 K={K}", sp, "euler1", (K,), partial(ora.euler1, K)),
        ]
    for K, m in ((64, 2), (64, 3), (64, 5), (128, 2)):
        u = random_unit(lib, rng, K, monic=True, max_den=2 if K == 128 else 9)
        reqs.append(_req(f"mth_root m={m} K={K}", un, "mth_root", (u, m), partial(ora.power, u, 1, m)))
    for K, p, q in ((64, 2, 3), (64, -1, 2)):
        u = random_unit(lib, rng, K, monic=True)
        reqs.append(_req(f"power_rat {p}/{q} K={K}", un, "power_rat", (u, p, q), partial(ora.power, u, p, q)))
    for K, p, q in ((64, 1, 2), (128, 1, 2), (64, 2, 3)):
        reqs.append(_req(f"norlund {p}/{q} K={K}", sp, "norlund", (p, q, K), partial(ora.norlund, p, q, K)))
    for N in (2000, 4000):
        f = D([small_rational(rng) for _ in range(N)])
        g = D([small_rational(rng) for _ in range(N)])
        reqs.append(_req(f"dirichlet_conv N={N}", dr, "dirichlet_conv", (f, g), partial(ora.dirichlet_conv, f, g)))
    N = 1500
    unit = D([1] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(N - 1)])
    reqs.append(_req(f"dirichlet_inverse N={N}", dr, "dirichlet_inverse", (unit,),
                     partial(ora.dirichlet_inverse, unit)))
    N = 1500
    f = D([small_rational(rng) for _ in range(N)])
    g = D([small_rational(rng) for _ in range(N)])
    gamma = D(prime_exponent_factorial(N))
    reqs.append(_req(f"gamma_twisted_conv N={N}", dr, "gamma_twisted_conv", (f, g, gamma),
                     partial(ora.twisted_conv, f, g, gamma)))
    # warm the caches a long-running caller keeps: Pascal rows and the divisor sieve
    sc.binom(256 + 2, 0)
    for k in range(1, N + 1):
        dr.divisors(k)
    return reqs


def coprime_denominators(lib, rng, ctx: Context) -> list[Request]:
    sc, un = lib.seqcore, lib.units
    ora = Oracles(lib.egf, ctx.data_dir)
    primes = primes_20bit()
    rng.shuffle(primes)
    reqs = []
    for K in (32, 48, 64):
        f, g = coprime_unit(lib, rng, primes, K), coprime_unit(lib, rng, primes, K)
        reqs += [
            _req(f"bullet K={K}", sc, "bullet", (f, g), partial(ora.bullet, f, g)),
            _req(f"cauchy K={K}", sc, "cauchy", (f, g), partial(ora.cauchy, f, g)),
        ]
    # (call, K, exponent p/q); the last five cost about the same, so p95 falls among them
    powers = (("inverse", 32, -1, 1), ("inverse", 40, -1, 1), ("inverse", 48, -1, 1), ("power_int", 32, -2, 1),
              ("power_int", 48, -2, 1), ("power_int", 32, 3, 1), ("mth_root", 32, 1, 2), ("mth_root", 32, 1, 3),
              ("power_rat", 32, 2, 3), ("power_rat", 32, -1, 2),
              ("inverse", 64, -1, 1), ("power_int", 62, -2, 1), ("power_rat", 45, -1, 2), ("mth_root", 48, 1, 2),
              ("mth_root", 37, 1, 3))
    for name, K, p, q in powers:
        u = coprime_unit(lib, rng, primes, K)
        args, label = {"inverse": ((u,), ""), "power_int": ((u, p), f" n={p}"), "mth_root": ((u, q), f" m={q}"),
                       "power_rat": ((u, p, q), f" {p}/{q}")}[name]
        reqs.append(_req(f"{name}{label} K={K}", un, name, args, partial(ora.power, u, p, q)))
    sc.binom(64 + 2, 0)
    return reqs


def inverse_bernoulli_poly(lib, depth: int):
    """inverse(bernoulli_poly(depth)) from its closed form ((e^t - 1)/t) e^(-x t)."""
    RatPoly = lib.poly.RatPoly
    return lib.seqcore.TruncSeq(
        RatPoly([Fraction(comb(k, j) * (-1) ** j, k - j + 1) for j in range(k + 1)]) for k in range(depth + 1))


def poly_families(lib, rng, ctx: Context) -> list[Request]:
    sp, un = lib.special, lib.units
    ora = Oracles(lib.egf, ctx.data_dir)
    reqs = []
    for K in (24, 32, 40, 48):
        reqs.append(_req(f"bernoulli_poly K={K}", sp, "bernoulli_poly", (K,), partial(ora.bernoulli_poly, K)))
        reqs.append(_req(f"euler_poly K={K}", sp, "euler_poly", (K,), partial(ora.euler_poly, K)))
    for K in (24, 32, 40):
        reqs.append(_req(f"power_sum_poly K={K}", sp, "power_sum_poly", (K,), partial(ora.power_sum_poly, K)))
        reqs.append(_req(f"sigma K={K}", sp, "sigma", (K,), partial(ora.sigma, K)))
    # n with eight and four squarefree divisors
    for K, n in ((16, 30), (24, 6)):
        reqs.append(_req(f"mobius_bernoulli n={n} K={K}", sp, "mobius_bernoulli", (n, K),
                         partial(ora.mobius_bernoulli, n, K)))
    for K, n in ((24, 1), (24, 2), (32, 1), (24, 3)):
        reqs.append(_req(f"ber_inv_pow n={n} K={K}", sp, "ber_inv_pow", (n, K), partial(ora.bern_inv_power, n, K)))
    for K, n in ((24, 2), (16, 3), (24, -2)):
        ib = inverse_bernoulli_poly(lib, K)
        reqs.append(_req(f"power_int inverse(bernoulli_poly) n={n} K={K}", un, "power_int", (ib, n),
                         partial(ora.bern_inv_power, n, K)))
    lib.seqcore.binom(48 + 2, 0)
    return reqs


# -- cli-mix ----------------------------------------------------------------

CLI_MAX_DEPTH = 64

# the 27 identity checks of the registry
IDENTITIES = (
    "carlitz", "cor9", "eq13", "eq15", "eq16", "eq18", "eq19", "eq20", "eq21", "eq22", "eq23", "eq24",
    "eq25-iso", "eq29", "eq3", "eq31", "eq32", "eq9", "eq9-k0-a", "eq9-k0-b", "faulhaber", "gould12",
    "powersum-sigma-form", "prop10", "thm5-converse", "thm5-forward", "tuenter",
)


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def run_process(argv: tuple, env: dict, cwd: Path) -> CliResult:
    """One binomring process; the caller waits for it to exit."""
    p = subprocess.run([sys.executable, "-m", "binomring.cli", *argv], capture_output=True, text=True,
                       env=env, cwd=cwd, timeout=120)
    return CliResult(p.returncode, p.stdout, p.stderr)


def run_main(cli, argv: tuple) -> CliResult:
    """cli.main(argv) in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse reports usage errors by exiting
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def _pairs(obj):
    """Every [numerator, denominator] pair of decimal strings in parsed JSON output."""
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _pairs(v)
    elif isinstance(obj, list):
        if len(obj) == 2 and all(isinstance(s, str) for s in obj):
            try:
                yield Fraction(int(obj[0]), int(obj[1]))
                return
            except ValueError:
                pass
        for v in obj:
            yield from _pairs(v)


def cli_view(res: CliResult) -> tuple:
    numbers = ()
    if res.stdout.startswith("{"):
        numbers = tuple(_pairs(json.loads(res.stdout)))
    return (res.code, res.stdout, res.stderr, numbers)


def _parse_seq(text: str) -> tuple:
    """A sequence object printed by gen/op, as seq_view would show it."""
    obj = json.loads(text)
    values = []
    for v in obj["values"]:
        if v and isinstance(v[0], list):
            values.append(tuple(Fraction(int(n), int(d)) for n, d in v))
        else:
            values.append(Fraction(int(v[0]), int(v[1])))
    if obj["depth"] != len(values) - 1:
        raise ValueError("depth field does not match the values")
    return tuple(values)


def _clean(res: CliResult, code: int) -> bool:
    return res.code == code and "Traceback" not in res.stderr


def _check_seq(expected: Callable[[], object], res: CliResult) -> bool:
    return _clean(res, 0) and _parse_seq(res.stdout) == seq_view(expected())


def _check_decompose(lib, f, res: CliResult) -> bool:
    if not _clean(res, 0):
        return False
    parts = lib.units.decompose(f)
    obj = json.loads(res.stdout)
    return all(_parse_seq(json.dumps(obj[k])) == seq_view(getattr(parts, k)) for k in ("v", "w", "c"))


def _check_verify(lib, name: str, res: CliResult) -> bool:
    if not _clean(res, 0):
        return False
    report = lib.identities.check(name, {}, 12)
    obj = json.loads(res.stdout)
    return (report.passed and obj["pass"] is True and obj["name"] == name and obj["depth"] == report.depth
            and obj["first_failure"] is None and obj["params"] == {k: str(v) for k, v in report.params.items()})


def _check_stdout(want: str, res: CliResult) -> bool:
    return _clean(res, 0) and res.stdout == want


def _check_table1(ora: Oracles, res: CliResult) -> bool:
    return _clean(res, 0) and ora.root_table_rows(res.stdout)


def _check_error(code: int, res: CliResult) -> bool:
    return _clean(res, code) and res.stdout == "" and res.stderr.startswith("error:")


def _write_seq(path: Path, name: str, values) -> None:
    obj = {"name": name, "depth": len(values) - 1,
           "values": [[str(v.numerator), str(v.denominator)] for v in values]}
    path.write_text(json.dumps(obj), encoding="utf-8")


def cli_mix(lib, rng, ctx: Context) -> list[Request]:
    sp, un, sc = lib.special, lib.units, lib.seqcore
    ora = Oracles(lib.egf, ctx.data_dir)
    tmp = ctx.tmp
    units = {}
    for name, depth, monic in (("u48a", 48, False), ("u48b", 48, False), ("u32", 32, True), ("u24", 24, True),
                               ("u40", 40, False)):
        units[name] = random_unit(lib, rng, depth, monic)
        _write_seq(tmp / f"{name}.json", name, units[name].values)
    zero_lead = [Fraction(0)] + [small_rational(rng) for _ in range(16)]
    _write_seq(tmp / "zero_lead.json", "zero_lead", zero_lead)
    neg_lead = [Fraction(-1)] + [small_rational(rng) for _ in range(16)]
    _write_seq(tmp / "neg_lead.json", "neg_lead", neg_lead)
    bern = [ora.bernoulli_bfile[k] for k in sorted(ora.bernoulli_bfile)]
    _write_seq(tmp / "bern.json", "bern", bern)
    half = [ora.half_bfile[k] for k in sorted(ora.half_bfile)]
    _write_seq(tmp / "half.json", "half", half)

    def path(name):
        return str(tmp / f"{name}.json")

    def cli(label, argv, check, files=()):
        argv = tuple(argv)
        return Request(label, partial(run_process, argv, ctx.env, tmp), check, cli_view, argv,
                       sum(Path(f).stat().st_size for f in files))

    def expect(fn, *args):
        return partial(_check_seq, partial(fn, *args))

    reqs = [
        cli("gen bernoulli K=64", ("gen", "bernoulli", "--depth", "64"), expect(sp.bernoulli, 64)),
        cli("gen bernoulli K=32", ("gen", "bernoulli", "--depth", "32"), expect(sp.bernoulli, 32)),
        cli("gen norlund 1/2 K=32", ("gen", "norlund", "--p", "1", "--q", "2", "--depth", "32"),
            expect(sp.norlund, 1, 2, 32)),
        cli("gen norlund 2/3 K=24", ("gen", "norlund", "--p", "2", "--q", "3", "--depth", "24"),
            expect(sp.norlund, 2, 3, 24)),
        cli("gen euler-poly K=16", ("gen", "euler-poly", "--depth", "16"), expect(sp.euler_poly, 16)),
        cli("gen euler-poly K=24", ("gen", "euler-poly", "--depth", "24"), expect(sp.euler_poly, 24)),
        cli("gen mobius-bernoulli n=6 K=12", ("gen", "mobius-bernoulli", "--n", "6", "--depth", "12"),
            expect(sp.mobius_bernoulli, 6, 12)),
        cli("op invert K=48", ("op", "invert", path("u48a")), expect(un.inverse, units["u48a"]), [path("u48a")]),
        cli("op root m=2 K=32", ("op", "root", "--m", "2", path("u32")), expect(un.mth_root, units["u32"], 2),
            [path("u32")]),
        cli("op root m=3 K=24", ("op", "root", "--m", "3", path("u24")), expect(un.mth_root, units["u24"], 3),
            [path("u24")]),
        cli("op pow 2/3 K=24", ("op", "pow", "--p", "2", "--q", "3", path("u24")),
            expect(un.power_rat, units["u24"], 2, 3), [path("u24")]),
        cli("op bullet K=48", ("op", "bullet", path("u48a"), path("u48b")),
            expect(sc.bullet, units["u48a"], units["u48b"]), [path("u48a"), path("u48b")]),
        cli("op decompose K=40", ("op", "decompose", path("u40")), partial(_check_decompose, lib, units["u40"]),
            [path("u40")]),
        cli("table1", ("table1",), partial(_check_table1, ora)),
    ]
    for seq, bfile, transform in (("bern", "b027641.txt", "numerator"), ("bern", "b027642.txt", "denominator"),
                                  ("half", "b241885.txt", "numerator"), ("half", "b242225.txt", "denominator")):
        bpath = ctx.data_dir / bfile
        n = len(read_bfile(bpath))
        want = f"full agreement on {n} indices (0..{n - 1}) [{seq}, {transform}]\n"
        reqs.append(cli(f"oeis-compare {bfile}", ("oeis-compare", path(seq), str(bpath), "--transform", transform),
                        partial(_check_stdout, want), [path(seq), bpath]))
    reqs += [cli(f"verify {name}", ("verify", name), partial(_check_verify, lib, name)) for name in IDENTITIES]
    errors = (
        ("gen", rng.choice(("fibonacci", "catalan", "lucas")), 2, ()),
        ("gen", "bernoulli", "--depth", str(CLI_MAX_DEPTH + rng.randint(1, 8)), 2, ()),
        ("verify", rng.choice(("eq1", "eq99", "thm6")), 2, ()),
        ("op", "invert", path("zero_lead"), 3, (path("zero_lead"),)),
        ("op", "root", "--m", "2", path("neg_lead"), 3, (path("neg_lead"),)),
        ("op", "bullet", path("u32"), path("u24"), 3, (path("u32"), path("u24"))),
    )
    for *argv, code, files in errors:
        reqs.append(cli(f"exit {code}: {' '.join(a if '/' not in a else Path(a).name for a in argv)}",
                        argv, partial(_check_error, code), files))
    # one process before timing, so byte-compiled modules exist as they would for a user
    run_process(("gen", "e", "--depth", "0"), ctx.env, tmp)
    return reqs


WORKLOADS = {
    "ring-numeric": ring_numeric,
    "coprime-denominators": coprime_denominators,
    "poly-families": poly_families,
    "cli-mix": cli_mix,
}
