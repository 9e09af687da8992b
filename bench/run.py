"""Benchmark for binomring: seeded closed-loop workloads over the ring kernels,
the polynomial families and the command-line tool.

Run from the root of a checkout:

    python3 bench/run.py --workload ring-numeric --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

One client sends each request after the previous one has returned (a closed
loop, no threads); cli-mix requests are binomring processes run one at a
time. A run cycles through the workload's seeded pool of distinct requests,
in whole cycles, until --seconds of request time and at least 200 requests
have accumulated, so that every run holds the same mix and the 95th
percentile has at least ten samples beyond it. The first time a request runs,
its output is checked exactly by an independent route; each repeat must
reproduce the digest of the checked output. Checks, digests and clearing the
`special` caches happen between requests, outside the timed region. Times
are reported at reference speed, as the comment above `recursion_time`
explains; the record keeps the raw wall times too.

--trace 0 reports the end-to-end metrics. --trace 1 runs half the time
untraced and half traced, reports the per-layer metrics of the traced half
and writes its spans to .bench_out/. cli-mix calls cli.main in-process when
traced.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, NamedTuple

import workloads
from oracles import BFILES
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"

MIN_REQUESTS = 200
SETUP_REPEATS = 3
MODULES = ("seqcore", "units", "poly", "special", "dirichlet", "identities", "jsonio", "egf", "cli")
# the special lru_caches cleared before every request, so each pays the cold cost a CLI process pays
CACHED = ("bernoulli", "bernoulli_poly", "euler1", "euler_poly", "power_sum_poly", "sigma")
SELF_MS = (
    "seqcore.bullet", "seqcore.cauchy", "units.inverse", "units.power_int", "units.mth_root", "units.power_rat",
    "poly.compose_affine", "special.bernoulli", "special.bernoulli_poly", "special.euler_poly",
    "special.power_sum_poly", "special.sigma", "special.mobius_bernoulli", "special.norlund", "dirichlet.conv",
    "dirichlet.inverse", "dirichlet.twisted", "identities.check", "jsonio.dump", "jsonio.load", "cli.main",
)


# Wall times on a shared machine drift with other tenants' load, by 20% and
# more between runs. A fixed piece of work that touches no binomring code is
# timed between consecutive requests, and every time is reported at
# reference speed: scaled by the reference's nominal time over the mean of
# the reference times just before and just after it. Load slows small-integer
# Python code, big-integer arithmetic and process start-up by different
# factors, so each workload's reference resembles its requests: a Fraction
# recursion over small rationals, the same over 20-bit prime denominators,
# or an interpreter start. The run record also shows the raw wall times.


def small_terms(n: int) -> list[Fraction]:
    return [Fraction((-1) ** k * (k % 7 + 1), k % 9 + 1) for k in range(n)]


def recursion_time(terms) -> float:
    """Wall time of out(k) = -sum_{m=1..k} terms[m] out(k-m), out(0) = 1, in standard-library Fractions."""
    t0 = perf_counter()
    out = [Fraction(1)]
    for k in range(1, len(terms)):
        total = Fraction(0)
        for m in range(1, k + 1):
            total += terms[m] * out[k - m]
        out.append(-total)
    return perf_counter() - t0


def interpreter_start_time(env: dict, cwd: Path) -> float:
    """Wall time of one `python -c pass` process."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, capture_output=True, timeout=60, check=True)
    return perf_counter() - t0


class Reference(NamedTuple):
    measure: Callable[[], float]
    nominal_s: float

    def scale(self, seconds: float, before: float, after: float) -> float:
        return seconds * 2 * self.nominal_s / (before + after)


SMALL_REFERENCE = Reference(partial(recursion_time, small_terms(30)), 0.001)


def reference_for(workload: str, env: dict, cwd: Path) -> Reference:
    if workload == "cli-mix":
        return Reference(partial(interpreter_start_time, env, cwd), 0.025)
    if workload == "coprime-denominators":
        primes = workloads.primes_20bit()[:20]
        terms = [Fraction(1)] + [Fraction((-1) ** k * (k % 5 + 1), primes[k]) for k in range(1, 20)]
        return Reference(partial(recursion_time, terms), 0.001)
    if workload == "ring-numeric":
        # 60 terms, so that the numbers grow to a few hundred bits as in this workload's calls
        return Reference(partial(recursion_time, small_terms(60)), 0.006)
    return SMALL_REFERENCE


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the reference and each request share it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SourceMissing(Exception):
    pass


# -- outputs: digests and number sizes ---------------------------------------


def _feed_int(h, n: int) -> None:
    b = n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)
    h.update(len(b).to_bytes(8, "big"))
    h.update(b)


def feed(h, v) -> None:
    """Hash a view built from Fractions, ints, strings and tuples; ints go in as bytes, never via str()."""
    if isinstance(v, Fraction):
        h.update(b"q")
        _feed_int(h, v.numerator)
        _feed_int(h, v.denominator)
    elif isinstance(v, int):
        h.update(b"i")
        _feed_int(h, v)
    elif isinstance(v, str):
        h.update(b"s")
        _feed_int(h, len(v))
        h.update(v.encode())
    elif isinstance(v, tuple):
        h.update(b"(")
        for x in v:
            feed(h, x)
        h.update(b")")
    else:
        raise TypeError(f"cannot digest {type(v).__name__}")


def fractions_in(v):
    if isinstance(v, Fraction):
        yield v
    elif isinstance(v, tuple):
        for x in v:
            yield from fractions_in(x)


# -- set-up ------------------------------------------------------------------


def fresh_import(names) -> SimpleNamespace:
    """Import binomring from the checkout's src/ as if for the first time."""
    for name in [n for n in sys.modules if n == "binomring" or n.startswith("binomring.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{n: importlib.import_module(f"binomring.{n}") for n in names})
    if Path(lib.seqcore.__file__).resolve().parent != SRC / "binomring":
        raise SourceMissing(f"binomring was imported from {lib.seqcore.__file__}, not from {SRC}")
    return lib


def setup(workload: str, seed: int, ctx: workloads.Context, reference: Reference = SMALL_REFERENCE):
    """Import, input generation and warm-up, repeated.

    Returns the last library and pool, and the wall and reference-speed time of each repeat.
    """
    names = MODULES if workload == "cli-mix" else MODULES[:-1]
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = reference.measure()
        t0 = perf_counter()
        lib = fresh_import(names)
        requests = workloads.WORKLOADS[workload](lib, random.Random(seed), ctx)
        wall.append(perf_counter() - t0)
        scaled.append(reference.scale(wall[-1], before, reference.measure()))
    return lib, requests, wall, scaled


# -- the closed loop ---------------------------------------------------------


class Session:
    """Runs requests one after another and checks each output."""

    def __init__(self, requests, caches, seed: int, reference: Reference = SMALL_REFERENCE):
        self.requests = requests
        self.caches = caches
        self.reference = reference
        self.order = random.Random(f"order-{seed}")
        self.digests: dict[int, bytes] = {}
        self.num_bits = self.den_bits = 0
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.cache_hits = self.cache_misses = 0
        self.input_bytes = 0

    def _one(self, i: int, tracer: Tracer | None) -> tuple[float, bool]:
        req = self.requests[i]
        for fn in self.caches:
            fn.cache_clear()
        if tracer is not None:
            tracer.begin_request()
        t0 = perf_counter()
        try:
            out = req.call()
        except Exception as exc:  # a failed request is counted and reported, and the run goes on
            out = exc
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.end_request()
        for fn in self.caches:
            info = fn.cache_info()
            self.cache_hits += info.hits
            self.cache_misses += info.misses
        self.input_bytes += req.input_bytes
        self.attempted += 1
        reason = f"raised {type(out).__name__}: {out}" if isinstance(out, Exception) else self._verify(i, out)
        if reason:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{req.label}: {reason}")
        return elapsed, not reason

    def _verify(self, i: int, out) -> str:
        """Why the output is wrong, or "" when it is right."""
        req = self.requests[i]
        try:
            view = req.view(out)
            h = hashlib.sha256()
            feed(h, view)
            digest = h.digest()
            if i in self.digests:
                return "" if digest == self.digests[i] else "differs from its first, checked output"
            if not req.check(out):
                return "wrong output"
        except Exception as exc:  # a malformed output fails its request rather than the run
            return f"check raised {type(exc).__name__}: {exc}"
        self.digests[i] = digest
        for v in fractions_in(view):
            self.num_bits = max(self.num_bits, abs(v.numerator).bit_length())
            self.den_bits = max(self.den_bits, v.denominator.bit_length())
        return ""

    def run(self, seconds: float, min_requests: int, tracer: Tracer | None = None):
        """Whole cycles, at least one, until both the wall request time and the request count are reached."""
        latencies, scaled, references, ok_count, cycles = [], [], [self.reference.measure()], 0, 0
        busy = 0.0
        while not cycles or busy < seconds or len(latencies) < min_requests:
            order = list(range(len(self.requests)))
            self.order.shuffle(order)
            for i in order:
                elapsed, ok = self._one(i, tracer)
                references.append(self.reference.measure())
                latencies.append(elapsed)
                scaled.append(self.reference.scale(elapsed, references[-2], references[-1]))
                busy += elapsed
                ok_count += ok
            cycles += 1
        return SimpleNamespace(latencies=latencies, scaled=scaled, references=references, busy=busy,
                               ok=ok_count, cycles=cycles)

    def digest(self) -> str:
        """One digest over the checked output of every request in the pool, in pool order."""
        h = hashlib.sha256()
        for i in range(len(self.requests)):
            h.update(self.digests.get(i, b"unchecked"))
        return h.hexdigest()


# -- measurements ------------------------------------------------------------


def _wall_ms(fn) -> float:
    t0 = perf_counter()
    fn()
    return (perf_counter() - t0) * 1000


def cli_costs(lib, requests, caches, env: dict, tmp: Path) -> dict:
    """cli.import_ms and cli.startup_ms, measured with processes before tracing starts."""
    py = partial(subprocess.run, capture_output=True, env=env, cwd=tmp, timeout=120, check=True)
    bare = statistics.median(_wall_ms(partial(py, [sys.executable, "-c", "pass"])) for _ in range(7))
    imported = statistics.median(_wall_ms(partial(py, [sys.executable, "-c", "import binomring.cli"]))
                                 for _ in range(7))
    sample = random.Random(0).sample(requests, 12)
    proc = statistics.median(_wall_ms(partial(workloads.run_process, r.argv, env, tmp)) for r in sample)
    inproc = []
    for r in sample:
        for fn in caches:  # cold, as in a process
            fn.cache_clear()
        inproc.append(_wall_ms(partial(workloads.run_main, lib.cli, r.argv)))
    return {"cli.import_ms": imported - bare, "cli.startup_ms": proc - statistics.median(inproc)}


def latency_metrics(latencies, ok: int, setup_times) -> dict:
    return {
        "req_per_s": (ok / sum(latencies), "1/s"),
        "req_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "req_p95_ms": (statistics.quantiles(latencies, n=20)[18] * 1000, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def end_to_end(phase, setup_scaled, children: bool) -> dict:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    metrics = latency_metrics(phase.scaled, phase.ok, setup_scaled)
    metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(tracer: Tracer, session: Session, traced, untraced, extra: dict) -> dict:
    n = len(traced.latencies)
    self_s = tracer.self_times()
    m = {f"{name}.self_ms": (1000 * self_s[name] / n, "ms/req") for name in SELF_MS}
    kernel_s = self_s["seqcore.bullet"] + self_s["seqcore.cauchy"]
    terms = tracer.work["seqcore.bullet"] + tracer.work["seqcore.cauchy"]
    m.update({
        "seqcore.bullet.calls": (tracer.calls["seqcore.bullet"] / n, "1/req"),
        "seqcore.terms_per_s": (terms / kernel_s if kernel_s else 0.0, "1/s"),
        "poly.ratpoly_mul.calls": (tracer.calls["poly.ratpoly_mul"] / n, "1/req"),
        "poly.ratpoly_add.calls": (tracer.calls["poly.ratpoly_add"] / n, "1/req"),
        "special.cache.hits": (session.cache_hits / n, "1/req"),
        "special.cache.misses": (session.cache_misses / n, "1/req"),
        "identities.checks": (tracer.calls["identities.check"] / n, "1/req"),
        "jsonio.bytes_out": (tracer.work["jsonio.dump"] / n, "B/req"),
        "jsonio.bytes_in": (session.input_bytes / n, "B/req"),
        "cli.import_ms": (extra.get("cli.import_ms", 0.0), "ms"),
        "cli.startup_ms": (extra.get("cli.startup_ms", 0.0), "ms"),
        "values.max_num_bits": (session.num_bits, "bit"),
        "values.max_den_bits": (session.den_bits, "bit"),
        "trace.overhead_ratio": ((traced.ok / sum(traced.scaled)) / (untraced.ok / sum(untraced.scaled)), "ratio"),
    })
    return m


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def nproc() -> int:
    return os.cpu_count()


# -- one workload ------------------------------------------------------------


def prepare_checkout() -> None:
    """Make the checkout's binomring importable, or raise SourceMissing."""
    if not (SRC / "binomring" / "__init__.py").is_file():
        raise SourceMissing(f"no binomring package under {SRC}")
    missing = [name for name in BFILES if not (DATA / name).is_file()]
    if missing:
        raise SourceMissing(f"missing b-files in {DATA}: {', '.join(missing)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def cli_env() -> dict:
    """The environment of every binomring process, with the variables that shape the workload pinned."""
    return dict(os.environ, PYTHONPATH=str(SRC), TOOL_MAX_DEPTH=str(workloads.CLI_MAX_DEPTH))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    prepare_checkout()
    cli_mix = workload == "cli-mix"
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        env = cli_env()
        ctx = workloads.Context(DATA, tmp, env)
        reference = reference_for(workload, env, tmp)
        lib, requests, setup_wall, setup_scaled = setup(workload, seed, ctx, reference)
        caches = [fn for fn in (getattr(lib.special, name, None) for name in CACHED) if hasattr(fn, "cache_clear")]
        extra = {}
        if trace and cli_mix:
            os.environ["TOOL_MAX_DEPTH"] = env["TOOL_MAX_DEPTH"]  # for cli.main in this process
            extra = cli_costs(lib, requests, caches, env, tmp)
            requests = [replace(r, call=partial(workloads.run_main, lib.cli, r.argv)) for r in requests]
            reference = SMALL_REFERENCE
        session = Session(requests, caches, seed, reference)
        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "python": platform.python_version(), "nproc": nproc(), "commit": git_commit(),
                  "distinct_requests": len(requests), "setup_samples": len(setup_wall)}
        if trace:
            untraced = session.run(seconds / 2, 0)
            tracer = Tracer()
            tracer.install(lib)
            try:
                traced = session.run(seconds / 2, 0, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, session, traced, untraced, extra)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{workload}-seed{seed}.tsv")
            record.update(spans=len(tracer.start), traced_requests=len(traced.latencies),
                          untraced_requests=len(untraced.latencies))
        else:
            phase = session.run(seconds, MIN_REQUESTS)
            metrics = end_to_end(phase, setup_scaled, children=cli_mix)
            p95 = statistics.quantiles(phase.scaled, n=20)[18]
            record.update(cycles=phase.cycles, latency_samples=len(phase.scaled),
                          samples_beyond_p95=sum(1 for x in phase.scaled if x > p95), request_seconds=phase.busy,
                          reference_ms=statistics.median(phase.references) * 1000,
                          **{f"wall.{k}": round(v, 6) for k, (v, _) in
                             latency_metrics(phase.latencies, phase.ok, setup_wall).items()})
        record.update(attempted=session.attempted, failed=session.failed,
                      fail_ratio=session.failed / session.attempted, digest=session.digest(),
                      **{"values.max_num_bits": session.num_bits, "values.max_den_bits": session.den_bits})
        return {"record": record, "metrics": metrics, "failures": session.failures}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still has its directory there


def report(result: dict) -> dict:
    """Print the run record and every metric with its unit; return the closing JSON object."""
    for key, value in result["record"].items():
        print(f"{key} {value}")
    for line in result["failures"]:
        print(f"failed request: {line}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} {value:.6g} {unit}")
    rec = result["record"]
    return {"correct": rec["failed"] == 0, "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["metrics"].update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    pin_to_one_cpu()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
