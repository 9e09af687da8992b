"""Spans around calls into binomring's public functions, recorded from outside the package.

``Tracer.install`` rebinds each traced function in every ``binomring`` module
namespace that holds it, and in the ``RatPoly`` class. A plain
``from .seqcore import bullet`` leaves separate bindings in ``units``,
``special``, ``identities`` and ``cli``, so rebinding only the defining module
would miss most calls. A span records its name, start, end and parent; the
runner opens one root span per request, so the spans of a request share that
root. Spans stay in memory in flat arrays and are written out once at the end.
The self time of a span is its duration minus the time its child spans cover.

Calls made outside a request (checks, set-up) are not recorded.
"""
from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

REQUEST = "request"


def _terms(args, result) -> int:
    """Multiply-adds of one bullet or cauchy call at depth K: (K+1)(K+2)/2."""
    k = args[0].depth
    return (k + 1) * (k + 2) // 2


def _text_bytes(args, result) -> int:
    return len(result)


# (span name, module, attribute, work counter); "poly" means the RatPoly class.
SPANS = (
    ("seqcore.bullet", "seqcore", "bullet", _terms),
    ("seqcore.cauchy", "seqcore", "cauchy", _terms),
    ("units.inverse", "units", "inverse", None),
    ("units.power_int", "units", "power_int", None),
    ("units.mth_root", "units", "mth_root", None),
    ("units.power_rat", "units", "power_rat", None),
    ("poly.compose_affine", "poly", "compose_affine", None),
    ("special.bernoulli", "special", "bernoulli", None),
    ("special.bernoulli_poly", "special", "bernoulli_poly", None),
    ("special.euler_poly", "special", "euler_poly", None),
    ("special.power_sum_poly", "special", "power_sum_poly", None),
    ("special.sigma", "special", "sigma", None),
    ("special.mobius_bernoulli", "special", "mobius_bernoulli", None),
    ("special.norlund", "special", "norlund", None),
    ("dirichlet.conv", "dirichlet", "dirichlet_conv", None),
    ("dirichlet.inverse", "dirichlet", "dirichlet_inverse", None),
    ("dirichlet.twisted", "dirichlet", "gamma_twisted_conv", None),
    ("identities.check", "identities", "check", None),
    ("jsonio.dump", "jsonio", "seq_to_obj", None),
    ("jsonio.dump", "jsonio", "report_to_obj", None),
    ("jsonio.dump", "jsonio", "dumps_canonical", _text_bytes),
    ("jsonio.load", "jsonio", "obj_to_seq", None),
    ("jsonio.load", "jsonio", "parse_bfile", None),
    ("cli.main", "cli", "main", None),
)

# Per-term polynomial operators are counted only: a span per call would swamp the run.
COUNTERS = (
    ("poly.ratpoly_mul", "poly", "__mul__"),
    ("poly.ratpoly_add", "poly", "__add__"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = [REQUEST]
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def begin_request(self) -> None:
        self.start[self._open(0)] = perf_counter()

    def end_request(self) -> None:
        self.end[self.stack.pop()] = perf_counter()

    def _span(self, name: str, fn, work):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, start, end, calls, totals = self.stack, self.start, self.end, self.calls, self.work

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            calls[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if work is not None:
                totals[name] += work(args, result)
            return result

        return traced

    def _counter(self, name: str, fn):
        stack, calls = self.stack, self.calls

        def counted(*args, **kwargs):
            if stack:
                calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing -------------------------------------------------------

    def install(self, lib) -> None:
        """Rebind every traced function wherever a binomring namespace holds it."""
        owners = [m for n, m in sorted(sys.modules.items()) if n == "binomring" or n.startswith("binomring.")]
        owners.append(lib.poly.RatPoly)

        def resolve(module, attr):
            holder = lib.poly.RatPoly if module == "poly" else getattr(lib, module, None)
            return getattr(holder, attr, None)

        for name, module, attr, work in SPANS:
            fn = resolve(module, attr)
            if fn is not None:
                self._rebind(owners, fn, self._span(name, fn, work))
        for name, module, attr in COUNTERS:
            fn = resolve(module, attr)
            if fn is not None:
                self._rebind(owners, fn, self._counter(name, fn))

    def _rebind(self, owners, original, wrapper) -> None:
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def self_times(self) -> Counter:
        """Seconds of self time per span name, over all recorded spans."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: Counter = Counter()
        for i in range(n):
            out[self.names[self.name_id[i]]] += self.end[i] - self.start[i] - covered[i]
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated line: id, parent, name, start, end (seconds)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
