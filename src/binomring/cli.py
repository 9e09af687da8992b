"""Command-line front end.

Commands: gen (emit a named/parameterized sequence), op (apply a ring
operation to sequence files), verify (run a named identity check), table1
(compare computed Bernoulli roots against the published reference table),
oeis-compare (diff a sequence against a local OEIS b-file).

Exit codes: 0 success/pass, 1 identity or comparison failure, 2 usage
error, 3 mathematical domain error (non-unit input, unrepresentable root,
depth mismatch). TOOL_MAX_DEPTH (default 256) caps --depth; a value that
is not an integer >= 0 is a usage error. table1 also refuses a --depth
beyond the published table's 8.
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import jsonio
from .errors import DomainError
from .poly import RatPoly

if TYPE_CHECKING:
    from .seqcore import TruncSeq

# Each command imports the modules it runs, so a process loads no more than its command needs.

GENERATORS = ("e", "I", "nu", "eps", "xi1", "xi", "bernoulli", "bernoulli-poly",
              "euler1", "euler-poly", "norlund", "faulhaber", "mobius-bernoulli", "sigma")

OPERATIONS = ("bullet", "cauchy", "invert", "root", "pow", "transform", "invert-transform",
              "decompose")


class UsageError(Exception):
    pass


def __getattr__(name):
    # cli.identities, as the verify command sees it
    if name == "identities":
        from . import identities
        return identities
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _max_depth() -> int:
    raw = os.environ.get("TOOL_MAX_DEPTH", "256")
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise UsageError(f"TOOL_MAX_DEPTH must be an integer >= 0, got {raw!r}")
    return cap


def _check_depth(depth: int) -> int:
    cap = _max_depth()
    if depth < 0:
        raise UsageError("depth must be >= 0")
    if depth > cap:
        raise UsageError(f"depth {depth} exceeds TOOL_MAX_DEPTH={cap}")
    return depth


def _parse_rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from None


def _require(args, flag: str):
    v = getattr(args, flag, None)
    if v is None:
        raise UsageError(f"--{flag} is required here")
    return v


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _seq_to_csv(seq: TruncSeq) -> str:
    lines = ["k,numerator,denominator"]
    poly = any(isinstance(v, RatPoly) for v in seq)
    if poly:
        lines = ["k,poly"]
        for k, v in enumerate(seq):
            coeffs = v.coeffs if isinstance(v, RatPoly) else (v,)
            lines.append(f"{k},{' '.join(str(c) for c in coeffs)}")
    else:
        for k, v in enumerate(seq):
            lines.append(f"{k},{v.numerator},{v.denominator}")
    return "\n".join(lines)


def _seq_to_bfile(seq: TruncSeq) -> str:
    lines = []
    for k, v in enumerate(seq):
        if isinstance(v, RatPoly):
            raise UsageError("bfile format supports only rational-valued sequences")
        lines.append(f"{k} {v.numerator}" if v.denominator == 1 else f"{k} {v.numerator}/{v.denominator}")
    return "\n".join(lines)


def _serialize(args, name: str, seq: TruncSeq) -> str:
    if args.format == "json":
        return jsonio.dumps_canonical(jsonio.seq_to_obj(name, seq))
    if args.format == "csv":
        return _seq_to_csv(seq)
    return _seq_to_bfile(seq)


def _load_seq(path: str) -> tuple[str, TruncSeq]:
    import json

    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}") from None
    try:
        return jsonio.obj_to_seq(json.loads(text))
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def cmd_gen(args) -> int:
    name = args.name
    if name not in GENERATORS:
        raise UsageError(f"unknown generator {name!r}; choose from {', '.join(GENERATORS)}")
    depth = _check_depth(args.depth)
    from . import special
    from .seqcore import make_eps, make_named, make_xi

    if name in ("e", "I", "nu", "xi1"):
        seq = make_named(name, depth)
    elif name == "eps":
        seq = make_eps(_parse_rat(_require(args, "x")), depth)
    elif name == "xi":
        seq = make_xi(_parse_rat(_require(args, "x")), int(_require(args, "m")), depth)
    elif name == "bernoulli":
        seq = special.bernoulli(depth)
    elif name == "bernoulli-poly":
        seq = special.bernoulli_poly(depth)
    elif name == "euler1":
        seq = special.euler1(depth)
    elif name == "euler-poly":
        seq = special.euler_poly(depth)
    elif name == "norlund":
        seq = special.norlund(int(_require(args, "p")), int(_require(args, "q")), depth)
    elif name == "faulhaber":
        seq = special.faulhaber(int(_require(args, "n")), depth)
    elif name == "mobius-bernoulli":
        seq = special.mobius_bernoulli(int(_require(args, "n")), depth)
    else:
        seq = special.sigma(depth)
    _emit(args, _serialize(args, name, seq))
    return 0


def cmd_op(args) -> int:
    op = args.operation
    if op not in OPERATIONS:
        raise UsageError(f"unknown operation {op!r}; choose from {', '.join(OPERATIONS)}")
    files = args.files or ["-"]
    binary = op in ("bullet", "cauchy")
    if binary and len(files) != 2:
        raise UsageError(f"{op} needs exactly two input files")
    if not binary and len(files) != 1:
        raise UsageError(f"{op} needs exactly one input file")
    from .seqcore import binomial_invert, binomial_transform, bullet, cauchy
    from .units import decompose, inverse, mth_root, power_rat

    name, seq = _load_seq(files[0])
    if binary:
        _, other = _load_seq(files[1])
        result = bullet(seq, other) if op == "bullet" else cauchy(seq, other)
    elif op == "invert":
        result = inverse(seq)
    elif op == "root":
        result = mth_root(seq, int(_require(args, "m")))
    elif op == "pow":
        result = power_rat(seq, int(_require(args, "p")), int(args.q) if args.q is not None else 1)
    elif op == "transform":
        result = binomial_transform(seq)
    elif op == "invert-transform":
        result = binomial_invert(seq)
    else:
        parts = decompose(seq)
        obj = {
            "v": jsonio.seq_to_obj(name, parts.v),
            "w": jsonio.seq_to_obj(name, parts.w),
            "c": jsonio.seq_to_obj(name, parts.c),
        }
        _emit(args, jsonio.dumps_canonical(obj))
        return 0
    _emit(args, _serialize(args, name, result))
    return 0


def cmd_verify(args) -> int:
    params = {}
    for key in ("m", "n", "k", "p", "q"):
        v = getattr(args, key, None)
        if v is not None:
            params[key] = v
    if args.x is not None:
        params["x"] = _parse_rat(args.x)
    depth = _check_depth(args.depth)
    from . import identities

    try:
        report = identities.check(args.name, params, depth)
    except KeyError as exc:
        raise UsageError(str(exc)) from None
    _emit(args, jsonio.dumps_canonical(jsonio.report_to_obj(report)))
    return 0 if report.passed else 1


def cmd_table1(args) -> int:
    from .roots_table import PUBLISHED_ROOT_ROWS, TABLE_DEPTH, root_table_cells

    depth = _check_depth(args.depth)
    if depth > TABLE_DEPTH:
        raise UsageError(f"table1 depth {depth} exceeds the published table's depth {TABLE_DEPTH}")
    cells = root_table_cells(depth)
    widths = (3, 26, 26, 10)
    print(f"{'m,k':>{widths[0]}} {'computed':>{widths[1]}} {'published':>{widths[2]}} {'status':>{widths[3]}}")
    consistent = True
    diffs = 0
    for cell in cells:
        if not cell.matches_oracle:
            consistent = False
            status = "ORACLE-DIFF"
        elif cell.matches_published:
            status = "ok"
        else:
            status = "DIFF"
            diffs += 1
        print(f"{cell.m},{cell.k:>1} {str(cell.computed):>{widths[1]}} "
              f"{str(cell.published):>{widths[2]}} {status:>{widths[3]}}")
    print(f"rows m in {sorted(PUBLISHED_ROOT_ROWS)}; {diffs} published cells differ from "
          f"the computed/oracle values")
    return 0 if consistent else 1


def cmd_oeis_compare(args) -> int:
    name, seq = _load_seq(args.sequence)
    if any(isinstance(v, RatPoly) for v in seq):
        raise UsageError("oeis-compare needs a rational-valued sequence")
    try:
        with open(args.bfile, encoding="utf-8") as fh:
            entries = jsonio.parse_bfile(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {args.bfile}: {exc}") from None
    except jsonio.BFileError as exc:
        raise UsageError(f"{args.bfile}: {exc}") from None
    take = (lambda v: v.numerator) if args.transform == "numerator" else (lambda v: v.denominator)
    overlap = [(idx, val) for idx, val in entries if 0 <= idx <= seq.depth]
    if not overlap:
        raise UsageError("no overlap between sequence indices and b-file indices")
    for idx, val in overlap:
        ours = take(seq[idx])
        if ours != val:
            print(f"mismatch at index {idx}: sequence {args.transform} {ours}, b-file {val}")
            return 1
    lo, hi = overlap[0][0], overlap[-1][0]
    print(f"full agreement on {len(overlap)} indices ({lo}..{hi}) [{name}, {args.transform}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binomring",
        description="Exact binomial-convolution ring toolkit: sequence generators, "
                    "ring operations, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, default_depth=12):
        sp.add_argument("--depth", type=int, default=default_depth, help="truncation depth K")
        sp.add_argument("--format", choices=("json", "csv", "bfile"), default="json")
        sp.add_argument("--output", "-o", default=None, help="write to file instead of stdout")
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--q", type=int, default=None)
        sp.add_argument("--m", type=int, default=None)
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--x", default=None, help="rational NUM or NUM/DEN")

    sp = sub.add_parser("gen", help="generate a named sequence")
    sp.add_argument("name")
    add_common(sp)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("op", help="apply a ring operation to sequence JSON files")
    sp.add_argument("operation")
    sp.add_argument("files", nargs="*", help="input files ('-' = stdin)")
    add_common(sp)
    sp.set_defaults(fn=cmd_op)

    sp = sub.add_parser("verify", help="run a named identity check")
    sp.add_argument("name")
    add_common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("table1", help="compare computed Bernoulli roots with the published table")
    add_common(sp, default_depth=8)
    sp.set_defaults(fn=cmd_table1)

    sp = sub.add_parser("oeis-compare", help="compare a sequence against a local OEIS b-file")
    sp.add_argument("sequence", help="sequence JSON file")
    sp.add_argument("bfile", help="b-file path ('index value' lines)")
    sp.add_argument("--transform", choices=("numerator", "denominator"), required=True)
    add_common(sp)
    sp.set_defaults(fn=cmd_oeis_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse cannot place positionals after options when nargs="*" already
    # matched empty, so trailing file arguments surface as extras here
    args, extras = parser.parse_known_args(argv)
    try:
        if extras:
            if args.command == "op":
                args.files = list(args.files) + extras
            else:
                raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # out-of-range parameters rejected by the library (m < 1, q < 1, ...)
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
