"""Command-line front end.

Commands: gen (emit a named/parameterized sequence), op (apply a ring
operation to sequence files), verify (run a named identity check), table1
(compare computed Bernoulli roots against the published reference table),
oeis-compare (diff a sequence against a local OEIS b-file).

Three tables drive the command line. COMMANDS maps each command to its
handler, positionals, the flags it reads and its default depth; GENERATORS
and OPERATIONS map each gen and op name to its builder and the flags that
builder reads, and GENERATORS marks the polynomial-valued generators, which
gen refuses to write as a b-file before building anything. getopt parses
only the chosen command's flags, so a flag that the command, its generator
or operation, or the identity check does not read is a usage error, never
dropped. -h/--help prints usage built from the tables. No library module
loads before the command line is accepted, and then only those the command
runs: binomring.poly only where a polynomial is built or read.

Exit codes: 0 success/pass, 1 identity or comparison failure, 2 usage
error, 3 mathematical domain error (non-unit input, unrepresentable root,
depth mismatch). TOOL_MAX_DEPTH (default 256) caps --depth; a value that
is not an integer >= 0 is a usage error.

main(argv) returns the exit code. A process (python -m binomring.cli, or the
binomring console script) enters through run(), which ends the process
without interpreter teardown once main() has returned: it runs the atexit
callbacks, flushes stdout and stderr, and calls os._exit. Tearing the
interpreter down (its final garbage collection and module cleanup) costs
about 5 ms of a ~35 ms process and writes nothing. A failed flush ends the
process as the interpreter would: it reports the error and exits 120.
"""
from __future__ import annotations

import atexit
import getopt
import os
import sys
from typing import TYPE_CHECKING

import binomring as lib  # each name it exports loads its module on first use

from .errors import DomainError

if TYPE_CHECKING:
    from .seqcore import TruncSeq


class UsageError(Exception):
    pass


def __getattr__(name):
    # cli.identities, as the verify command sees it
    if name == "identities":
        from . import identities
        return identities
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# flag -> its value as usage shows it: K or INT is an integer, NUM[/DEN] a rational, a|b one of the choices
FLAGS = {"depth": "K", "format": "json|csv|bfile", "output": "FILE", "transform": "numerator|denominator",
         "p": "INT", "q": "INT", "m": "INT", "n": "INT", "k": "INT", "x": "NUM[/DEN]"}

# generator -> (its sequence from the flags o at depth K, the flags it reads, whether its values are polynomials)
GENERATORS = {
    "e": (lambda o, K: lib.make_named("e", K), "", False),
    "I": (lambda o, K: lib.make_named("I", K), "", False),
    "nu": (lambda o, K: lib.make_named("nu", K), "", False),
    "eps": (lambda o, K: lib.make_eps(o["x"], K), "x", False),
    "xi1": (lambda o, K: lib.make_named("xi1", K), "", False),
    "xi": (lambda o, K: lib.make_xi(o["x"], o["m"], K), "x m", False),
    "bernoulli": (lambda o, K: lib.bernoulli(K), "", False),
    "bernoulli-poly": (lambda o, K: lib.bernoulli_poly(K), "", True),
    "euler1": (lambda o, K: lib.euler1(K), "", False),
    "euler-poly": (lambda o, K: lib.euler_poly(K), "", True),
    "norlund": (lambda o, K: lib.norlund(o["p"], o["q"], K), "p q", False),
    "faulhaber": (lambda o, K: lib.faulhaber(o["n"], K), "n", False),
    "mobius-bernoulli": (lambda o, K: lib.mobius_bernoulli(o["n"], K), "n", True),
    "sigma": (lambda o, K: lib.sigma(K), "", True),
}

# operation -> (its result from the flags o and the input sequences, the flags it reads); decompose
# writes three sequences as one JSON object, so it reads no --format
OPERATIONS = {
    "bullet": (lambda o, f, g: lib.bullet(f, g), "format"),
    "cauchy": (lambda o, f, g: lib.cauchy(f, g), "format"),
    "invert": (lambda o, f: lib.inverse(f), "format"),
    "root": (lambda o, f: lib.mth_root(f, o["m"]), "format m"),
    "pow": (lambda o, f: lib.power_rat(f, o["p"], o.get("q", 1)), "format p q"),
    "transform": (lambda o, f: lib.binomial_transform(f), "format"),
    "invert-transform": (lambda o, f: lib.binomial_invert(f), "format"),
    "decompose": (lambda o, f: lib.decompose(f), ""),
}


class _Opts(dict):
    """The flags given, by name. ``in`` tells whether a flag was given; reading --depth when it was not
    gives the command's default depth, and reading any other flag not given is a usage error."""

    def __init__(self, depth):
        super().__init__()
        self.depth = depth

    def __missing__(self, flag):
        if flag == "depth":
            return self.depth
        raise UsageError(f"--{flag} is required here")


def _check_depth(depth: int) -> int:
    raw = os.environ.get("TOOL_MAX_DEPTH", "256")
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise UsageError(f"TOOL_MAX_DEPTH must be an integer >= 0, got {raw!r}")
    if depth < 0:
        raise UsageError("depth must be >= 0")
    if depth > cap:
        raise UsageError(f"depth {depth} exceeds TOOL_MAX_DEPTH={cap}")
    return depth


def _value(flag: str, text: str):
    """The value of --flag from its text, checked against the kind FLAGS gives it."""
    kind = FLAGS[flag]
    if kind in ("K", "INT"):
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"--{flag} needs an integer, got {text!r}") from None
    if kind == "NUM[/DEN]":
        from fractions import Fraction

        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational {text!r}: {exc}") from None
    if "|" in kind and text not in kind.split("|"):
        raise UsageError(f"--{flag} must be one of {kind.replace('|', ', ')}, got {text!r}")
    return text


def _emit(opts, text: str) -> None:
    if "output" not in opts:
        print(text)
        return
    try:
        with open(opts["output"], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {opts['output']}: {exc}") from None


def _refuse_bfile(opts, poly: bool) -> None:
    if poly and opts.get("format") == "bfile":
        raise UsageError("bfile format supports only rational-valued sequences")


def _serialize(opts, name: str, seq: TruncSeq) -> str:
    from . import jsonio
    from .seqcore import _is_poly

    fmt = opts.get("format", "json")
    if fmt == "json":
        return jsonio.dumps_canonical(jsonio.seq_to_obj(name, seq))
    poly = any(map(_is_poly, seq))
    _refuse_bfile(opts, poly)
    if fmt == "bfile":
        return "\n".join(f"{k} {v}" for k, v in enumerate(seq))
    lines = ["k,poly" if poly else "k,numerator,denominator"]
    for k, v in enumerate(seq):
        if poly:
            coeffs = v.coeffs if _is_poly(v) else (v,)
            lines.append(f"{k},{' '.join(str(c) for c in coeffs)}")
        else:
            lines.append(f"{k},{v.numerator},{v.denominator}")
    return "\n".join(lines)


def _load_seq(path: str) -> tuple[str, TruncSeq]:
    import json

    from . import jsonio

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


def cmd_gen(opts, name) -> int:
    depth = _check_depth(opts["depth"])
    build, _, poly = GENERATORS[name]
    _refuse_bfile(opts, poly)  # before the sequence is built
    _emit(opts, _serialize(opts, name, build(opts, depth)))
    return 0


def cmd_op(opts, op, *files) -> int:
    files = files or ("-",)
    binary = op in ("bullet", "cauchy")
    if len(files) != 1 + binary:
        raise UsageError(f"{op} needs exactly {'two input files' if binary else 'one input file'}")
    loaded = [_load_seq(path) for path in files]
    name = loaded[0][0]
    result = OPERATIONS[op][0](opts, *(seq for _, seq in loaded))
    if op == "decompose":
        from . import jsonio

        _emit(opts, jsonio.dumps_canonical({k: jsonio.seq_to_obj(name, getattr(result, k)) for k in "vwc"}))
    else:
        _emit(opts, _serialize(opts, name, result))
    return 0


def cmd_verify(opts, name) -> int:
    params = {key: value for key, value in opts.items() if key not in ("depth", "output")}
    depth = _check_depth(opts["depth"])
    from . import identities

    try:
        if "depth" in opts and "depth" not in identities.reads(name):
            raise UsageError(f"verify {name} does not read --depth: it compares the same values at every depth")
        report = identities.check(name, params, depth)
    except KeyError as exc:
        raise UsageError(str(exc)) from None
    from . import jsonio

    _emit(opts, jsonio.dumps_canonical(jsonio.report_to_obj(report)))
    return 0 if report.passed else 1


def cmd_table1(opts) -> int:
    depth = _check_depth(opts["depth"])
    from .roots_table import TABLE_DEPTH, _print_table1

    if depth > TABLE_DEPTH:
        raise UsageError(f"table1 depth {depth} exceeds the published table's depth {TABLE_DEPTH}")
    return 0 if _print_table1(depth) else 1


def cmd_oeis_compare(opts, sequence, bfile) -> int:
    transform = opts["transform"]
    name, seq = _load_seq(sequence)
    from . import jsonio
    from .seqcore import _is_poly

    if any(map(_is_poly, seq)):
        raise UsageError("oeis-compare needs a rational-valued sequence")
    try:
        with open(bfile, encoding="utf-8") as fh:
            entries = jsonio.parse_bfile(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {bfile}: {exc}") from None
    except jsonio.BFileError as exc:
        raise UsageError(f"{bfile}: {exc}") from None
    overlap = [(idx, val) for idx, val in entries if 0 <= idx <= seq.depth]
    if not overlap:
        raise UsageError("no overlap between sequence indices and b-file indices")
    for idx, val in overlap:
        ours = getattr(seq[idx], transform)
        if ours != val:
            print(f"mismatch at index {idx}: sequence {transform} {ours}, b-file {val}")
            return 1
    lo, hi = overlap[0][0], overlap[-1][0]
    print(f"full agreement on {len(overlap)} indices ({lo}..{hi}) [{name}, {transform}]")
    return 0


# command -> (handler, positionals, the flags it reads, default --depth, the table its first positional names)
COMMANDS = {
    "gen": (cmd_gen, "GENERATOR", "depth format output", 12, GENERATORS),
    "op": (cmd_op, "OPERATION [FILE...]", "output", None, OPERATIONS),
    "verify": (cmd_verify, "NAME", "depth output m n k p", 12, None),
    "table1": (cmd_table1, "", "depth", 8, None),
    "oeis-compare": (cmd_oeis_compare, "SEQUENCE BFILE", "transform", None, None),
}


def _flag_usage(names: str) -> str:
    return " ".join(f"--{f} {FLAGS[f]}" for f in names.split())


def _usage() -> str:
    lines = ["usage: binomring COMMAND ARGUMENTS FLAGS; a flag the command does not read exits 2", ""]
    for command, (_, positionals, flags, depth, _) in COMMANDS.items():
        default = f"(default --depth {depth})" if depth is not None else ""
        lines.append("  " + " ".join(filter(None, (command, positionals, _flag_usage(flags), default))))
    for title, table in (("gen GENERATOR also reads", GENERATORS), ("op OPERATION also reads", OPERATIONS)):
        lines += ["", f"{title}:"] + [f"  {name} {_flag_usage(row[1])}".rstrip() for name, row in table.items()]
    lines += ["", "-o is short for --output. TOOL_MAX_DEPTH (default 256) caps --depth. Exit codes: 0 pass,",
              "1 comparison failed, 2 usage error, 3 domain error."]
    return "\n".join(lines)


def _parse(command: str, argv: list) -> list | None:
    """The handler's arguments, the flags and then the positionals, checked against the tables; None for --help."""
    _, positionals, flags, depth, table = COMMANDS[command]
    names = flags.split()
    for row in (table or {}).values():
        names += [f for f in row[1].split() if f not in names]
    short = "ho:" if "output" in names else "h"
    # getopt.getopt stops at each positional: take it and read on, so flags may follow positionals
    # whatever the environment (gnu_getopt would stop for good if POSIXLY_CORRECT were set)
    cut = argv.index("--") if "--" in argv else len(argv)
    given, args, rest = [], [], argv[:cut]
    try:
        while rest:
            found, rest = getopt.getopt(rest, short, [f + "=" for f in names] + ["help"])
            given += found
            args += rest[:1]
            rest = rest[1:]
    except getopt.GetoptError as exc:
        raise UsageError(f"{exc}; {command} reads {' '.join('--' + f for f in names)}") from None
    args += argv[cut + 1:]
    opts = _Opts(depth)
    for flag, text in given:
        if flag in ("-h", "--help"):
            return None
        flag = "output" if flag == "-o" else flag[2:]
        opts[flag] = _value(flag, text)
    fixed = [p for p in positionals.split() if not p.startswith("[")]
    if len(args) < len(fixed) or (len(args) > len(fixed) and "..." not in positionals):
        raise UsageError(f"{command} takes {positionals or 'no arguments'}, got {' '.join(args) or 'none'}")
    if table is not None:
        kind, name = fixed[0].lower(), args[0]
        if name not in table:
            raise UsageError(f"unknown {kind} {name!r}; choose from {', '.join(table)}")
        reads = flags.split() + table[name][1].split()
        unread = [f"--{f}" for f in opts if f not in reads]
        if unread:
            raise UsageError(f"{command} {name} does not read {', '.join(unread)}; "
                             f"it reads {' '.join('--' + f for f in reads)}")
    return [opts, *args]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv[:1] not in (["-h"], ["--help"]):
            if not argv or argv[0] not in COMMANDS:
                got = repr(argv[0]) if argv else "none"
                raise UsageError(f"choose a command from {', '.join(COMMANDS)}, got {got}; binomring --help for usage")
            parsed = _parse(argv[0], argv[1:])
            if parsed is not None:
                return COMMANDS[argv[0]][0](*parsed)
        print(_usage())
        return 0
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


def run() -> None:
    """The process entry: main(), then the atexit callbacks and the final flush that the interpreter's exit
    would run, in its order, then os._exit in place of the teardown."""
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        # the interpreter flushes again, reports the failure and exits 120, as a plain exit would have
        sys.exit(120)
    os._exit(code)


if __name__ == "__main__":
    run()
