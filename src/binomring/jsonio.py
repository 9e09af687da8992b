"""Canonical JSON serialization and b-file parsing.

Rationals travel as [numerator, denominator] pairs of decimal strings so
arbitrarily large values survive any JSON reader; polynomial values are
lists of such pairs (constant coefficient first). Serialization is
canonical: rationals reduced with positive denominator, keys in fixed
order, compact separators, so equal values produce identical bytes.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .poly import RatPoly
from .seqcore import TruncSeq

if TYPE_CHECKING:
    from .dirichlet import DirSeq
    from .identities import IdentityReport


def rat_to_pair(v: Fraction) -> list[str]:
    return [str(v.numerator), str(v.denominator)]


def pair_to_rat(pair) -> Fraction:
    if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(s, str) for s in pair)):
        raise ValueError(f"bad rational pair: {pair!r}")
    return Fraction(int(pair[0]), int(pair[1]))


def value_to_json(v):
    if isinstance(v, RatPoly):
        return [rat_to_pair(c) for c in v.coeffs]
    return rat_to_pair(v)


def value_from_json(obj):
    if isinstance(obj, list) and (not obj or isinstance(obj[0], list)):
        return RatPoly(pair_to_rat(p) for p in obj)
    return pair_to_rat(obj)


def seq_to_obj(name: str, seq: TruncSeq) -> dict:
    return {"name": name, "depth": seq.depth, "values": [value_to_json(v) for v in seq]}


def obj_to_seq(obj: dict) -> tuple[str, TruncSeq]:
    try:
        name = obj["name"]
        depth = obj["depth"]
        values = obj["values"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a sequence object: missing {exc}") from None
    seq = TruncSeq(value_from_json(v) for v in values)
    if seq.depth != depth:
        raise ValueError(f"depth field {depth} does not match {seq.depth + 1} values")
    return str(name), seq


def dirseq_to_obj(name: str, seq: DirSeq) -> dict:
    return {
        "name": name,
        "bound": seq.bound,
        "index_base": 1,
        "values": [rat_to_pair(v) for v in seq.values],
    }


def obj_to_dirseq(obj: dict) -> tuple[str, DirSeq]:
    from .dirichlet import DirSeq

    try:
        name = obj["name"]
        bound = obj["bound"]
        values = obj["values"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a Dirichlet sequence object: missing {exc}") from None
    seq = DirSeq(pair_to_rat(v) for v in values)
    if seq.bound != bound:
        raise ValueError(f"bound field {bound} does not match {seq.bound} values")
    return str(name), seq


def report_to_obj(report: IdentityReport) -> dict:
    failure = None
    if report.first_failure is not None:
        failure = {
            "index": report.first_failure.index
            if isinstance(report.first_failure.index, (int, str))
            else str(report.first_failure.index),
            "lhs": report.first_failure.lhs,
            "rhs": report.first_failure.rhs,
        }
    return {
        "name": report.name,
        "params": {k: str(v) for k, v in report.params.items()},
        "depth": report.depth,
        "pass": report.passed,
        "first_failure": failure,
    }


def dumps_canonical(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


class BFileError(ValueError):
    """Unparsable b-file content; carries the offending line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Parse 'index value' lines; blank lines and # comments are skipped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(lineno, f"expected two fields, got {len(parts)}")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise BFileError(lineno, f"non-integer field in {line!r}") from None
    return out
