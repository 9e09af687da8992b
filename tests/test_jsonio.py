"""Serialization round trips and b-file parsing."""
import json
from fractions import Fraction as F

import pytest

from binomring.identities import check
from binomring.jsonio import (
    BFileError,
    dumps_canonical,
    obj_to_seq,
    parse_bfile,
    report_to_obj,
    seq_to_obj,
)
from binomring.poly import RatPoly
from binomring.seqcore import TruncSeq
from binomring.special import bernoulli, bernoulli_poly


def test_rat_sequence_round_trip():
    seq = bernoulli(6)
    obj = seq_to_obj("bernoulli", seq)
    assert obj["name"] == "bernoulli"
    assert obj["depth"] == 6
    assert obj["values"][1] == ["-1", "2"]
    name, back = obj_to_seq(json.loads(dumps_canonical(obj)))
    assert name == "bernoulli" and back == seq


def test_poly_sequence_round_trip():
    seq = bernoulli_poly(4)
    obj = seq_to_obj("bernoulli-poly", seq)
    name, back = obj_to_seq(json.loads(dumps_canonical(obj)))
    assert back == seq
    assert isinstance(back[1], RatPoly)


def test_zero_poly_entry_round_trip():
    seq = TruncSeq([RatPoly.const(1), RatPoly()])
    _, back = obj_to_seq(seq_to_obj("z", seq))
    assert back == seq and isinstance(back[1], RatPoly)


def test_canonical_bytes_are_stable():
    a = dumps_canonical(seq_to_obj("s", TruncSeq([F(2, 4), F(-6, 3)])))
    b = dumps_canonical(seq_to_obj("s", TruncSeq([F(1, 2), F(-2)])))
    assert a == b  # reduced form with positive denominator is canonical


def test_depth_field_validated():
    obj = seq_to_obj("s", TruncSeq([1, 2, 3]))
    obj["depth"] = 7
    with pytest.raises(ValueError):
        obj_to_seq(obj)


def test_report_to_obj_shapes():
    obj = report_to_obj(check("eq3", depth=6))
    assert obj["pass"] is True and obj["first_failure"] is None
    assert list(obj.keys()) == ["name", "params", "depth", "pass", "first_failure"]

    from binomring.special import bernoulli as bern
    bad = TruncSeq([v + (1 if k == 2 else 0) for k, v in enumerate(bern(6))])
    obj = report_to_obj(check("eq3", {"bernoulli": bad}, depth=6))
    assert obj["pass"] is False
    assert set(obj["first_failure"].keys()) == {"index", "lhs", "rhs"}


def test_parse_bfile():
    entries = parse_bfile("# comment\n0 1\n1 -1\n\n2 1\n")
    assert entries == [(0, 1), (1, -1), (2, 1)]


def test_parse_bfile_errors():
    with pytest.raises(BFileError) as ei:
        parse_bfile("0 1\n1 x\n")
    assert ei.value.line_number == 2
    with pytest.raises(BFileError) as ei:
        parse_bfile("0 1 2\n")
    assert ei.value.line_number == 1
