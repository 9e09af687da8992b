"""CLI behaviour: formats, exit codes, round trips."""
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction as F

import pytest

from binomring.cli import main
from binomring.jsonio import obj_to_seq
from binomring.special import bernoulli
from binomring.units import mth_root

DATA = os.path.join(os.path.dirname(__file__), "data")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_bernoulli(capsys):
    code, out, _ = run(capsys, "gen", "bernoulli", "--depth", "4")
    assert code == 0
    _, seq = obj_to_seq(json.loads(out))
    assert list(seq) == [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30)]


def test_gen_e_depth_zero(capsys):
    code, out, _ = run(capsys, "gen", "e", "--depth", "0")
    assert code == 0
    assert json.loads(out)["values"] == [["1", "1"]]


def test_gen_norlund_table_row(capsys):
    code, out, _ = run(capsys, "gen", "norlund", "--p", "1", "--q", "2", "--depth", "8")
    assert code == 0
    _, seq = obj_to_seq(json.loads(out))
    assert seq == mth_root(bernoulli(8), 2)


def test_gen_unknown_name(capsys):
    code, _, err = run(capsys, "gen", "fibonacci")
    assert code == 2 and "unknown generator" in err


def test_gen_missing_param(capsys):
    code, _, err = run(capsys, "gen", "eps")
    assert code == 2 and "--x is required" in err


def test_gen_eps_and_csv(capsys):
    code, out, _ = run(capsys, "gen", "eps", "--x", "2/3", "--depth", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,numerator,denominator", "0,1,1", "1,2,3", "2,4,9"]


def test_gen_bfile_format(capsys):
    code, out, _ = run(capsys, "gen", "bernoulli", "--depth", "3", "--format", "bfile")
    assert code == 0
    assert out.splitlines() == ["0 1", "1 -1/2", "2 1/6", "3 0"]


def test_gen_poly_json(capsys):
    code, out, _ = run(capsys, "gen", "bernoulli-poly", "--depth", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["values"][1] == [["-1", "2"], ["1", "1"]]


def test_gen_remaining_generators(capsys):
    for argv in (["gen", "sigma", "--depth", "3"],
                 ["gen", "euler-poly", "--depth", "3"],
                 ["gen", "euler1", "--depth", "3"],
                 ["gen", "mobius-bernoulli", "--n", "6", "--depth", "3"],
                 ["gen", "faulhaber", "--n", "4", "--depth", "3"],
                 ["gen", "xi", "--x", "1/2", "--m", "2", "--depth", "3"],
                 ["gen", "nu", "--depth", "3"],
                 ["gen", "xi1", "--depth", "3"],
                 ["gen", "I", "--depth", "3"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["depth"] == 3


def test_depth_cap(capsys, monkeypatch):
    monkeypatch.setenv("TOOL_MAX_DEPTH", "10")
    code, _, err = run(capsys, "gen", "bernoulli", "--depth", "11")
    assert code == 2 and "TOOL_MAX_DEPTH" in err


def test_op_invert(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "xi1", "--depth", "8")
    xi1 = tmp_path / "xi1.json"
    xi1.write_text(out)
    code, out, _ = run(capsys, "op", "invert", str(xi1))
    assert code == 0
    _, seq = obj_to_seq(json.loads(out))
    assert seq == bernoulli(8)


def test_op_root_table_row(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "bernoulli", "--depth", "8")
    path = tmp_path / "bernoulli.json"
    path.write_text(out)
    code, out, _ = run(capsys, "op", "root", "--m", "2", str(path))
    assert code == 0
    _, seq = obj_to_seq(json.loads(out))
    assert seq == mth_root(bernoulli(8), 2)


def test_op_bullet(tmp_path, capsys):
    _, out, _ = run(capsys, "gen", "I", "--depth", "6")
    (tmp_path / "i.json").write_text(out)
    _, out, _ = run(capsys, "gen", "nu", "--depth", "6")
    (tmp_path / "nu.json").write_text(out)
    code, out, _ = run(capsys, "op", "bullet", str(tmp_path / "i.json"), str(tmp_path / "nu.json"))
    assert code == 0
    obj = json.loads(out)
    assert obj["values"][0] == ["1", "1"]
    assert all(v == ["0", "1"] for v in obj["values"][1:])


def test_op_invert_twice_round_trips_bytes(tmp_path, capsys):
    _, original, _ = run(capsys, "gen", "bernoulli", "--depth", "10")
    f1 = tmp_path / "a.json"
    f1.write_text(original)
    _, once, _ = run(capsys, "op", "invert", str(f1))
    f2 = tmp_path / "b.json"
    f2.write_text(once)
    _, twice, _ = run(capsys, "op", "invert", str(f2))
    assert twice == original


def test_op_non_unit_exit_code(tmp_path, capsys):
    _, out, _ = run(capsys, "gen", "faulhaber", "--n", "0", "--depth", "4")  # all zeros
    path = tmp_path / "zeros.json"
    path.write_text(out)
    code, _, err = run(capsys, "op", "invert", str(path))
    assert code == 3 and "NotAUnit" in err


def test_op_root_not_representable(tmp_path, capsys):
    # xi_{2,1} starts at 2, which has no rational square root
    _, out, _ = run(capsys, "gen", "xi", "--x", "2", "--m", "1", "--depth", "4")
    path = tmp_path / "xi2.json"
    path.write_text(out)
    code, _, err = run(capsys, "op", "pow", "--p", "1", "--q", "2", str(path))
    assert code == 3 and "RootNotRepresentable" in err


def test_op_depth_mismatch(tmp_path, capsys):
    _, a, _ = run(capsys, "gen", "I", "--depth", "4")
    _, b, _ = run(capsys, "gen", "I", "--depth", "5")
    (tmp_path / "a.json").write_text(a)
    (tmp_path / "b.json").write_text(b)
    code, _, err = run(capsys, "op", "bullet", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    assert code == 3 and "DepthMismatch" in err


def test_op_decompose(tmp_path, capsys):
    _, out, _ = run(capsys, "gen", "bernoulli", "--depth", "6")
    path = tmp_path / "b.json"
    path.write_text(out)
    code, out, _ = run(capsys, "op", "decompose", str(path))
    assert code == 0
    obj = json.loads(out)
    assert set(obj.keys()) == {"v", "w", "c"}
    _, v = obj_to_seq(obj["v"])
    assert v[1] == F(-1, 2)


def test_op_transform_roundtrip(tmp_path, capsys):
    _, out, _ = run(capsys, "gen", "nu", "--depth", "6")
    src = tmp_path / "nu.json"
    src.write_text(out)
    code, mid, _ = run(capsys, "op", "transform", str(src))
    assert code == 0
    (tmp_path / "t.json").write_text(mid)
    code, back, _ = run(capsys, "op", "invert-transform", str(tmp_path / "t.json"))
    assert code == 0 and back == out


def test_verify_carlitz(capsys):
    code, out, _ = run(capsys, "verify", "carlitz", "--m", "1", "--n", "2")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_failing_report_exit_code(capsys, monkeypatch):
    from binomring import cli
    from binomring.identities import FirstFailure, IdentityReport

    failing = IdentityReport("eq3", {}, 6, False, FirstFailure(0, "1", "2"))
    monkeypatch.setattr(cli.identities, "check", lambda *a, **k: failing)
    code, out, _ = run(capsys, "verify", "eq3")
    assert code == 1
    obj = json.loads(out)
    assert obj["pass"] is False and obj["first_failure"]["index"] == 0


def test_verify_eq29(capsys):
    code, out, _ = run(capsys, "verify", "eq29", "--n", "6", "--k", "2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["params"]["value"] == "26"


def test_verify_unknown(capsys):
    for extra in ([], ["--depth", "5"]):
        code, _, err = run(capsys, "verify", "nosuch", *extra)
        assert code == 2 and err.startswith("error: \"unknown identity: 'nosuch'\"")


def test_verify_invalid_params(capsys):
    code, _, err = run(capsys, "verify", "eq9", "--n", "0")
    assert code == 2 and "invalid parameters" in err


def test_table1(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0  # computed always matches the oracle
    lines = out.splitlines()
    assert any("DIFF" in ln for ln in lines)  # published m>=3 rows deviate
    assert sum("ok" in ln.split()[-1:] for ln in lines if ln and ln[0].isdigit()) >= 9
    assert "21 published cells differ" in out


def test_oeis_compare_numerators(tmp_path, capsys):
    _, out, _ = run(capsys, "gen", "norlund", "--p", "1", "--q", "2", "--depth", "8")
    path = tmp_path / "half.json"
    path.write_text(out)
    code, out, _ = run(capsys, "oeis-compare", str(path), os.path.join(DATA, "b241885.txt"),
                       "--transform", "numerator")
    assert code == 0 and "full agreement" in out
    code, out, _ = run(capsys, "oeis-compare", str(path), os.path.join(DATA, "b242225.txt"),
                       "--transform", "denominator")
    assert code == 0 and "full agreement" in out


def test_oeis_compare_mismatch(tmp_path, capsys):
    _, out, _ = run(capsys, "gen", "bernoulli", "--depth", "8")
    path = tmp_path / "b.json"
    path.write_text(out)
    code, out, _ = run(capsys, "oeis-compare", str(path), os.path.join(DATA, "b241885.txt"),
                       "--transform", "numerator")
    assert code == 1 and "mismatch at index" in out


def test_oeis_compare_no_overlap(tmp_path, capsys):
    bf = tmp_path / "far.txt"
    bf.write_text("100 1\n101 2\n")
    _, out, _ = run(capsys, "gen", "bernoulli", "--depth", "4")
    path = tmp_path / "b.json"
    path.write_text(out)
    code, _, err = run(capsys, "oeis-compare", str(path), str(bf), "--transform", "numerator")
    assert code == 2 and "no overlap" in err


def test_oeis_compare_bad_bfile(tmp_path, capsys):
    bf = tmp_path / "bad.txt"
    bf.write_text("0 1\nnot numbers here\n")
    _, out, _ = run(capsys, "gen", "bernoulli", "--depth", "4")
    path = tmp_path / "b.json"
    path.write_text(out)
    code, _, err = run(capsys, "oeis-compare", str(path), str(bf), "--transform", "numerator")
    assert code == 2 and "line 2" in err


def test_output_flag(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "gen", "e", "--depth", "2", "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["depth"] == 2


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    _, out, _ = run(capsys, "gen", "xi1", "--depth", "5")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "op", "invert")
    assert code == 0
    _, seq = obj_to_seq(json.loads(out))
    assert seq == bernoulli(5)


@pytest.mark.parametrize("argv", [
    ("op", "root", "--m", "0", "FILE"),
    ("op", "pow", "--p", "1", "--q", "0", "FILE"),
    ("gen", "xi", "--x", "1", "--m", "0"),
    ("gen", "norlund", "--p", "1", "--q", "0"),
])
def test_out_of_range_parameter_exit_code(tmp_path, capsys, argv):
    path = tmp_path / "e.json"
    path.write_text('{"name": "e", "depth": 2, "values": [["1","1"], ["0","1"], ["0","1"]]}')
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: invalid parameters:") and "Traceback" not in err


def test_op_zero_denominator_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "bad", "depth": 0, "values": [["1","0"]]}')
    code, _, err = run(capsys, "op", "invert", str(path))
    assert code == 2 and "bad.json" in err


def test_op_pow_and_root_bytes_on_polynomial_file(tmp_path, capsys):
    _, out, _ = run(capsys, "gen", "bernoulli-poly", "--depth", "2")
    path = tmp_path / "bp.json"
    path.write_text(out)
    # a positive integer power keeps entry 0 a constant polynomial; a root makes it a rational
    _, out, _ = run(capsys, "op", "pow", "--p", "2", str(path))
    assert out == ('{"name":"bernoulli-poly","depth":2,"values":[[["1","1"]],'
                   '[["-1","1"],["2","1"]],[["5","6"],["-4","1"],["4","1"]]]}\n')
    _, out, _ = run(capsys, "op", "root", "--m", "2", str(path))
    assert out == ('{"name":"bernoulli-poly","depth":2,"values":[["1","1"],'
                   '[["-1","4"],["1","2"]],[["1","48"],["-1","4"],["1","4"]]]}\n')


@pytest.mark.parametrize("argv", [
    ("verify", "gould12", "--m", "-1"),
    ("verify", "gould12", "--n", "-2"),
    ("verify", "eq31", "--m", "-3", "--n", "1"),
    ("verify", "eq31", "--n", "-1"),
])
def test_verify_negative_indices_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: invalid parameters:") and "Traceback" not in err


@pytest.mark.parametrize("cap", ["abc", "-1", "2.5", ""])
def test_bad_depth_cap_is_a_usage_error(capsys, monkeypatch, cap):
    monkeypatch.setenv("TOOL_MAX_DEPTH", cap)
    code, out, err = run(capsys, "gen", "e", "--depth", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: TOOL_MAX_DEPTH") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "tuenter", "--n", "-5"),
    ("verify", "eq23", "--n", "0"),
    ("verify", "eq24", "--n", "0"),
    ("verify", "eq9-k0-a", "--n", "0"),
    ("verify", "eq9-k0-b", "--n", "0"),
])
def test_verify_empty_range_is_a_usage_error(capsys, argv):
    # n < 1 would compare nothing and pass vacuously
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: invalid parameters: n must be >= 1\n"


def test_table1_depth_beyond_published_table(capsys):
    code, out, err = run(capsys, "table1", "--depth", "20")
    assert code == 2 and out == ""
    assert err.startswith("error: table1 depth 20 exceeds") and "Traceback" not in err
    code, out, _ = run(capsys, "table1", "--depth", "8")
    assert code == 0 and out == run(capsys, "table1")[1]


@pytest.mark.parametrize("argv, message", [
    (("verify", "carlitz", "--x", "5/3", "--k", "99"), "carlitz does not take 'k', 'x'; it takes m, n, bernoulli"),
    (("verify", "eq25-iso", "--k", "-1"), "eq25-iso does not take 'k'; it takes seed, f, g"),
    (("verify", "prop10", "--n", "0"), "prop10 does not take 'n'; it takes seed, f, g"),
    (("verify", "eq3", "--q", "7"), "eq3 does not take 'q'; it takes bernoulli"),
    (("verify", "eq20", "--m", "1"), "eq20 does not take 'm'; it takes no parameters"),
], ids=["carlitz", "eq25-iso", "prop10", "eq3", "eq20"])
def test_verify_parameter_the_check_does_not_read(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: invalid parameters: {message}\n"


def test_verify_eq31_large_n_stays_bounded(tmp_path):
    # binom of m + n + s > 512 comes from math.comb, so no Pascal triangle of 3000 rows is kept
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "binomring.cli", "verify", "eq31", "--m", "1", "--n", "3000"],
                          env=dict(os.environ, PYTHONPATH=path), cwd=tmp_path, capture_output=True, text=True,
                          timeout=60, preexec_fn=limit)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


@pytest.mark.parametrize("argv, message", [
    (("gen", "bernoulli", "--x", "5"), "error: gen bernoulli does not read --x"),
    (("gen", "e", "--format", "bfile", "--n", "4"), "error: gen e does not read --n"),
    (("table1", "--x", "3"), "error: option --x not recognized"),
    (("table1", "-o", "FILE"), "error: option -o not recognized"),
    (("verify", "eq3", "--format", "csv"), "error: option --format not recognized"),
    (("oeis-compare", "SEQ", "BFILE", "--transform", "numerator", "--depth", "5"),
     "error: option --depth not recognized"),
    (("op", "bullet", "SEQ", "--depth", "3", "SEQ"), "error: option --depth not recognized"),
    (("op", "decompose", "SEQ", "--format", "csv"), "error: op decompose does not read --format"),
    (("gen", "bernoulli", "--depth", "abc"), "error: --depth needs an integer, got 'abc'"),
    (("gen", "bernoulli", "--format", "xml"), "error: --format must be one of json, csv, bfile"),
    (("oeis-compare", "SEQ", "BFILE", "--transform", "both"), "error: --transform must be one of numerator"),
    (("oeis-compare", "SEQ", "BFILE"), "error: --transform is required here"),
    (("gen", "bernoulli", "--depth"), "error: option --depth requires argument"),
    (("gen",), "error: gen takes GENERATOR, got none"),
    (("table1", "extra"), "error: table1 takes no arguments, got extra"),
    (("frobnicate",), "error: choose a command from gen, op, verify, table1, oeis-compare, got 'frobnicate'"),
    ((), "error: choose a command from gen, op, verify, table1, oeis-compare, got none"),
])
def test_bad_command_line_is_a_usage_error(tmp_path, capsys, argv, message):
    seq = tmp_path / "seq.json"
    seq.write_text('{"name": "e", "depth": 2, "values": [["1","1"], ["0","1"], ["0","1"]]}')
    subst = {"SEQ": str(seq), "BFILE": os.path.join(DATA, "b241885.txt"), "FILE": str(tmp_path / "out.txt")}
    code, out, err = run(capsys, *(subst.get(a, a) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(message) and "Traceback" not in err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("argv", [("--depth=5",), ("--dep", "5"), ("--de=5",), ("--depth", "3", "--depth", "5")])
def test_depth_flag_spellings(capsys, argv):
    assert run(capsys, "gen", "bernoulli", *argv) == run(capsys, "gen", "bernoulli", "--depth", "5")


def test_short_output_flag(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "gen", "e", "-o", str(target), "--depth", "2")
    assert code == 0 and out == ""
    assert target.read_text() == run(capsys, "gen", "e", "--depth", "2")[1]


def test_op_flags_among_the_files(tmp_path, capsys):
    for name in ("I", "nu"):
        (tmp_path / f"{name}.json").write_text(run(capsys, "gen", name, "--depth", "3")[1])
    a, b = str(tmp_path / "I.json"), str(tmp_path / "nu.json")
    code, out, _ = run(capsys, "op", "bullet", a, "--format", "csv", b)
    assert code == 0 and out.splitlines() == ["k,numerator,denominator", "0,1,1", "1,0,1", "2,0,1", "3,0,1"]
    assert run(capsys, "op", "bullet", "--format=csv", "--", a, b)[1] == out
    assert run(capsys, "op", "root", a, "--m", "2") == run(capsys, "op", "root", "--m", "2", a)


@pytest.mark.parametrize("x", [("--x", "-1/2"), ("--x=-1/2",)])
def test_negative_rational_value(capsys, x):
    code, out, _ = run(capsys, "gen", "eps", *x, "--depth", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,numerator,denominator", "0,1,1", "1,-1,2", "2,1,4", "3,-1,8"]


@pytest.mark.parametrize("argv", [("--help",), ("-h",), ("gen", "--help"), ("op", "root", "-h"), ("table1", "--he")])
def test_help_names_every_command_generator_and_operation(capsys, argv):
    from binomring.cli import COMMANDS, GENERATORS, OPERATIONS

    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    words = set(out.split())
    assert set(COMMANDS) | set(GENERATORS) | set(OPERATIONS) <= words


@pytest.mark.parametrize("name", ["carlitz", "eq29"])
def test_verify_refuses_depth_for_a_check_that_never_reads_it(capsys, name):
    code, out, err = run(capsys, "verify", name, "--depth", "3")
    assert code == 2 and out == ""
    assert err.startswith(f"error: verify {name} does not read --depth")
    code, out, _ = run(capsys, "verify", name)
    assert code == 0 and json.loads(out)["depth"] == 12


def test_verify_accepts_depth_for_every_check_that_reads_it(capsys):
    from binomring.identities import reads_depth, registered_names

    names = [name for name in registered_names() if reads_depth(name)]
    assert len(names) == len(registered_names()) - 2
    for name in names:
        code, out, err = run(capsys, "verify", name, "--depth", "4")
        assert code == 0, (name, err)
        assert json.loads(out)["depth"] == 4


def test_posixly_correct_has_no_effect(capsys, monkeypatch):
    # flags may follow the positionals whatever the environment
    want = run(capsys, "gen", "bernoulli", "--depth", "3")
    assert want[0] == 0
    monkeypatch.setenv("POSIXLY_CORRECT", "1")
    assert run(capsys, "gen", "bernoulli", "--depth", "3") == want
    assert run(capsys, "gen", "--depth", "3", "bernoulli") == want


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "gen", "e", "--depth", "2", "-o", str(tmp_path / "missing" / "out.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write") and "Traceback" not in err
