"""CLI behaviour: formats, exit codes, round trips."""
import hashlib
import io
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
    ("verify", "carlitz", "--m", "-1", "--n", "2"),
    ("verify", "carlitz", "--n", "-1"),
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


@pytest.mark.parametrize("argv, floor", [(("verify", "eq15", "--depth", "0"), 1),
                                         (("verify", "eq18", "--depth", "2"), 3)], ids=["eq15", "eq18"])
def test_verify_below_the_depth_floor_is_a_usage_error(capsys, argv, floor):
    # below its floor the check would compare nothing and pass vacuously
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: invalid parameters: depth must be >= {floor}\n"


def test_table1_depth_beyond_published_table(capsys):
    code, out, err = run(capsys, "table1", "--depth", "20")
    assert code == 2 and out == ""
    assert err.startswith("error: table1 depth 20 exceeds") and "Traceback" not in err
    code, out, _ = run(capsys, "table1", "--depth", "8")
    assert code == 0 and out == run(capsys, "table1")[1]


@pytest.mark.parametrize("argv, message", [
    (("verify", "carlitz", "--k", "99"), "carlitz does not take 'k'; it takes m, n, bernoulli"),
    (("verify", "eq25-iso", "--k", "-1"), "eq25-iso does not take 'k'; it takes seed, f, g"),
    (("verify", "prop10", "--n", "0"), "prop10 does not take 'n'; it takes seed, f, g"),
    (("verify", "eq3", "--n", "7"), "eq3 does not take 'n'; it takes bernoulli"),
    (("verify", "eq20", "--m", "1"), "eq20 does not take 'm'; it takes no parameters"),
], ids=["carlitz", "eq25-iso", "prop10", "eq3", "eq20"])
def test_verify_parameter_the_check_does_not_read(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: invalid parameters: {message}\n"


def child(cwd, *args, limit_mb=None):
    """A fresh interpreter running args in cwd, with src/ importable and PYTHONUNBUFFERED unset, so stdout is
    block-buffered and output the process does not flush goes missing; limit_mb caps its address space."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_mb << 20, limit_mb << 20))

    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, timeout=60,
                          preexec_fn=limit if limit_mb else None)


def test_verify_eq31_large_n_stays_bounded(tmp_path):
    # binom of m + n + s > 512 comes from math.comb, so no Pascal triangle of 3000 rows is kept
    proc = child(tmp_path, "-m", "binomring.cli", "verify", "eq31", "--m", "1", "--n", "3000", limit_mb=512)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


def test_mobius_bernoulli_large_n_stays_bounded(tmp_path, capsys):
    # 10^11 = 2^11 5^11 is factored by trial division, with no sieve table of size n; its squarefree
    # divisors are those of 10, so the values are the ones for n = 10
    proc = child(tmp_path, "-m", "binomring.cli", "gen", "mobius-bernoulli", "--n", "100000000000", "--depth", "3",
                 limit_mb=512)
    assert proc.returncode == 0, proc.stderr
    _, want, _ = run(capsys, "gen", "mobius-bernoulli", "--n", "10", "--depth", "3")
    assert proc.stdout.decode() == want


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
    (("verify", "eq3", "--q", "7"), "error: option --q not recognized"),
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
    from binomring.identities import reads, registered_names

    names = [name for name in registered_names() if "depth" in reads(name)]
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


def test_process_output_matches_main(tmp_path, capsys):
    # run() ends the process with os._exit, so its stdout and -o file are complete only if it flushed
    _, want, _ = run(capsys, "gen", "bernoulli", "--depth", "256")
    assert len(want) > io.DEFAULT_BUFFER_SIZE
    proc = child(tmp_path, "-m", "binomring.cli", "gen", "bernoulli", "--depth", "256")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want.encode(), b"")
    proc = child(tmp_path, "-m", "binomring.cli", "gen", "bernoulli", "--depth", "256", "-o", "out.json")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert (tmp_path / "out.json").read_text() == want


@pytest.mark.parametrize("argv, code", [
    (("gen", "e", "--depth", "2"), 0),
    (("oeis-compare", "B8", os.path.join(DATA, "b241885.txt"), "--transform", "numerator"), 1),
    (("gen", "fibonacci"), 2),
    (("op", "invert", "ZEROS"), 3),
])
def test_process_exit_codes(tmp_path, capsys, argv, code):
    (tmp_path / "B8").write_text(run(capsys, "gen", "bernoulli", "--depth", "8")[1])
    (tmp_path / "ZEROS").write_text(run(capsys, "gen", "faulhaber", "--n", "0", "--depth", "4")[1])
    want = run(capsys, *(str(tmp_path / a) if a in ("B8", "ZEROS") else a for a in argv))
    assert want[0] == code
    proc = child(tmp_path, "-m", "binomring.cli", *argv)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == want


def test_process_runs_atexit_callbacks(tmp_path, capsys):
    script = ("import atexit, sys\n"
              "atexit.register(print, 'callback ran')\n"
              "sys.argv = ['binomring', 'gen', 'e', '--depth', '2']\n"
              "from binomring.cli import run\n"
              "run()\n")
    proc = child(tmp_path, "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == run(capsys, "gen", "e", "--depth", "2")[1] + "callback ran\n"


def test_module_entry_skips_interpreter_teardown(tmp_path, capsys):
    # python -m binomring.cli runs the module as __main__; an object that reports its own collection shows
    # whether the interpreter's teardown ran after the command
    script = ("import runpy, sys\n"
              "class Teardown:\n"
              "    def __del__(self, write=sys.stderr.write):\n"
              "        write('teardown ran\\n')\n"
              "keep = Teardown()\n"
              "sys.argv = ['binomring', 'gen', 'e', '--depth', '2']\n"
              "runpy.run_module('binomring.cli', run_name='__main__')\n")
    proc = child(tmp_path, "-c", script)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode() == run(capsys, "gen", "e", "--depth", "2")[1]


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_failed_final_flush_exits_120(tmp_path, stream):
    # a stream whose flush fails, like stdout into a pipe whose reader has gone: run() must end the process as
    # the interpreter's own exit after sys.exit(main()) does, with its report and status 120, never 0
    def ended_by(exit_call):
        script = ("import io, sys\n"
                  "class Broken(io.TextIOWrapper):\n"
                  "    def flush(self):\n"
                  "        raise BrokenPipeError(32, 'Broken pipe')\n"
                  f"sys.{stream} = Broken(io.BytesIO(), encoding='utf-8')\n"
                  "sys.argv = ['binomring', 'gen', 'e', '--depth', '2']\n"
                  "from binomring.cli import main, run\n"
                  f"{exit_call}\n")
        proc = child(tmp_path, "-c", script)
        return proc.returncode, proc.stdout, proc.stderr

    ended = ended_by("run()")
    assert ended[0] == 120
    assert ended == ended_by("sys.exit(main())")
    if stream == "stdout":
        assert ended[2].decode().endswith("BrokenPipeError: [Errno 32] Broken pipe\n")


# Byte pins: the exit code and the sha256 of stdout for every generator, bernoulli and sigma as csv, and every
# op on three files. CLI output for unchanged inputs stays byte-identical, so a kernel or serialisation change
# that alters any byte fails here. R is a rational file, P the Bernoulli polynomials to depth 10 and M a file
# mixing rationals and polynomials; each lead is 4 or 1, so roots and rational powers exist.
PIN_FILES = {
    "R": '{"name":"r","depth":10,"values":[["4","1"],["-1","2"],["1","3"],["0","1"],["5","7"],["-2","9"],'
         '["1","11"],["3","13"],["-7","17"],["0","1"],["1","19"]]}',
    "M": '{"name":"m","depth":6,"values":[["4","1"],[["-1","2"],["1","1"]],["1","3"],[["0","1"],["0","1"],'
         '["3","5"]],["5","7"],[["2","1"],["-1","3"]],["-1","9"]]}',
}
PINNED = {
    "gen e --depth 24": (0, 'f90866544503159c0a8bcd55938e8482a02d3c56b4f86e973269e0a06ae1baa8'),
    "gen I --depth 24": (0, 'cc3ac04c3cf2b4c11500b8b32804facc19596f73b4c9a33d9450ae15cf90630d'),
    "gen nu --depth 24": (0, '1df78884e890c20295f916392843f32d930036473541de0f7b0ca9a4a8194023'),
    "gen eps --x -2/3 --depth 24": (0, '157ab0e8cd3aaa10476c62aa530a75b30b27d12dd2ea143ba47e0db2928c6561'),
    "gen xi1 --depth 24": (0, '4125731e23799c3a3ad1c1cda98e897d098443cd4ede5d610a4946bd10b2e8f0'),
    "gen xi --x 3/2 --m 2 --depth 24": (0, 'ea8f4cbc0c9463f03f88024418b5c69330bdd164e81849d7ab28482cd7c3d1fc'),
    "gen bernoulli --depth 24": (0, 'f10616b513e1ba4a48fb01877620d36b074e5ea50ddc36dbcf497ea82f8bf219'),
    "gen bernoulli-poly --depth 24": (0, '92bf1b9e7717e7b41789764da732fe48215077cd99a5101356fdfe9343532a0c'),
    "gen euler1 --depth 24": (0, '8709a6710b6b7b800fc977f2fcb859ca2ce947ca6ae9c6c85a9237fcd51fa706'),
    "gen euler-poly --depth 24": (0, 'a996a7e595b98f7eb3186a5706fdb0cf4b9fcb72daaa7114e2b3ea46d6a3d3a0'),
    "gen norlund --p 1 --q 2 --depth 24": (0, '250989ffb4ff78c1b8099314a03adeecd2ed99e4289fe9f1a34931cc8fe7179c'),
    "gen faulhaber --n 10 --depth 24": (0, 'fccc61ff0fce6dcf81a1f81273a95bee5afb96dd5e50a77d2c86b3ef465f27ab'),
    "gen mobius-bernoulli --n 12 --depth 24": (0, 'aa1347358bd081cdf91aded5769a5b16723ffa35e6af593a21cb8bdc9dde62ad'),
    "gen sigma --depth 24": (0, 'e589fe926f141b3c02b789cd85d0b63ca28939c166d58959729dd633fec82720'),
    "gen bernoulli --depth 24 --format csv": (0, 'a8e8fee5ce421429db35a94f56b2ff29008bdaa90db6e061f318d2e79cb0a245'),
    "gen sigma --depth 24 --format csv": (0, '6de255ab2e9c7cf835f1ba90c8097be6f6e61fbd91dcf43679be76ab77cad47b'),
    "op bullet R R": (0, '0c393cbbdfecadeb9157bb2f8f6434e66b6e8690b5fe064606bbfbbd7db4224a'),
    "op cauchy R R": (0, '1d3a17435aaa2e81688d52f0c8a3889669a93238c6d7d5cfb5dbf577e29449ee'),
    "op invert R": (0, 'c0b28e45f6d983debe36a4cadc6ae0be6a71563a4dc6f123b0cadaed3d3e29a8'),
    "op root R --m 2": (0, '36a09289d3aa0256acb1ed8d7dbf7c2442b9fd77345de7769db92b8629f3c601'),
    "op pow R --p -3 --q 2": (0, '675d42cc9e4494fc00d437f4afeb70826b1bef5237bd96c7dae63702fb033988'),
    "op pow R --p 2": (0, '0c393cbbdfecadeb9157bb2f8f6434e66b6e8690b5fe064606bbfbbd7db4224a'),
    "op transform R": (0, '6f9602496c8398c775eb5d803c1f40dce14be27dbee2c19e95ce6b0b45543a67'),
    "op invert-transform R": (0, '5fd56a23028016b9c18de2f720ff565293b1888b52c75c8f3b0f82079cfb39b1'),
    "op decompose R": (0, '78c6d2e4aef87e1bb8a87c7a0880f4b6e7d5fd2f12505711e324e6724f9fbce6'),
    "op bullet P P": (0, '175b2191f915d1fb2a2858d69e6b1d32087c89c5c43841d078034a3589b9613d'),
    "op cauchy P P": (0, '19b5592ece11004c533639990db6b554d4b31c16319c0c4a15409378efaadcf8'),
    "op invert P": (0, '839ccc64611b0ac6b56d29e515021c57c0621e8bf05b84b91dbf57de1273eead'),
    "op root P --m 2": (0, '8934c5a53fa70742e45201def9439ca4940651069e37700d232c14d78600c3d5'),
    "op pow P --p -3 --q 2": (0, '131919b3e7b63024072f1c38a59a245915bdcca91e93196ab275ce9a5a831c78'),
    "op pow P --p 2": (0, '175b2191f915d1fb2a2858d69e6b1d32087c89c5c43841d078034a3589b9613d'),
    "op transform P": (0, 'ad8719c5daac955cfae540e77cd6a34f079ac6b2c148e1c75a544257d80518e3'),
    "op invert-transform P": (0, 'bc75f90d15d38304ef63123079a585d735aaa4e567d1179d9de315a0d2bbbb59'),
    "op decompose P": (0, '913f3e10ddb3604e3e205492ceed0f7a6cdea434c3022259d41bf93d6fc58728'),
    "op bullet M M": (0, '1fd5da36d70eefc2c6bddf2a72c8a330b9ad503b51bc796759128d8de66a3b1e'),
    "op cauchy M M": (0, '596f344b8cc548fa9ee15b387174e50b2c2792565ba60c8aac9d3290e93d0ea0'),
    "op invert M": (0, '15b6efdab52ff15f166cf34c9f5509faa5dd89411be3752075d93d26bb297704'),
    "op root M --m 2": (0, 'b6ff9af8e1754af8fe56e04f26fc634a01228bb257e609dcb0b6c193743d3564'),
    "op pow M --p -3 --q 2": (0, '4ec2e5980bb186a15dd1e7a120f61b6f0e85a600a3d19e3ca79eb386a9bfebee'),
    "op pow M --p 2": (0, '1fd5da36d70eefc2c6bddf2a72c8a330b9ad503b51bc796759128d8de66a3b1e'),
    "op transform M": (0, '24aace698f6bc96a1d7e95b2d9ab12eacdb4be739d391aa2e40502ce4ee5ebb8'),
    "op invert-transform M": (0, '6fc7351b2c2022f8a8e79cde8c200ca699f5f2752a23b994e89a23736be5a18e'),
    "op decompose M": (0, 'ee7029addddda195838ce9238d866e1c5192f9c8f480b65a85a58d4b77023466'),
}


@pytest.mark.parametrize("argv", PINNED)
def test_output_bytes_are_pinned(argv, tmp_path, capsys):
    for name, text in PIN_FILES.items():
        (tmp_path / name).write_text(text)
    run(capsys, "gen", "bernoulli-poly", "--depth", "10", "--output", str(tmp_path / "P"))
    code, out, _ = run(capsys, *(str(tmp_path / a) if a in ("R", "P", "M") else a for a in argv.split()))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED[argv]


@pytest.mark.parametrize("name", ["bernoulli-poly", "euler-poly", "mobius-bernoulli", "sigma"])
def test_gen_refuses_bfile_for_a_polynomial_generator(capsys, name):
    flags = ("--n", "6") if name == "mobius-bernoulli" else ()
    code, out, err = run(capsys, "gen", name, *flags, "--depth", "3", "--format", "bfile")
    assert (code, out, err) == (2, "", "error: bfile format supports only rational-valued sequences\n")


def test_generators_mark_exactly_the_polynomial_valued_ones():
    from binomring.cli import GENERATORS, _Opts
    from binomring.poly import RatPoly

    opts = _Opts(3)
    opts.update(x=F(2, 3), m=2, p=1, q=2, n=6)
    for name, (build, _, poly) in GENERATORS.items():
        assert any(isinstance(v, RatPoly) for v in build(opts, 3)) is poly, name
