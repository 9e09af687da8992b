"""Lazy loading: each CLI command loads only the modules it runs, and every package export resolves."""
import os
import subprocess
import sys

import pytest

import binomring

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# runs one command, then writes the names of the loaded modules to the file named by argv[1]
CHILD = ("import sys\n"
         "from binomring.cli import main\n"
         "code = main(sys.argv[2:])\n"
         "open(sys.argv[1], 'w').write(' '.join(sys.modules))\n"
         "sys.exit(code)\n")
BARE = "import sys\nopen(sys.argv[1], 'w').write(' '.join(sys.modules))\n"


def _modules(tmp_path, script, *argv, code=0):
    out = tmp_path / "modules.txt"
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, str(out), *argv], env=dict(os.environ, PYTHONPATH=path),
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    return set(out.read_text().split())


def loaded_by(tmp_path, *argv, code=0):
    """Modules a binomring process loads for one command, beyond those the interpreter starts with."""
    return _modules(tmp_path, CHILD, *argv, code=code) - _modules(tmp_path, BARE)


@pytest.mark.parametrize("argv, wanted, unwanted", [
    (("gen", "e", "--depth", "0"), {"binomring.seqcore"},
     {"binomring.identities", "binomring.dirichlet", "binomring.roots_table", "binomring.egf"}),
    (("op", "invert", "FILE"), {"binomring.units"}, {"binomring.special", "binomring.identities"}),
    (("verify", "eq3"), {"binomring.identities"}, {"binomring.roots_table", "binomring.egf", "binomring.dirichlet"}),
    (("table1",), {"binomring.roots_table"}, {"binomring.identities", "binomring.dirichlet"}),
], ids=["gen", "op", "verify", "table1"])
def test_command_loads_only_what_it_runs(tmp_path, argv, wanted, unwanted):
    seq = tmp_path / "e.json"
    seq.write_text('{"name": "e", "depth": 2, "values": [["1","1"], ["0","1"], ["0","1"]]}')
    loaded = loaded_by(tmp_path, *(str(seq) if a == "FILE" else a for a in argv))
    assert wanted <= loaded
    assert not loaded & (unwanted | {"dataclasses", "inspect", "argparse"})


FAMILIES = {f"binomring.identities.{f}"
            for f in ("inverse_power", "power_sums", "symmetric", "poly_symmetry", "convolution")}


@pytest.mark.parametrize("argv, wanted, unwanted", [
    (("verify", "eq3"), {"binomring.identities.inverse_power"}, FAMILIES - {"binomring.identities.inverse_power"}),
    (("verify", "eq31"), {"binomring.identities.convolution"},
     {"binomring.identities.power_sums", "binomring.identities.poly_symmetry"}),
], ids=["eq3", "eq31"])
def test_verify_loads_one_identity_family(tmp_path, argv, wanted, unwanted):
    loaded = loaded_by(tmp_path, *argv)
    assert wanted <= loaded
    assert not loaded & unwanted


@pytest.mark.parametrize("argv", [("verify", "eq1"), ("verify", "eq3", "--n", "7")], ids=["name", "parameter"])
def test_verify_usage_error_loads_no_family(tmp_path, argv):
    loaded = loaded_by(tmp_path, *argv, code=2)
    assert "binomring.identities" in loaded
    assert not loaded & (FAMILIES | {"binomring.special", "binomring.units", "binomring.jsonio"})


@pytest.mark.parametrize("argv", [("gen", "fibonacci"), ("gen", "bernoulli", "--depth", "99999")],
                         ids=["name", "depth"])
def test_gen_usage_error_loads_no_library_module(tmp_path, argv):
    loaded = loaded_by(tmp_path, *argv, code=2)
    assert {m for m in loaded if m.startswith("binomring")} == {"binomring", "binomring.cli", "binomring.errors"}


POLY = "binomring.poly"


def _with_inputs(tmp_path, argv):
    """argv with RAT, POLY and BFILE replaced by the paths of a rational file, a polynomial file and a b-file."""
    from binomring.cli import main

    rat = tmp_path / "e.json"
    rat.write_text('{"name": "e", "depth": 2, "values": [["1","1"], ["0","1"], ["0","1"]]}')
    (tmp_path / "e.txt").write_text("0 1\n1 0\n2 0\n")
    if "POLY" in argv:
        assert main(["gen", "bernoulli-poly", "--depth", "4", "-o", str(tmp_path / "bpoly.json")]) == 0
    paths = {"RAT": rat, "POLY": tmp_path / "bpoly.json", "BFILE": tmp_path / "e.txt"}
    return [str(paths.get(a, a)) for a in argv]


@pytest.mark.parametrize("argv", [
    ("gen", "bernoulli"), ("gen", "norlund", "--p", "1", "--q", "2"), ("op", "invert", "RAT"),
    ("op", "bullet", "RAT", "RAT"), ("oeis-compare", "RAT", "BFILE", "--transform", "numerator"),
    ("verify", "eq3"), ("verify", "eq13"), ("table1",),
], ids=["gen-bernoulli", "gen-norlund", "op-invert", "op-bullet", "oeis-compare", "eq3", "eq13", "table1"])
def test_rational_command_does_not_load_the_polynomial_ring(tmp_path, argv):
    loaded = loaded_by(tmp_path, *_with_inputs(tmp_path, argv))
    assert "binomring.seqcore" in loaded and POLY not in loaded


@pytest.mark.parametrize("argv", [("gen", "euler-poly"), ("op", "invert", "POLY"), ("verify", "eq9")],
                         ids=["gen-euler-poly", "op-invert-poly", "eq9"])
def test_polynomial_command_loads_the_polynomial_ring(tmp_path, argv):
    assert POLY in loaded_by(tmp_path, *_with_inputs(tmp_path, argv))


def test_gen_bfile_of_a_polynomial_generator_builds_nothing(tmp_path):
    loaded = loaded_by(tmp_path, "gen", "sigma", "--depth", "256", "--format", "bfile", code=2)
    assert not loaded & {"binomring.special", POLY}


def test_module_entry_point_reads_sys_argv(tmp_path):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "binomring.cli", "gen", "e", "--depth", "0"],
                          env=dict(os.environ, PYTHONPATH=path), cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{"name":"e","depth":0,"values":[["1","1"]]}\n', "")


def test_package_import_loads_no_submodule(tmp_path):
    loaded = _modules(tmp_path, "import binomring\n" + BARE)
    assert {m for m in loaded if m.startswith("binomring")} == {"binomring"}


def test_every_export_resolves():
    assert len(binomring.__all__) == len(set(binomring.__all__))
    for name in binomring.__all__:
        obj = getattr(binomring, name)
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import():
    ns = {}
    exec("from binomring import *", ns)
    assert set(binomring.__all__) <= set(ns)


@pytest.mark.parametrize("name", ["no_such_name", "bernoulli_family", "BernoulliFamily", "SigmaFamily"])
def test_unknown_attribute(name):
    with pytest.raises(AttributeError, match=name):
        getattr(binomring, name)
