"""Identity registry: defaults pass, negative controls fail, params validate."""
import importlib
from fractions import Fraction as F

import pytest

from binomring import identities
from binomring.errors import DepthMismatchError
from binomring.identities import IdentityReport, check, registered_names, run_all
from binomring.identities.poly_symmetry import _eq23_terms
from binomring.identities.symmetric import build_symmetric_function
from binomring.seqcore import TruncSeq, binom, bullet, deviation, make_eps, pointwise_mul
from binomring.special import bernoulli, bernoulli_poly_at, euler1, sigma_eval

EXPECTED_NAMES = {
    "eq3", "eq9", "eq9-k0-a", "eq9-k0-b", "faulhaber", "powersum-sigma-form",
    "carlitz", "gould12", "eq13", "thm5-forward", "thm5-converse", "eq15",
    "eq16", "eq18", "eq19", "eq20", "eq21", "eq22", "eq23", "tuenter", "eq24",
    "cor9", "prop10", "eq31", "eq32", "eq25-iso", "eq29",
}


def corrupt(seq: TruncSeq, k: int) -> TruncSeq:
    vals = list(seq.values)
    vals[k] = vals[k] + 1
    return TruncSeq(vals)


def test_registry_is_complete():
    assert set(registered_names()) == EXPECTED_NAMES


def test_all_defaults_pass_depth_12():
    for report in run_all(depth=12):
        assert report.passed, (report.name, report.first_failure)


@pytest.mark.parametrize("depth", range(17))
def test_run_all_passes_every_name_at_small_depths(depth):
    # eq15 compares nothing below depth 1 and eq18 nothing below depth 3, so run_all leaves them out there
    below_floor = {0: {"eq15", "eq18"}, 1: {"eq18"}, 2: {"eq18"}}.get(depth, set())
    reports = run_all(depth)
    assert [r.name for r in reports] == [name for name in registered_names() if name not in below_floor]
    assert all(r.passed for r in reports), [(r.name, r.first_failure) for r in reports if not r.passed]
    assert all(r.checked >= 1 for r in reports), [(r.name, r.checked) for r in reports if r.checked < 1]


@pytest.mark.parametrize("K", [0, 5, 12])
def test_table_checks_count_every_pair(K):
    pairs = (K + 1) * (K + 2) // 2
    assert check("eq19", {}, K).checked == pairs
    assert check("eq20", {}, K).checked == pairs
    assert check("thm5-forward", {}, K).checked == pairs + K + 1


def test_a_check_that_compares_nothing_is_refused(monkeypatch):
    from binomring.identities import symmetric

    monkeypatch.setattr(symmetric, "_check_eq16", lambda params, depth: ({}, iter(())))
    with pytest.raises(ValueError, match="^eq16 compares nothing at depth 4$"):
        check("eq16", {}, 4)


def test_later_pairs_are_never_built():
    def pairs():
        yield 0, 1, 1
        yield 1, 1, 2
        raise AssertionError("a pair after the first mismatch was built")

    report = identities._verdict("demo", {}, 3, pairs())
    assert (report.passed, report.first_failure, report.checked) == (False, identities.FirstFailure(1, "1", "2"), 2)
    assert identities._verdict("demo", {}, 3, [(0, 3, 6)], 6).first_failure == identities.FirstFailure(0, "1/2", "1")


@pytest.mark.parametrize("name, depth, m, n", [
    ("gould12", 5, "2", "3"), ("gould12", 4, "2", "2"), ("gould12", 3, "2", "1"), ("gould12", 1, "1", "0"),
    ("gould12", 0, "0", "0"), ("eq13", 3, "1", "2"), ("eq13", 2, "1", "1"), ("eq13", 1, "1", "0"),
])
def test_default_m_n_shrink_to_the_depth(name, depth, m, n):
    r = check(name, {}, depth)
    assert r.passed and (r.params["m"], r.params["n"]) == (m, n)


@pytest.mark.parametrize("name, params", [
    ("gould12", {"m": 3, "n": 3}), ("eq13", {"m": 4, "n": 1}), ("gould12", {"m": 6}), ("eq13", {"n": 5}),
])
def test_explicit_m_n_beyond_the_depth_are_refused(name, params):
    with pytest.raises(ValueError, match="need depth >= m"):
        check(name, params, 4)


@pytest.mark.parametrize("name", ["eq13", "thm5-converse", "eq19"])
@pytest.mark.parametrize("f_depth", [5, 20])
def test_table_checks_refuse_an_f_of_another_depth(name, f_depth):
    with pytest.raises(DepthMismatchError):
        check(name, {"f": bernoulli(f_depth)}, 12)


SEQUENCE_PARAMS = [(name, key) for name in registered_names() for key in identities.reads(name)
                   if identities._KINDS.get(key) is TruncSeq and "depth" in identities.reads(name)]


@pytest.mark.parametrize("name, key", SEQUENCE_PARAMS, ids=[f"{name}-{key}" for name, key in SEQUENCE_PARAMS])
@pytest.mark.parametrize("seq_depth", [3, 12])
def test_a_sequence_of_another_depth_is_refused(name, key, seq_depth):
    with pytest.raises(DepthMismatchError, match=f"^{key} has depth {seq_depth} but the check runs at depth 8$"):
        check(name, {key: bernoulli(seq_depth)}, 8)


def test_carlitz_reads_no_depth_and_takes_a_deeper_bernoulli():
    assert check("carlitz", {"bernoulli": bernoulli(12)}, 8).passed
    with pytest.raises(ValueError, match="too shallow"):
        check("carlitz", {"m": 2, "n": 3, "bernoulli": bernoulli(4)})


@pytest.mark.parametrize("name, params, key", [
    ("eq23", {"a": 0, "b": 1, "c": 1}, "a"), ("eq23", {"a": 1, "b": 0, "c": 1}, "b"),
    ("eq24", {"a": 0, "b": F(2)}, "a"), ("eq24", {"a": F(3), "b": 0}, "b"),
    ("tuenter", {"a": 0, "b": F(5, 2)}, "a"), ("tuenter", {"a": F(2), "b": 0}, "b"),
])
def test_eq23_family_refuses_zero_a_or_b(name, params, key):
    with pytest.raises(ValueError, match=f"^{key} must be nonzero$"):
        check(name, params, 6)


@pytest.mark.parametrize("name, given", [
    ("eq23", {"c": F(1, 3)}), ("eq23", {"a": 7}), ("tuenter", {"a": 7}), ("tuenter", {"b": F(-5, 3)}),
    ("eq24", {"b": 7}), ("eq24", {"a": F(5, 3)}),
])
def test_an_explicit_parameter_overrides_only_its_part_of_the_sample(name, given):
    sampled = check(name, {}, 8).params
    r = check(name, given, 8)
    assert r.passed
    keys = "abc" if name == "eq23" else "ab"
    assert {k: r.params[k] for k in keys} == {k: str(given.get(k, sampled[k])) for k in keys}


def test_eq23_refuses_a_merged_triple_that_breaks_its_precondition():
    b = check("eq23", {}, 6).params["b"]
    with pytest.raises(ValueError, match="precondition violated at n=1"):
        check("eq23", {"a": F(b)}, 6)


def test_cor9_refuses_its_power_given_twice():
    with pytest.raises(ValueError, match="r or as p, not both"):
        check("cor9", {"r": 2, "p": 3}, 6)
    assert check("cor9", {"p": 3}, 6).params["r"] == "3"


DECLARED = [(name, word) for name, (_, words) in sorted(identities._TABLE.items()) for word in words.split()
            if word != "depth"]


@pytest.mark.parametrize("name, word", DECLARED, ids=[f"{name}-{word}" for name, word in DECLARED])
def test_every_declared_parameter_is_validated(name, word):
    # check() refuses the value before the check runs, whatever the check would have made of it
    key = word.partition("!=")[0].partition(">=")[0]
    if key == "depth":
        # a depth floor: below it the check would compare nothing
        bound = int(word.partition(">=")[2])
        with pytest.raises(ValueError, match=f"^depth must be >= {bound}$"):
            check(name, {}, bound - 1)
        return
    kind = identities._KINDS.get(key, int)
    refused = {int: [2.5, F(5, 2)], F: [0.5], TruncSeq: [[F(1), F(0), F(0)]]}[kind]
    for value in refused:
        with pytest.raises(ValueError, match=f"^{key} must be an? "):
            check(name, {key: value}, 4)
    if ">=" in word:
        bound = int(word.partition(">=")[2])
        with pytest.raises(ValueError, match=f"^{key} must be >= {bound}$"):
            check(name, {key: bound - 1}, 4)
    if "!=" in word:
        with pytest.raises(ValueError, match=f"^{key} must be nonzero$"):
            check(name, {key: 0}, 4)


def test_exact_values_are_converted_to_their_kind():
    assert check("eq9", {"n": F(2)}, 4) == check("eq9", {"n": 2}, 4)
    given = check("eq23", {"a": 2, "b": "3", "c": 0, "n": "2"}, 4)
    assert given == check("eq23", {"a": F(2), "b": F(3), "c": F(0), "n": 2}, 4)


FAMILIES = ("inverse_power", "power_sums", "symmetric", "poly_symmetry", "convolution")


def test_table_entries_resolve_in_their_families():
    for name in EXPECTED_NAMES:
        fn = identities._check_function(name)
        assert callable(fn)
        assert fn.__module__ == f"binomring.identities.{identities._TABLE[name][0]}"


def test_families_hold_exactly_the_registry():
    found = set()
    for family in FAMILIES:
        module = importlib.import_module(f"binomring.identities.{family}")
        found |= {attr[len("_check_"):] for attr in vars(module) if attr.startswith("_check_")}
    assert {identities._TABLE[name][0] for name in EXPECTED_NAMES} == set(FAMILIES)
    assert found == {name.replace("-", "_") for name in EXPECTED_NAMES}


def test_unknown_name():
    with pytest.raises(KeyError):
        check("nosuch")


def test_carlitz_value():
    report = check("carlitz", {"m": 1, "n": 2})
    assert report.passed
    # both sides equal B(1) + 2 B(2) + B(3) = -1/6
    from binomring.seqcore import binom

    B = bernoulli(3)
    lhs = F(-1) ** 2 * sum(binom(2, i) * B[1 + i] for i in range(3))
    assert lhs == F(-1, 6)


def test_eq9_higher_orders():
    for n in (1, 2, 3):
        assert check("eq9", {"n": n}, depth=10).passed


def test_negative_control_carlitz():
    report = check("carlitz", {"m": 1, "n": 2, "bernoulli": corrupt(bernoulli(3), 2)})
    assert not report.passed
    assert report.first_failure is not None
    assert report.first_failure.lhs != report.first_failure.rhs


def test_negative_control_eq3():
    report = check("eq3", {"bernoulli": corrupt(bernoulli(12), 1)}, depth=12)
    assert not report.passed and report.first_failure.index == 1


def test_negative_control_eq16():
    report = check("eq16", {"euler1": corrupt(euler1(10), 3)}, depth=10)
    assert not report.passed


def test_negative_control_faulhaber():
    report = check("faulhaber", {"n": 5, "bernoulli": corrupt(bernoulli(10), 0)}, depth=10)
    assert not report.passed


def test_negative_control_gould12_mismatched_pair():
    from binomring.seqcore import bullet, make_named

    f = bernoulli(10)
    F_wrong = corrupt(bullet(make_named("I", 10), f), 9)
    report = check("gould12", {"m": 3, "n": 6, "f": f, "F": F_wrong}, depth=10)
    assert not report.passed


def test_negative_control_eq31():
    f = bernoulli(10)
    report = check("eq31", {"m": 1, "n": 1, "f": f, "F": corrupt(f, 4)}, depth=10)
    assert not report.passed


def test_negative_control_eq15():
    report = check("eq15", {"f": corrupt(bernoulli(11), 5)}, depth=11)
    assert not report.passed


def test_every_default_perturbation_detected():
    # perturbing any single Bernoulli coefficient must break eq3
    B = bernoulli(8)
    for k in range(9):
        report = check("eq3", {"bernoulli": corrupt(B, k)}, depth=8)
        assert not report.passed, k


def test_eq23_precondition_rejected():
    # a = b makes the denominator vanish for every n
    with pytest.raises(ValueError):
        check("eq23", {"a": F(2), "b": F(2), "c": F(1)}, depth=6)
    with pytest.raises(ValueError, match="^eq24 precondition violated at n=1$"):
        check("eq24", {"a": F(2), "b": F(2)}, depth=6)


def test_eq23_printed_form_only_at_c0():
    r = check("eq23", {"a": F(2), "b": F(3), "c": F(0)}, depth=8)
    assert r.passed and r.params["printed_form_holds"] == "True"
    r = check("eq23", {"a": F(2), "b": F(3), "c": F(1, 2)}, depth=8)
    assert r.passed and r.params["printed_form_holds"] == "False"


def test_eq22_printed_form_flags():
    r = check("eq22", {"a": F(2), "b": F(3), "c": F(0)}, depth=8)
    assert r.passed and r.params["printed_form_holds"] == "True"
    r = check("eq22", {"a": F(2), "b": F(3), "c": F(5, 2)}, depth=8)
    assert r.passed and r.params["printed_form_holds"] == "False"


def test_tuenter_exact():
    r = check("tuenter", {"a": F(2), "b": F(5, 2)}, depth=10)
    assert r.passed


def test_thm5_constructed_function_is_symmetric():
    f = build_symmetric_function([F(1), F(2, 3), F(-1, 5), F(4)], 7)
    assert deviation(f) == TruncSeq([0] * 8)


def test_eq29_failure_reporting_shape():
    r = check("eq29", {"n": 12, "k": 3})
    assert r.passed and r.params["n"] == "12"


def test_report_structure():
    r = check("eq3", depth=6)
    assert isinstance(r, IdentityReport)
    assert r.depth == 6 and r.passed and r.first_failure is None


def test_seeded_checks_are_deterministic():
    a = check("gould12", {"seed": 7}, depth=10)
    b = check("gould12", {"seed": 7}, depth=10)
    assert a == b


def _remainder_at(a, b, Bc, n):
    """(R1 - R2)(n+1) of the sigma-weighted symmetry, built at depth n + 1."""
    K = n + 1
    ea, eb, B = make_eps(a, K), make_eps(b, K), bernoulli(K)
    R1 = bullet(pointwise_mul(eb, Bc), pointwise_mul(ea, B))
    R2 = bullet(pointwise_mul(ea, Bc), pointwise_mul(eb, B))
    return R1[n + 1] - R2[n + 1]


def _eq23_reference(a, b, c, n):
    """Printed and corrected right sides of eq23 at one n, with sigma rebuilt for every i."""
    Bc = bernoulli_poly_at(c, n + 1)
    total = sum(binom(n, i) * Bc[n - i] * (a ** (n - 1 - i) * b ** i * sigma_eval(a + c - 1, i)[i]
                                           - a ** i * b ** (n - 1 - i) * sigma_eval(b + c - 1, i)[i])
                for i in range(1, n + 1))
    den = b ** (n - 1) * (b + c) - a ** (n - 1) * (a + c)
    return total / den, (total - _remainder_at(a, b, Bc, n) / ((n + 1) * a * b)) / den


def _eq24_reference(a, b, n):
    B = bernoulli(n + 1)
    total = sum(binom(n, i) * B[n - i] * (-1) ** i * (a ** (n - 1 - i) * b ** i * sigma_eval(a, i)[i]
                                                      - a ** i * b ** (n - 1 - i) * sigma_eval(b, i)[i])
                for i in range(1, n + 1))
    den = b ** (n - 1) * (b + 1) - a ** (n - 1) * (a + 1)
    correction = (-1) ** n * _remainder_at(a, b, bernoulli_poly_at(1, n + 1), n) / ((n + 1) * a * b)
    return total / den, (total - correction) / den


@pytest.mark.parametrize("a, b, c", [
    (F(1, 2), F(-3, 4), F(2)), (F(2), F(3), F(-1, 3)), (F(5, 7), F(-2, 9), F(1)), (F(3), F(-1, 2), F(0)),
])
def test_eq23_terms_match_per_n_reference(a, b, c):
    terms = list(_eq23_terms(a, b, c, 10))
    assert [t[0] for t in terms] == list(range(1, 11))
    for n, lhs, printed, corrected in terms:
        assert (printed, corrected) == _eq23_reference(a, b, c, n)
        assert lhs == bernoulli_poly_at(c, n)[n] == corrected


@pytest.mark.parametrize("a, b", [(F(1, 2), F(-3, 4)), (F(2), F(3)), (F(-5, 7), F(2, 9))])
def test_eq24_terms_match_per_n_reference(a, b):
    # eq24's terms are eq23's at c = 1, each times (-1)^n, since B_n(1) = (-1)^n B_n
    terms = [(n, *((-1) ** n * v for v in sides)) for n, *sides in _eq23_terms(a, b, F(1), 10)]
    assert [t[0] for t in terms] == list(range(1, 11))
    for n, lhs, printed, corrected in terms:
        assert (printed, corrected) == _eq24_reference(a, b, n)
        assert lhs == bernoulli(n)[n] == corrected
