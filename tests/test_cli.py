import contextlib
import csv
import io
import json
import os
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from leopoldt import cli
from leopoldt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bounds_command(capsys):
    code, out = run(capsys, "bounds", "--p", "5", "--d", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["schema"] == 1
    assert doc["results"] == {"new": "4", "rosenberg": "6400", "field": "16"}


def test_invariants_command_certified(capsys):
    code, out = run(capsys, "invariants", "--p", "5", "--theta-omega", "2",
                    "--check-precision", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["verdict"] == "certified"
    assert doc["results"]["mu"] == 0 and doc["results"]["lambda"] == 0
    assert all(c["ok"] for c in doc["checks"])
    assert doc["checks"][0]["lhs"]["mod"] == "5^2"


def test_series_and_interp_check(capsys):
    code, out = run(capsys, "series", "--p", "5", "--theta-omega", "2",
                    "--n", "2", "--m", "1")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["results"]["coefficients"]) == 5
    code, out = run(capsys, "interp-check", "--p", "5", "--theta-omega", "2",
                    "--n", "3", "--ks", "1,5,9")
    doc = json.loads(out)
    assert code == 0 and all(c["ok"] for c in doc["checks"])


def test_lambda_sum_command(capsys):
    code, out = run(capsys, "lambda-sum", "--p", "5")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["total"] == 0


def test_selftest_deterministic(capsys):
    code1, out1 = run(capsys, "selftest", "--p", "5", "--seed", "7", "--cases", "4")
    code2, out2 = run(capsys, "selftest", "--p", "5", "--seed", "7", "--cases", "4")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-stable for fixed config and seed
    doc = json.loads(out1)
    assert all(c["ok"] for c in doc["checks"])


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_selftest_refuses_no_cases(capsys, cases):
    # with no cases every identity would hold vacuously
    code = main(["selftest", "--p", "5", "--cases", cases])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.startswith("error: ")


def test_character_file_flow(tmp_path, capsys):
    chi = tmp_path / "chi4.json"
    chi.write_text(json.dumps({"p": 5, "d": 4, "values": {"1": 0, "3": 2}}))
    code, out = run(capsys, "invariants", "--p", "5",
                    "--character-file", str(chi), "--delta", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["verdict"] == "certified"
    code, out = run(capsys, "pseudo-rational-check", "--p", "5",
                    "--character-file", str(chi), "--delta", "0")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["not_pseudorational"] is True


def test_malformed_character_file(tmp_path, capsys):
    chi = tmp_path / "bad.json"
    chi.write_text(json.dumps({"p": 5, "d": 8,
                               "values": {"1": 0, "3": 2, "5": 0, "7": 2}}))
    code = main(["invariants", "--p", "5", "--character-file", str(chi),
                 "--delta", "0"])
    assert code == 1
    capsys.readouterr()
    # a missing key is named, not reported as the bare KeyError "error: 'd'"
    for key in ("p", "d", "values"):
        doc = {"p": 5, "d": 4, "values": {"1": 0, "3": 2}}
        del doc[key]
        chi.write_text(json.dumps(doc))
        code = main(["pseudo-rational-check", "--p", "5", "--delta", "0",
                     "--character-file", str(chi)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f'error: character file: missing key "{key}"\n'


@pytest.mark.parametrize("doc", [
    [1, 2], "text", {"p": 5, "d": 4, "values": [1, 3]},
    {"p": 5, "d": 4, "values": {"1": None}}, {"p": 5, "d": None, "values": {"1": 0}},
    {"p": 5, "d": 4, "values": {"1": 0, "3": 2.5}}])
def test_malformed_character_document_is_a_clean_error(tmp_path, capsys, doc):
    # each ended in a traceback, and "3": 2.5 was read as 2
    chi = tmp_path / "bad.json"
    chi.write_text(json.dumps(doc))
    code = main(["pseudo-rational-check", "--p", "5", "--character-file", str(chi),
                 "--delta", "0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_character_file_admits_integer_strings(tmp_path, capsys):
    chi = tmp_path / "chi4.json"
    chi.write_text(json.dumps({"p": "5", "d": "4", "values": {"1": "0", "3": 2}}))
    code, out = run(capsys, "pseudo-rational-check", "--p", "5",
                    "--character-file", str(chi), "--delta", "0")
    assert code == 0 and json.loads(out)["results"]["not_pseudorational"] is True


def _not_an_int_literal(s):
    try:
        int(s)
    except ValueError:
        return True
    return False


_NOT_INT = st.one_of(
    st.none(), st.booleans(), st.floats(),
    st.text(max_size=4).filter(_not_an_int_literal),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def malformed_character_documents(draw):
    doc = {"p": 5, "d": 4, "values": {"1": 0, "3": 2}}
    where = draw(st.sampled_from(["top", "p", "d", "values", "value"]))
    if where == "top":
        return draw(st.one_of(_NOT_INT, st.integers()))
    if where == "value":
        doc["values"][draw(st.sampled_from(["1", "3"]))] = draw(_NOT_INT)
    elif where == "values":
        doc["values"] = draw(st.one_of(_NOT_INT, st.integers()).filter(
            lambda v: not isinstance(v, dict)))
    else:
        doc[where] = draw(_NOT_INT)
    return doc


@settings(max_examples=150, deadline=None)
@given(malformed_character_documents())
def test_malformed_character_documents_exit_1(doc):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chi.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["pseudo-rational-check", "--p", "5", "--character-file", path,
                         "--delta", "0"])
    assert code == 1 and out.getvalue() == ""
    assert err.getvalue().startswith("error: ")


_THETA_COMMANDS = ("invariants", "series", "interp-check", "pseudo-rational-check")


@st.composite
def small_cli_calls(draw):
    """(argv, character file or None): small random arguments for every
    command, valid or not, with n <= 4, m <= 3 and --cases <= 2."""
    command = draw(st.sampled_from(["bounds", "invariants", "series", "interp-check",
                                    "lambda-sum", "pseudo-rational-check", "selftest"]))
    p = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 9, 11]))
    argv = [command, "--p", str(p)]

    def flag(name, values, optional=False):
        if not optional or draw(st.booleans()):
            argv.extend([name, str(draw(values))])

    doc = None
    if command == "bounds":
        flag("--d", st.integers(-2, 40))
    if command in _THETA_COMMANDS:
        flag("--theta-omega", st.integers(-2, 12), optional=True)
        flag("--delta", st.integers(-2, 12), optional=True)
        if draw(st.booleans()):  # a valid quadratic character of conductor 3 or 4
            d = draw(st.sampled_from([3, 4]))
            doc = {"p": p, "d": d, "values": {"1": 0, str(d - 1): (p - 1) // 2}}
    if command != "bounds" and command != "pseudo-rational-check":
        flag("--n", st.integers(-1, 4))
    if command in ("invariants", "lambda-sum"):
        flag("--m-max", st.integers(-1, 3))
    if command == "invariants":
        flag("--check-precision", st.integers(-1, 4), optional=True)
    if command in ("series", "selftest"):
        flag("--m", st.integers(-1, 3))
    if command == "interp-check" and draw(st.booleans()):
        ks = draw(st.lists(st.integers(-3, 30), min_size=1, max_size=3))
        argv.append("--ks=" + ",".join(map(str, ks)))
    if command == "selftest":
        flag("--seed", st.integers(0, 9))
        flag("--cases", st.integers(0, 2))
    flag("--format", st.sampled_from(["json", "csv"]), optional=True)
    return argv, doc


@settings(max_examples=100, deadline=None)
@given(small_cli_calls())
def test_random_small_calls_exit_cleanly(call):
    # every command answers 0, 1 or 2, raises nothing, and writes to stderr
    # only a one-line refusal with exit 1
    argv, doc = call
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if doc is not None:
            path = os.path.join(tmp, "chi.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            argv = argv + ["--character-file", path]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert err.getvalue() == "" or (code == 1 and err.getvalue().startswith("error: ")
                                    and err.getvalue().count("\n") == 1)


@pytest.mark.parametrize("p, cases", [(7, 2), (11, 1)])
def test_selftest_applies_each_gamma_once(p, cases):
    # gamma_d(f) is computed once per d, not once per pair (d, e): per case
    # 3(p-1) + (p-1)(p-1) + (p-1) + 2(p-1) + 2(p-1) calls
    with mock.patch.object(cli, "op_isotypic", wraps=cli.op_isotypic) as spy:
        results = cli._selftest_identities(p, 7, 2, 1, cases)
    assert all(ok for _, ok in results)
    assert spy.call_count == cases * (p - 1) * (p + 7)


def test_bad_prime_rejected(capsys):
    assert main(["bounds", "--p", "9", "--d", "1"]) == 1


def test_pseudo_rational_check_reads_theta_omega(capsys):
    # theta = omega^3 at p = 7 is delta = 2, where the criterion holds
    code, out = run(capsys, "pseudo-rational-check", "--p", "7", "--theta-omega", "3")
    doc = json.loads(out)
    assert code == 1
    assert doc["inputs"]["delta"] == 2 and doc["results"]["criterion_holds"] is True
    code, out = run(capsys, "pseudo-rational-check", "--p", "7", "--theta-omega", "3",
                    "--delta", "8")
    assert code == 1 and json.loads(out)["inputs"]["delta"] == 2
    code = main(["pseudo-rational-check", "--p", "7", "--theta-omega", "3", "--delta", "1"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "disagrees" in err


def test_pseudo_rational_check_admits_by_size(capsys):
    code, out = run(capsys, "pseudo-rational-check", "--p", "157")
    assert code == 0 and json.loads(out)["results"]["not_pseudorational"] is True
    # B(x**p) has degree p * deg B: refused before it is built
    t0 = time.monotonic()
    code = main(["pseudo-rational-check", "--p", "100003"])
    err = capsys.readouterr().err
    assert time.monotonic() - t0 < 1
    assert code == 1 and err.startswith("error: ") and "degree bound" in err


def test_indeterminate_exit_code(monkeypatch, capsys):
    # an exhausted escalation is reported with exit code 2, not a failure
    from leopoldt import lfunc

    def stuck(p, m_max=4, n=2):
        return lfunc.LambdaSumReport(p, (("omega^2", None),), None, ("omega^2",))

    monkeypatch.setattr(lfunc, "lambda_sum_cyclotomic", stuck)
    code, out = run(capsys, "lambda-sum", "--p", "5")
    doc = json.loads(out)
    assert code == 2
    assert doc["results"]["indeterminate"] == ["omega^2"]


def test_invariants_escalation_exit_codes(tmp_path, capsys):
    # certified at omega-level 2 with the default budget; exit 2 at --m-max 1
    from leopoldt.characters import characters_mod
    chi = characters_mod(164, 3)[0]
    path = tmp_path / "chi164.json"
    path.write_text(json.dumps({"p": 3, "d": 164, "values": {
        str(a): chi.residue(a) - 1 for a in range(1, 164) if chi.residue(a)}}))
    argv = ["invariants", "--p", "3", "--character-file", str(path), "--delta", "0",
            "--check-precision", "2"]
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 0
    assert (doc["results"]["lambda"], doc["results"]["level"]) == (3, [2, 2])
    code, out = run(capsys, *argv, "--m-max", "1")
    doc = json.loads(out)
    assert code == 2
    assert (doc["results"]["verdict"], doc["results"]["level"]) == ("indeterminate", [2, 1])


def test_csv_format(capsys):
    code, out = run(capsys, "bounds", "--p", "5", "--d", "1", "--format", "csv")
    assert code == 0
    assert "results.new,4" in out


def test_csv_quotes_labels_with_commas(tmp_path, capsys):
    chi = tmp_path / "chi4.json"
    chi.write_text(json.dumps({"p": 5, "d": 4, "values": {"1": 0, "3": 2}}))
    code, out = run(capsys, "invariants", "--p", "5", "--character-file", str(chi),
                    "--delta", "0", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows and all(len(row) == 2 for row in rows)
    assert ["inputs.theta", "chi[4;0,1,0,4]*omega^1"] in rows


def test_resource_refusal_is_a_clean_error(monkeypatch, capsys):
    # a Bernoulli index above the limit is refused before the table grows
    from leopoldt import characters

    def never(k):
        raise AssertionError("the Bernoulli table grew past the admission check")

    monkeypatch.setattr(characters, "_bernoulli_table", never)
    k = 4 * 10**6 + 1  # = delta mod p-1 for theta = omega^2 at p = 5
    code = main(["interp-check", "--p", "5", "--theta-omega", "2", "--n", "2",
                 "--ks", str(k)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("p, j", [(101, 68), (157, 62)])
def test_interp_check_irregular_theta_mod_p2(capsys, p, j):
    # the irregular pairs (101, 68) and (157, 62) checked mod p**2
    code, out = run(capsys, "interp-check", "--p", str(p), "--theta-omega", str(j),
                    "--n", "2")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["checks"]) == 3 and all(c["ok"] for c in doc["checks"])
    assert all(c["lhs"]["mod"] == f"{p}^2" for c in doc["checks"])


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["bounds", "--p", "5", "--d", "1", "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["results"]["new"] == "4"


def test_selftest_refuses_oversized_ring_before_allocating(monkeypatch, capsys):
    # 157**5 random ints would be about 9.6e10: refuse before building any
    from leopoldt import cli

    def never(*args):
        raise AssertionError("selftest started on a ring above the size bound")

    monkeypatch.setattr(cli, "_selftest_identities", never)
    for m in ("5", "-1"):
        code = main(["selftest", "--p", "157", "--m", m])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err


def test_oversized_precision_refused_before_allocating(monkeypatch, capsys):
    # 5**3000000 has about 7 million bits: refuse before building any element
    from leopoldt import cli, lfunc

    def never(*args):
        raise AssertionError("started on a modulus above the size bound")

    monkeypatch.setattr(cli, "_selftest_identities", never)
    monkeypatch.setattr(lfunc, "g_c_surrogate", never)
    for argv in (["selftest", "--p", "5", "--m", "1", "--n", "3000000"],
                 ["selftest", "--p", "5", "--n", "0"],
                 ["series", "--p", "5", "--theta-omega", "2", "--n", "3000000"],
                 ["invariants", "--p", "5", "--theta-omega", "2", "--n", "3000000"],
                 ["interp-check", "--p", "5", "--theta-omega", "2", "--n", "3000000"],
                 ["lambda-sum", "--p", "5", "--n", "3000000"]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1, argv
        assert err.startswith("error: ") and "Traceback" not in err


def test_large_and_undecided_primes_are_clean_errors(capsys):
    # 2**61 - 1 is prime: its bounds are refused by size, without factoring;
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7; 2**89 - 1
    # lies above the range where Miller-Rabin is deterministic
    for p in (2**61 - 1, 3215031751, 2**89 - 1):
        t0 = time.monotonic()
        code = main(["bounds", "--p", str(p)])
        err = capsys.readouterr().err
        assert time.monotonic() - t0 < 1
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("d", ["-3", "2305843009213693951"])
def test_bounds_refuses_conductor_before_factoring(monkeypatch, capsys, d):
    # d = -3 printed a negative "field" bound; the prime 2**61 - 1 ran trial
    # division in euler_phi for hours
    from leopoldt import lfunc

    euler_phi = lfunc.euler_phi

    def small_only(n):
        assert 1 <= n <= 10**6, f"euler_phi({n}) ran before d was admitted"
        return euler_phi(n)

    monkeypatch.setattr(lfunc, "euler_phi", small_only)
    t0 = time.monotonic()
    code = main(["bounds", "--p", "5", "--d", d])
    captured = capsys.readouterr()
    assert time.monotonic() - t0 < 1
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("d", [10**6 + 1, 10**12 + 1])
def test_character_file_conductor_refused_before_allocation(tmp_path, capsys, d):
    # a table of d residues was allocated before any size check: d = 10**12 + 1
    # ended in a MemoryError traceback
    chi = tmp_path / "huge.json"
    chi.write_text(json.dumps({"p": 5, "d": d, "values": {"1": 0}}))
    t0 = time.monotonic()
    code = main(["invariants", "--p", "5", "--character-file", str(chi), "--delta", "0"])
    captured = capsys.readouterr()
    assert time.monotonic() - t0 < 1
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: conductor d = {d} is outside 1..1000000\n"
