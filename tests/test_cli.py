import csv
import io
import json

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


def test_bad_prime_rejected(capsys):
    assert main(["bounds", "--p", "9", "--d", "1"]) == 1


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


def test_resource_refusal_is_a_clean_error(capsys):
    code = main(["interp-check", "--p", "101", "--theta-omega", "68", "--n", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["bounds", "--p", "5", "--d", "1", "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["results"]["new"] == "4"
