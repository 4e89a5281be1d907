"""Integration tests for the command-line surface."""

import csv
import json

import pytest

from dimerdet import correlation_limit
from dimerdet.cli import main, parse_complex, parse_n_list, ConfigError


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.DictReader(text.splitlines()))
    return rows


def test_parse_complex_forms():
    assert parse_complex("1") == 1.0
    assert parse_complex("0.8+0.3i") == 0.8 + 0.3j
    assert parse_complex("0.8+0.3j") == 0.8 + 0.3j
    with pytest.raises(ConfigError):
        parse_complex("zebra")


def test_parse_n_list():
    assert parse_n_list("4,8,16") == [4, 8, 16]
    with pytest.raises(ConfigError):
        parse_n_list("4,zebra")
    with pytest.raises(ConfigError):
        parse_n_list("0,4")


def test_correlation_headline(capsys):
    code, out = run_cli(["correlation", "--t", "1", "--n", "64"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert abs(float(rows[0]["value_re"]) - 0.149429245361342) < 1e-9
    assert rows[1]["n"] == "64"


def test_correlation_at_half(capsys):
    code, out = run_cli(["correlation", "--t", "0.5", "--n", "8"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert abs(float(rows[0]["value_re"]) - 1.0 / 6.0) < 1e-12


def test_correlation_closed_form_only(capsys):
    code, out = run_cli(["correlation", "--t", "0.3"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert abs(float(rows[0]["value_re"]) - 0.159181156883) < 1e-9


def test_csv_json_value_identical(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    base = ["correlation", "--t", "0.6", "--n-list", "4,8", "--precision", "17"]
    assert main(base + ["--output", str(csv_path), "--format", "csv"]) == 0
    assert main(base + ["--output", str(json_path), "--format", "json"]) == 0
    csv_rows = parse_csv(csv_path.read_text())
    json_rows = json.loads(json_path.read_text())["rows"]
    assert len(csv_rows) == len(json_rows)
    for crow, jrow in zip(csv_rows, json_rows):
        for key in ("t_re", "t_im", "value_re", "value_im",
                    "target_re", "target_im", "abs_error"):
            cval = crow[key]
            jval = jrow[key]
            if cval == "":
                assert jval is None
            else:
                assert float(cval) == jval  # tolerance zero
        assert (crow["n"] or None) == (None if jrow["n"] is None else str(jrow["n"]))


def test_repeated_runs_bit_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["verify", "--identity", "scalar-widom", "--t", "0.3", "--seed", "99",
            "--format", "json"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_code_2_on_bad_parameter(capsys):
    assert main(["correlation", "--t", "-1"]) == 2
    capsys.readouterr()
    assert main(["correlation", "--t", "0.5", "--precision", "40"]) == 2
    capsys.readouterr()
    assert main(["verify", "--t", "0.3", "--identity", "zebra"]) == 2
    capsys.readouterr()
    assert main(["convergence", "--t", "0.5", "--n-list", "8,4"]) == 2
    capsys.readouterr()


def test_exit_code_3_on_numerical_failure(capsys):
    # t this close to 0 puts the symbol's branch points near the circle, so
    # the default Fourier order cannot resolve the tail
    code = main(["correlation", "--t", "0.02", "--n", "4"])
    assert code == 3
    capsys.readouterr()


def test_json_error_object(tmp_path):
    out = tmp_path / "err.json"
    code = main(["correlation", "--t", "0.02", "--n", "4",
                 "--format", "json", "--output", str(out)])
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["error"]["type"] == "TailNotResolved"
    assert payload["error"]["code"] == 3


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t = 0.5\nn = 4\nformat = csv\nprecision = 15\n")
    code, out = run_cli(["correlation", "--config", str(cfg)], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert rows[1]["n"] == "4"
    # explicit flag wins over the config file
    code, out = run_cli(["correlation", "--config", str(cfg), "--t", "0.3"], capsys)
    rows = parse_csv(out)
    assert abs(float(rows[0]["t_re"]) - 0.3) < 1e-15


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("zebra = 1\n")
    assert main(["correlation", "--config", str(cfg), "--t", "0.5"]) == 2
    capsys.readouterr()


def test_sweep_rows_and_degenerate_marking(capsys):
    code, out = run_cli(["sweep", "--t-start", "0.25", "--t-stop", "1.0",
                         "--t-count", "4", "--verify-roots"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4
    values = {row["t_re"]: row for row in rows}
    assert abs(float(values["0.5"]["value_re"]) - 1.0 / 6.0) < 1e-9
    assert values["0.5"]["note"] == "skipped: degenerate"
    assert values["1"]["note"] == "roots: ok"
    assert abs(float(values["1"]["value_re"]) - 0.149429245361) < 1e-9


def test_sweep_empty_grid(capsys):
    code, out = run_cli(["sweep", "--t-start", "0.2", "--t-stop", "0.4",
                         "--t-count", "0"], capsys)
    assert code == 0
    assert parse_csv(out) == []


def test_sweep_complex_row(capsys):
    code, out = run_cli(["sweep", "--t-start", "0.8", "--t-stop", "0.8",
                         "--t-count", "1", "--t-imag", "0.3", "--n", "8"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert abs(float(rows[0]["t_im"]) - 0.3) < 1e-15
    assert rows[0]["abs_error"] != ""


def test_convergence_table(capsys):
    code, out = run_cli(["convergence", "--t", "0.6", "--n-list", "4,8,16",
                         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["errors_decreasing"] is True
    errs = [row["abs_error"] for row in payload["rows"]]
    assert errs == sorted(errs, reverse=True)


def test_verify_single_identity(capsys):
    code, out = run_cli(["verify", "--identity", "widom", "--t", "0.3"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["status"] == "pass"
    assert float(rows[0]["residual"]) <= 1e-8


def test_verify_dimer_toeplitz(capsys):
    code, out = run_cli(["verify", "--identity", "dimer-toeplitz",
                         "--t", "0.5", "--n", "8"], capsys)
    assert code == 0
    assert parse_csv(out)[0]["status"] == "pass"


def test_verify_exp_rep(capsys):
    code, out = run_cli(["verify", "--identity", "exp-rep", "--t", "0.7"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert row["status"] == "pass"
    assert float(row["residual"]) <= 1e-9


@pytest.mark.parametrize("t", ["2", "5", "0.3+2i", "1.5+1.5i"])
def test_correlation_off_unit_interval_reaches_limit(t, capsys):
    # these parameters used to print 0: their continued section was flagged
    # singular and the flag turned into a zero determinant
    code, out = run_cli(["correlation", "--t", t, "--n", "64", "--precision", "17"], capsys)
    assert code == 0
    row = parse_csv(out)[1]
    value = complex(float(row["value_re"]), float(row["value_im"]))
    assert value != 0
    assert abs(value - correlation_limit(parse_complex(t))) <= 1e-8


def test_correlation_near_one_with_short_table(capsys):
    # the regular section needs no long table near t = 1
    code, out = run_cli(["correlation", "--t", "0.97", "--n", "4",
                         "--fourier-k", "64"], capsys)
    assert code == 0
    assert parse_csv(out)[1]["value_re"] != ""


def test_sweep_up_to_one_has_no_error_rows(capsys):
    code, out = run_cli(["sweep", "--t-start", "0.1", "--t-stop", "0.99",
                         "--t-count", "200", "--n", "32"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 200
    assert [row["t_re"] for row in rows if row["note"].startswith("error:")] == []
