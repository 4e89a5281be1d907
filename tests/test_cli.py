"""Integration tests for the command-line surface."""

import csv
import json
import math
import re
import time
from pathlib import Path

import pytest

from dimerdet import correlation_limit
from dimerdet.cli import (
    COMMANDS,
    IDENTITIES,
    OPTIONS,
    ConfigError,
    build_config,
    build_parser,
    main,
    parse_complex,
    parse_n_list,
    parse_switch,
)


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
    # only a trailing i is the imaginary unit: the i of inf is not
    assert parse_complex("inf") == complex("inf")
    assert parse_complex("infinity") == complex("inf")
    assert parse_complex("0.3+infi") == complex(0.3, math.inf)
    assert parse_complex("-infi") == complex(0.0, -math.inf)
    assert parse_complex(" 2i ") == 2j
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


#: the scalar-widom residual at --t 0.3 for each seed, relative to Szego's
#: exact constant, as it reads with the family's 20 determinants taken from
#: its stacked sections (the pins of the per-symbol route were within 1.3e-15)
SCALAR_WIDOM_RESIDUALS = {1: 1.0120239743379584e-15, 2: 4.371291176027134e-16,
                          3: 4.1950115382100626e-16, 7: 1.0228308424016765e-15,
                          99: 6.497168565216895e-16, 1234: 8.339086740982432e-16}


@pytest.mark.parametrize("seed", sorted(SCALAR_WIDOM_RESIDUALS))
def test_scalar_widom_family_pass_keeps_the_residuals(seed, capsys):
    args = ["verify", "--identity", "scalar-widom", "--t", "0.3", "--seed", str(seed),
            "--format", "json"]
    code, out = run_cli(args, capsys)
    assert code == 0
    row, = json.loads(out)["rows"]
    assert abs(row["residual"] - SCALAR_WIDOM_RESIDUALS[seed]) <= 1e-14


def test_scalar_widom_fails_when_the_banded_formula_is_off(monkeypatch, capsys):
    # the exact constant is the reference: a family pass off by 1e-8
    # relative must fail the row's 1e-9
    from dimerdet import cli

    original = cli.widom_banded_family
    monkeypatch.setattr(cli, "widom_banded_family",
                        lambda *args: [e * (1 + 1e-8) for e in original(*args)])
    rows = _identity_rows(["--identity", "scalar-widom", "--t", "0.3"], capsys, code=3)
    assert rows["scalar-widom"]["status"] == "fail"


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
    # t this close to 0 puts the symbol's branch points so near the circle
    # that no Fourier order up to the doubling rule's cap resolves the tail
    code = main(["correlation", "--t", "0.001", "--n", "4"])
    assert code == 3
    capsys.readouterr()


def test_json_error_object(tmp_path):
    out = tmp_path / "err.json"
    code = main(["correlation", "--t", "0.001", "--n", "4",
                 "--format", "json", "--output", str(out)])
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["error"]["type"] == "TailNotResolved"
    assert payload["error"]["code"] == 3


@pytest.mark.parametrize("args", [
    ["verify", "--t", "0.3", "--tol", "nan", "--format", "json"],
    ["correlation", "--t", "0.3", "--n", "zebra", "--format", "json"],
], ids=["verify-tol", "correlation-n"])
def test_a_flag_that_does_not_parse_gives_the_json_error_object(args, tmp_path, capsys):
    # the flag failed before the format was read, so only the stderr line came
    code, out = run_cli(args, capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ConfigError" and error["code"] == 2
    path = tmp_path / "err.json"
    assert main(args + ["--output", str(path)]) == 2
    assert json.loads(path.read_text())["error"] == error
    assert capsys.readouterr().out == ""


def test_a_config_file_naming_json_reports_its_bad_key_in_json(tmp_path, capsys):
    # the bad key comes first: the format and output after it still hold
    cfg, path = tmp_path / "run.cfg", tmp_path / "err.json"
    cfg.write_text(f"zebra = 1\nformat = json\noutput = {path}\n")
    assert main(["correlation", "--t", "0.3", "--config", str(cfg)]) == 2
    assert json.loads(path.read_text()) == {"error": {
        "type": "ConfigError", "message": f"{cfg}:1: unknown key 'zebra'", "code": 2}}
    assert capsys.readouterr().err == f"error: {cfg}:1: unknown key 'zebra'\n"


@pytest.mark.parametrize("args", [
    ["correlation", "--t", "0.3"],
    ["correlation", "--t", "-1", "--format", "json"],
    ["correlation", "--t", "0.001", "--n", "4", "--format", "json"],
], ids=["success", "config-error", "numerical-error"])
def test_unwritable_output_exits_2_with_one_error_line(args, tmp_path, capsys):
    # the report and both error objects go through the one writer
    out = tmp_path / "missing" / "out.txt"
    assert main(args + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"error: cannot write {out}: ")


def test_parse_switch_accepts_two_word_sets_and_rejects_the_rest():
    for text in ("1", "true", "True", "YES"):
        assert parse_switch(text) is True
    for text in ("0", "false", "No", "FALSE"):
        assert parse_switch(text) is False
    for text in ("on", "ture", ""):
        with pytest.raises(ValueError):
            parse_switch(text)


@pytest.mark.parametrize("text", ["on", "ture"])
def test_config_switch_typo_exits_2_naming_the_line(text, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"t_start = 0.1\nverify_roots = {text}\n")
    code = main(["sweep", "--t-stop", "0.2", "--t-count", "2", "--config", str(cfg)])
    assert code == 2
    assert f"{cfg}:2: verify_roots" in capsys.readouterr().err


#: one run per shape of JSON output: the sweep's first row fails, and the
#: last run emits the error object
SCHEMA_RUNS = {
    "correlation": ["correlation", "--t", "0.6", "--n-list", "4,8"],
    "convergence": ["convergence", "--t", "0.6", "--n-list", "4,8"],
    "sweep": ["sweep", "--t-start", "0.001", "--t-stop", "0.5", "--t-count", "3", "--n", "8"],
    "verify": ["verify", "--identity", "all", "--t", "0.3"],
    # three-way-e raises at its operator cap; the other nine rows pass
    "verify-error-row": ["verify", "--identity", "all", "--t", "0.0229"],
    "error": ["correlation", "--t", "0.001", "--n", "4"],
}


@pytest.mark.parametrize("args", SCHEMA_RUNS.values(), ids=SCHEMA_RUNS)
def test_json_output_matches_the_schema(args, capsys):
    import jsonschema

    schema = json.loads((Path(__file__).parents[1] / "schemas" / "output.schema.json")
                        .read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    code, out = run_cli(args + ["--format", "json"], capsys)
    payload = json.loads(out)
    jsonschema.validate(payload, schema, cls=jsonschema.Draft202012Validator)
    if args[0] == "sweep":
        assert payload["rows"][0]["note"].startswith("error:")
    failing = (SCHEMA_RUNS["error"], SCHEMA_RUNS["verify-error-row"])
    assert code == (3 if args in failing else 0)
    assert ("error" in payload) == (args == SCHEMA_RUNS["error"])


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


@pytest.mark.parametrize("line, key", [("n_list = 4,8", "n_list"), ("identity = widom", "identity")])
def test_config_file_rejects_a_key_the_command_has_no_flag_for(line, key, tmp_path, capsys):
    # sweep has neither --n-list nor --identity; the file may not set them either
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tolerance = 1e-9\n{line}\n")
    code = main(["sweep", "--t-start", "0.3", "--t-stop", "0.4", "--t-count", "2",
                 "--config", str(cfg)])
    assert code == 2
    assert f"{cfg}:2: key '{key}' is not an option of sweep" in capsys.readouterr().err


def test_config_file_keys_every_command_has_pass(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance = 1e-9\nformat = json\nprecision = 5\nseed = 3\n"
                   f"output = {tmp_path / 'out.json'}\n")
    for args in (["sweep", "--t-start", "0.3", "--t-stop", "0.4", "--t-count", "2"],
                 ["correlation", "--t", "0.5"], ["convergence", "--t", "0.5", "--n-list", "4,8"],
                 ["verify", "--t", "0.3", "--identity", "lambda"]):
        assert main(args + ["--config", str(cfg)]) == 0
        assert json.loads((tmp_path / "out.json").read_text())["command"] == args[0]


def test_sweep_rows_and_degenerate_marking(capsys):
    code, out = run_cli(["sweep", "--t-start", "0.25", "--t-stop", "1.0",
                         "--t-count", "4", "--verify-roots"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4
    values = {row["t_re"]: row for row in rows}
    assert abs(float(values["0.5"]["value_re"]) - 1.0 / 6.0) < 1e-9
    assert values["0.5"]["note"] == "roots: ok"
    assert values["1"]["note"] == "roots: ok"
    assert abs(float(values["1"]["value_re"]) - 0.149429245361) < 1e-9


def test_sweep_empty_grid(capsys):
    code, out = run_cli(["sweep", "--t-start", "0.2", "--t-stop", "0.4",
                         "--t-count", "0"], capsys)
    assert code == 0
    assert parse_csv(out) == []


def _strict_json(text):
    """The JSON payload; a NaN or an infinity in it raises."""
    def reject(name):
        raise ValueError(f"{name} in the JSON output")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("t", ["1e50", "1e103", "1e110", "1e150", "1e120+1e120i"])
def test_limit_row_at_large_t_matches_mpmath(t, capsys):
    # t^3 overflowed: the limit read exactly 0 from t of about 6e102, and nan
    # at 1e120+1e120i
    mp = pytest.importorskip("mpmath")
    code, out = run_cli(["correlation", "--t", t, "--format", "json"], capsys)
    assert code == 0
    row = _strict_json(out)["rows"][0]
    with mp.workdps(40):
        tm = mp.mpc(parse_complex(t))
        e = tm / (2 * tm * (2 + tm ** 2) + (1 + 2 * tm ** 2) * mp.sqrt(2 + tm ** 2))
        ref = complex(mp.sqrt(e) / 2)
    assert abs(complex(row["value_re"], row["value_im"]) - ref) <= 1e-14 * abs(ref)


def test_sweep_past_the_reach_of_t_squared_notes_the_row(capsys):
    # spectral_roots raised OverflowError on t^2: a traceback and exit 1
    code = main(["sweep", "--t-start", "1e150", "--t-stop", "1e160", "--t-count", "3",
                 "--verify-roots", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    rows = _strict_json(captured.out)["rows"]
    assert rows[0]["note"] == "roots: ok"
    assert all(row["note"].startswith("error:") for row in rows[1:])
    assert "Traceback" not in captured.err


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
    # the limit row first, then P(n) for each n against it
    assert [row["n"] for row in payload["rows"]] == [None, 4, 8, 16]
    errs = [row["abs_error"] for row in payload["rows"][1:]]
    assert errs == sorted(errs, reverse=True)


@pytest.mark.parametrize("t, n_list", [("0.6", "4,8,16"), ("0.8+0.3i", "8,16,32"),
                                       ("2", "4,8"), ("0.02", "16,32")])
def test_convergence_is_correlation_n_list_under_its_own_name(t, n_list, capsys):
    reports = []
    for command in ("convergence", "correlation"):
        code, out = run_cli([command, "--t", t, "--n-list", n_list, "--format", "json"], capsys)
        assert code == 0
        reports.append(json.loads(out))
    assert [report.pop("command") for report in reports] == ["convergence", "correlation"]
    assert reports[0] == reports[1]
    assert "errors_decreasing" in reports[1]


def test_correlation_n_list_warns_when_errors_grow(monkeypatch, capsys):
    # every --n-list report, under either name, checks its errors
    import dimerdet.cli as cli
    monkeypatch.setattr(cli, "errors_decreasing", lambda ns, values, limit: False)
    for command in ("correlation", "convergence"):
        assert main([command, "--t", "0.6", "--n-list", "4,8", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["errors_decreasing"] is False
        assert "warning: convergence errors are not monotonically decreasing" in captured.err


@pytest.mark.parametrize("t, n_list", [("0.6", "4,8,16,32,64"), ("1", "8,16,24,32")])
def test_convergence_at_rounding_level_does_not_warn(t, n_list, capsys):
    # the last errors are at the rounding level of the determinant (about
    # 2e-16, then 3e-16), where their order carries no information
    code = main(["convergence", "--t", t, "--n-list", n_list, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["errors_decreasing"] is True
    assert "warning" not in captured.err


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


def test_verify_dimer_toeplitz_large_n(capsys):
    # the torus grid follows n: at the fixed 256/512 grids R_-240 moved by 8e-5
    code, out = run_cli(["verify", "--identity", "dimer-toeplitz",
                         "--t", "0.3", "--n", "240"], capsys)
    assert code == 0
    assert parse_csv(out)[0]["status"] == "pass"


def test_verify_prefactor_honours_tol(capsys):
    # no truncated series tail can meet 1e-40, so the run must fail
    code, _ = run_cli(["verify", "--identity", "prefactor", "--t", "0.3"], capsys)
    assert code == 0
    code, _ = run_cli(["verify", "--identity", "prefactor", "--t", "0.3",
                       "--tol", "1e-40"], capsys)
    assert code == 3


def test_verify_exp_rep(capsys):
    code, out = run_cli(["verify", "--identity", "exp-rep", "--t", "0.7"], capsys)
    assert code == 0
    row = parse_csv(out)[0]
    assert row["status"] == "pass"
    assert float(row["residual"]) <= 1e-9


def test_verify_exp_rep_passes_near_t_one(capsys):
    # failed with residual 1.4e-8, from 1 - 2t cos x + t^2 formed by cancellation
    code, out = run_cli(["verify", "--identity", "exp-rep", "--t", "0.999"], capsys)
    assert code == 0
    assert parse_csv(out)[0]["status"] == "pass"


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


@pytest.mark.parametrize("t", ["0.02", "0.05+1i"])
def test_correlation_at_small_real_part_reaches_limit(t, capsys):
    # these need Fourier orders of 1024 to 2048, which the doubling rule reaches
    code, out = run_cli(["correlation", "--t", t, "--n", "64", "--precision", "17"], capsys)
    assert code == 0
    row = parse_csv(out)[1]
    value = complex(float(row["value_re"]), float(row["value_im"]))
    limit = correlation_limit(parse_complex(t))
    envelope = max(1e-8, math.exp(-2 * parse_complex(t).real * 64))
    assert abs(value - limit) <= envelope * abs(limit)


@pytest.mark.parametrize("identity, t, n", [
    ("lambda", "0.05", None), ("lambda", "0.1", None), ("widom", "0.1", None),
    ("bocg", "0.1", None), ("continuation", "0.02", None),
    ("dimer-toeplitz", "0.97", None), ("widom", "0.99", None), ("bocg", "0.99", None),
    ("bocg", "0.3", "300"),  # the psi^{-1} table reaches the order n - 1 it reads
    # the operator truncation, the torus grid and the alpha tables follow t,
    # where the fixed sizes 256, 256 and 2048 failed
    ("three-way-e", "0.0786", None), ("three-way-e", "0.9115", None),
    ("three-way-e", "0.9327", None), ("dimer-toeplitz", "0.0361", None),
    ("dimer-toeplitz", "0.0573", None), ("kernel-closed-forms", "0.0361", None),
    ("kernel-closed-forms", "0.0573", None), ("prefactor", "0.99", None),
    # 1 - xi_2 formed by cancellation raised InvariantViolation from t = 0.003 down
    ("lambda", "0.003", None), ("lambda", "0.002", None), ("widom", "0.003", None),
    # below n = 3 the truncated operator factor is not 1, and is factored
    ("bocg", "0.3", "1"), ("bocg", "0.9", "1"), ("bocg", "0.3", "2"),
])
def test_verify_resolves_tables_near_the_ends_of_the_interval(identity, t, n, capsys):
    args = ["verify", "--identity", identity, "--t", t] + (["--n", n] if n else [])
    code, out = run_cli(args, capsys)
    assert code == 0
    assert parse_csv(out)[0]["status"] == "pass"


def test_fourier_size_overrides_are_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["correlation", "--t", "0.5", "--fourier-m", "4096"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fourier_k = 64\n")
    assert main(["correlation", "--t", "0.5", "--config", str(cfg)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--quad-grid", "--op-order", "--series-order"])
def test_truncation_size_overrides_are_rejected(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--t", "0.5", flag, "512"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:].replace('-', '_')} = 512\n")
    assert main(["verify", "--t", "0.5", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_three_way_e_names_the_operator_cap(tmp_path):
    out = tmp_path / "err.json"
    code = main(["verify", "--identity", "three-way-e", "--t", "0.0361",
                 "--format", "json", "--output", str(out)])
    assert code == 3
    (row,) = json.loads(out.read_text())["rows"]
    assert row["status"] == "error" and row["residual"] is None
    assert row["error"]["type"] == "TailNotResolved"
    assert "MAX_OP_ORDER = 384" in row["error"]["message"]


#: a value for every option, other than its default
SAMPLES = {"t": "0.8+0.3i", "t_start": "0.25", "t_stop": "1.5", "t_count": "7",
           "t_imag": "0.3", "n": "12", "n_list": "4,8,16", "identity": "widom",
           "tolerance": "1e-9", "output": "out.csv", "format": "json",
           "precision": "15", "seed": "99", "verify_roots": "true"}


def test_flag_and_config_key_give_the_same_value(tmp_path):
    assert set(SAMPLES) == {f.name for f in OPTIONS.values()}
    for flag, f in OPTIONS.items():
        command = f.metadata["commands"][0]
        value = [] if f.metadata["parse"] is parse_switch else [SAMPLES[f.name]]
        from_flag = build_config(build_parser().parse_args([command, flag] + value))
        path = tmp_path / f"{f.name}.cfg"
        path.write_text(f"{f.name} = {SAMPLES[f.name]}\n")
        from_file = build_config(build_parser().parse_args([command, "--config", str(path)]))
        assert getattr(from_flag, f.name) == getattr(from_file, f.name) != f.default, flag


@pytest.mark.parametrize("command", list(COMMANDS))
def test_help_lists_exactly_the_declared_options(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    listed = set(re.findall(r"^\s+(?:-h, )?(--[a-z-]+)", capsys.readouterr().out, re.M))
    declared = {flag for flag, f in OPTIONS.items() if command in f.metadata["commands"]}
    assert listed == declared | {"--help", "--config"}


def test_correlation_near_one_with_short_table(capsys):
    # the regular section needs no long table near t = 1
    code, out = run_cli(["correlation", "--t", "0.97", "--n", "4"], capsys)
    assert code == 0
    assert parse_csv(out)[1]["value_re"] != ""


def test_sweep_up_to_one_has_no_error_rows(capsys):
    code, out = run_cli(["sweep", "--t-start", "0.1", "--t-stop", "0.99",
                         "--t-count", "200", "--n", "32"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 200
    assert [row["t_re"] for row in rows if row["note"].startswith("error:")] == []


def _identity_rows(args, capsys, code=0):
    got, out = run_cli(["verify", "--format", "json"] + args, capsys)
    assert got == code
    return {row["identity"]: row for row in json.loads(out)["rows"]}


def test_dimer_toeplitz_fails_fast_below_its_table_reach(capsys):
    # at t = 0.00162 the e+/d tables need a grid past 2 * MAX_QUAD_GRID, so the
    # torus grid, which would pass MAX_QUAD_GRID in about 0.5 s, is not tried
    start = time.perf_counter()
    rows = _identity_rows(["--identity", "dimer-toeplitz", "--t", "0.00162"], capsys, code=3)
    assert time.perf_counter() - start < 0.3
    assert rows["dimer-toeplitz"]["status"] == "error"
    assert rows["dimer-toeplitz"]["error"]["type"] == "TailNotResolved"


@pytest.mark.parametrize("t", ["0.9885", "0.995", "0.998"])
def test_verify_near_t_one_passes_every_row(t, capsys):
    # from t = 0.995 phi's table needs a grid past 2 * MAX_QUAD_GRID (the pole
    # of 1/g nears the circle), but the torus resolves: the refusal reads the
    # e+/d pair, whose grid stays at 256; phi's Hankel is slow, but
    # three-way-e truncates at the order the smooth phi^{-1} sets (31 to 33)
    rows = _identity_rows(["--identity", "all", "--t", t], capsys, code=0)
    assert rows["dimer-toeplitz"]["status"] == "pass"
    assert [name for name, row in rows.items() if row["status"] != "pass"] == []


#: the rows that hold on the whole half-plane: the torus rows, continuation
#: and the t-free scalar-widom
HALF_PLANE_ROWS = ["continuation", "dimer-toeplitz", "kernel-closed-forms", "scalar-widom"]


@pytest.mark.parametrize("t", ["1", "1.5", "2", "0.8+0.3i"])
def test_verify_off_the_interval_refuses_with_one_error_type(t, capsys):
    # every identity defined only on (0, 1) refuses with the one error type
    # of its one domain check; continuation and dimer-toeplitz pass at their
    # default n = 8, within the reach of M_n's band t^(j-k-1)
    rows = _identity_rows(["--identity", "all", "--t", t], capsys, code=3)
    passed = [name for name, row in rows.items() if row["status"] == "pass"]
    assert passed == HALF_PLANE_ROWS
    assert rows["continuation"]["n"] == rows["dimer-toeplitz"]["n"] == 8
    assert {row["error"]["type"] for name, row in rows.items()
            if name not in passed} == {"ParameterOutOfRange"}


@pytest.mark.parametrize("t, n, status, error", [
    ("2", "24", "pass", None),
    ("2", "32", "fail", None),
    ("3-2i", "32", "error", "SingularDeterminant"),
])
def test_dimer_toeplitz_is_limited_by_the_band_of_m_n(t, n, status, error, capsys):
    # for |t| > 1 the band t^(j-k-1) of M_n reaches |t|^(n-2), in
    # continuation as here, so its LU loses the identity from some n on or
    # is flagged singular; the Theta step on the torus tables has no such
    # limit (test_theta_section_on_the_torus_tables_matches_the_sampled_pair
    # in test_dimer.py), so taking it here would lift this (ROADMAP item 1)
    rows = _identity_rows(["--identity", "dimer-toeplitz", "--t", t, "--n", n], capsys,
                          code=0 if status == "pass" else 3)
    assert rows["dimer-toeplitz"]["status"] == status
    assert rows["dimer-toeplitz"].get("error", {}).get("type") == error


def test_verify_all_computes_each_shared_quantity_once(monkeypatch, capsys):
    from dimerdet import cli, szego

    # symbols and tables handed out by the patched builders, so the tables,
    # means and determinants built from psi can be told from all others;
    # each count is of attempts, so a quantity that raised counts too
    made = {"psi": [], "psi table": [], "psi inverse": []}
    counts = {}

    def made_from(kind, obj):
        return any(obj is m for m in made[kind])

    def patch(name, before=None, after=None):
        for module in (cli, szego):
            original = getattr(module, name, None)
            if original is None:
                continue

            def wrapper(*args, _original=original, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                result = _original(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            monkeypatch.setattr(module, name, wrapper)

    def count(key, test=lambda *args, **kwargs: True):
        def before(*args, **kwargs):
            counts[key] += bool(test(*args, **kwargs))
        return before

    def fourier_before(sym, order=None):
        counts["psi table"] += made_from("psi", sym)
        # the psi^{-1} table det T_3 reads, resolved to at least order 2
        counts["det T_3"] += made_from("psi inverse", sym) and order == 2

    patch("symbol_psi", after=lambda sym, *a, **k: made["psi"].append(sym))
    patch("symbol_psi_inverse", after=lambda sym, *a, **k: made["psi inverse"].append(sym))
    patch("fourier_coefficients", before=fourier_before)
    patch("psi_table", after=lambda tab, *a, **k: made["psi table"].append(tab))
    patch("widom_banded_E", before=count("E(psi)", lambda tab, *a, **k: made_from("psi table", tab)))
    patch("geometric_mean", before=count("G(psi)", lambda sym, *a, **k: made_from("psi", sym)))
    patch("correction_quotient", before=count("quotient"))

    # at 0.001 E(psi), the quotient and det T_3 raise TailNotResolved: E(psi)
    # is read by widom and then by bocg, and must not be computed a second
    # time; both raise before they read G(psi)
    for t, code, g_psi in (("0.3", 0, 1), ("0.001", 3, 0)):
        counts.update(dict.fromkeys(["psi table", "E(psi)", "G(psi)", "quotient", "det T_3"], 0))
        assert run_cli(["verify", "--identity", "all", "--t", t], capsys)[0] == code
        assert counts == {"psi table": 1, "E(psi)": 1, "G(psi)": g_psi, "quotient": 1,
                          "det T_3": 1}, t


@pytest.mark.parametrize("t, n, code, grids", [
    ("0.3", None, 0, [256]),
    # the tables raise TailNotResolved in continuation, and dimer-toeplitz,
    # run next, reads the raised error
    ("0.001", None, 3, [256]),
    # the one pair is resolved to verify's n = 200, so it starts on grid 512,
    # and the guard, continuation and dimer-toeplitz all read it
    ("0.3", "200", 0, [512]),
])
def test_verify_all_samples_the_e_d_pair_once_per_start_grid(t, n, code, grids,
                                                              monkeypatch, capsys):
    # one e+/d table loop per run, and one loop sampling phi, three-way-e's:
    # dimer-toeplitz builds no phi table of its own
    from dimerdet import cli, continuation, spectral, szego
    from dimerdet.spectral import MatrixSymbol, table_grid

    started, phi_loops, sampled_phi = [], [], []
    original = continuation._scalar_tables

    def counted(t, order):
        started.append(table_grid(order))
        return original(t, order)
    for module in (cli, continuation):
        monkeypatch.setattr(module, "_scalar_tables", counted)

    original_phi, original_loop = cli.symbol_phi, spectral.common_order_tables

    def marked_phi(params):
        sym = original_phi(params)
        return MatrixSymbol(lambda x: sampled_phi.append(True) or sym.fn(x))

    def loop(sample, order=None):
        sampled_phi.clear()
        try:
            return original_loop(sample, order)
        finally:
            phi_loops.extend(sampled_phi[:1])
    monkeypatch.setattr(cli, "symbol_phi", marked_phi)
    for module in (spectral, szego, continuation):
        monkeypatch.setattr(module, "common_order_tables", loop)
    rows = _identity_rows(["--identity", "all", "--t", t] + (["--n", n] if n else []),
                          capsys, code=code)
    assert sorted(started) == grids
    assert len(phi_loops) == 1
    if code:
        assert rows["continuation"]["error"] == rows["dimer-toeplitz"]["error"]
        assert rows["continuation"]["error"]["type"] == "TailNotResolved"


def test_verify_exp_rep_reads_no_psi_quantity(monkeypatch, capsys):
    from dimerdet import cli

    def refuse(*args, **kwargs):
        raise AssertionError("exp-rep read a psi quantity")
    monkeypatch.setattr(cli, "psi_table", refuse)
    monkeypatch.setattr(cli, "symbol_psi", refuse)
    code, out = run_cli(["verify", "--identity", "exp-rep", "--t", "0.3"], capsys)
    assert code == 0
    assert parse_csv(out)[0]["status"] == "pass"


@pytest.mark.parametrize("t", ["0.15", "0.3", "0.75"])
def test_each_identity_alone_matches_its_row_in_all(t, capsys):
    together = _identity_rows(["--identity", "all", "--t", t], capsys)
    assert sorted(together) == sorted(IDENTITIES)
    for name in IDENTITIES:
        alone = _identity_rows(["--identity", name, "--t", t], capsys)
        assert alone == {name: together[name]}


def test_each_identity_alone_matches_its_row_in_all_at_given_n(capsys):
    together = _identity_rows(["--identity", "all", "--t", "0.3", "--n", "5"], capsys)
    for name in ("bocg", "continuation", "dimer-toeplitz"):
        alone = _identity_rows(["--identity", name, "--t", "0.3", "--n", "5"], capsys)
        assert alone == {name: together[name]}
        assert alone[name]["n"] == 5


@pytest.mark.parametrize("t", ["0.0229", "1.5"])
def test_each_identity_alone_matches_its_row_in_all_when_some_raise(t, capsys):
    # three-way-e raises at its operator cap at 0.0229; off the real interval,
    # at 1.5, only the half-plane rows are stated: each identity that raises
    # becomes an error row, and every other one still reports its residual
    together = _identity_rows(["--identity", "all", "--t", t], capsys, code=3)
    assert sorted(together) == sorted(IDENTITIES)
    errors = {name for name, row in together.items() if row["status"] == "error"}
    assert errors == ({"three-way-e"} if t == "0.0229"
                      else set(IDENTITIES) - set(HALF_PLANE_ROWS))
    assert all(row["status"] == "pass" for name, row in together.items() if name not in errors)
    for name in IDENTITIES:
        alone = _identity_rows(["--identity", name, "--t", t], capsys,
                               code=3 if name in errors else 0)
        assert alone == {name: together[name]}


def test_verify_error_row_names_the_identity_on_stderr(capsys):
    code = main(["verify", "--identity", "three-way-e", "--t", "0.0229"])
    captured = capsys.readouterr()
    assert code == 3
    assert parse_csv(captured.out)[0]["status"] == "error"
    raised, failed = captured.err.splitlines()
    assert raised.startswith("error: identity 'three-way-e' raised TailNotResolved: ")
    assert raised.endswith("at the cap MAX_OP_ORDER = 384")
    assert failed == "error: identity 'three-way-e' failed"


def test_verify_passes_every_identity_at_the_degenerate_point(capsys):
    # lambda, prefactor and widom refused t = 1/2, where the roots collide
    code, out = run_cli(["verify", "--identity", "all", "--t", "0.5"], capsys)
    assert code == 0
    assert [row["status"] for row in parse_csv(out)] == ["pass"] * len(IDENTITIES)


@pytest.mark.parametrize("route", ["flags", "config"])
@pytest.mark.parametrize("flag", ["--tol", "--t-start", "--t-stop", "--t-imag"])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_numbers_are_rejected(text, flag, route, tmp_path, capsys):
    # sweep --t-stop inf printed rows of nan and exited 0; verify --tol nan
    # failed bocg and three-way-e against a nan tolerance
    given =({"--t": "0.3", "--identity": "lambda"} if flag == "--tol"
             else {"--t-start": "0.1", "--t-stop": "0.4", "--t-count": "3"})
    command = "verify" if flag == "--tol" else "sweep"
    if route == "flags":
        given[flag] = text
    else:
        given.pop(flag, None)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{OPTIONS[flag].name} = {text}\n")
        given["--config"] = str(cfg)
    code = main([command, *(f"{key}={value}" for key, value in given.items())])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{OPTIONS[flag].name}: expected a finite number, got {text!r}" in captured.err


@pytest.mark.parametrize("command", [["correlation"], ["correlation", "--n", "8"],
                                     ["convergence", "--n-list", "4"],
                                     ["verify", "--identity", "exp-rep"]])
@pytest.mark.parametrize("text", ["0.3+nani", "0.3+1e999i", "1e999", "nan", "-0.3",
                                  "inf", "infinity", "0.3+infi", "0.3-infi", "1e160"])
def test_a_t_off_the_half_plane_exits_2_with_the_json_error_object(text, command, capsys):
    # correlation --t 0.3+nani and --t 0.3+1e999i printed rows of nan and exited 0
    code, out = run_cli([*command, "--t", text, "--format", "json"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ParameterOutOfRange" and error["code"] == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("route", ["flags", "config"])
def test_a_negative_seed_exits_2(route, tmp_path, capsys):
    # np.random.default_rng(-1) in scalar-widom raised: a traceback and exit 1
    args = ["verify", "--identity", "scalar-widom", "--t", "0.3"]
    if route == "flags":
        args.append("--seed=-1")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        args += ["--config", str(cfg)]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("message", [
    "Unable to allocate 298. GiB for an array with shape (100000, 200000)", ""])
def test_a_failed_allocation_exits_3_with_one_error_line(message, fmt, monkeypatch, capsys):
    # correlation --t 0.3 --n 100000 asks numpy for a 298 GiB slab and ended
    # in a MemoryError traceback with exit 1; the runner is replaced here, so
    # the test allocates nothing
    from dimerdet import cli

    def refuse(cfg):
        raise MemoryError(message)
    monkeypatch.setitem(cli.RUNNERS, "correlation", refuse)
    code = main(["correlation", "--t", "0.3", "--n", "100000", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 3
    message = message or "MemoryError"
    assert captured.err == f"error: {message}\n"
    if fmt == "json":
        assert json.loads(captured.out) == {
            "error": {"type": "MemoryError", "message": message, "code": 3}}
    else:
        assert captured.out == ""


@pytest.mark.parametrize("route", ["flags", "config"])
def test_correlation_rejects_n_together_with_n_list(route, tmp_path, capsys):
    # --n was dropped silently: only the --n-list rows were printed
    if route == "flags":
        args = ["correlation", "--t", "0.6", "--n", "12", "--n-list", "4,8"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t = 0.6\nn = 12\n")
        args = ["correlation", "--config", str(cfg), "--n-list", "4,8"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--n and --n-list" in captured.err


@pytest.fixture
def fresh_parser():
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


def test_main_builds_one_parser_for_a_mixed_sequence_of_calls(
        fresh_parser, tmp_path, monkeypatch, capsys):
    import argparse

    cfg = tmp_path / "run.cfg"
    cfg.write_text("t = 0.5\nn = 4\n")
    out = tmp_path / "out.csv"
    calls = [
        ["correlation", "--t", "0.6", "--n", "8", "--format", "json"],
        ["sweep", "--t-start", "0.25", "--t-stop", "1.0", "--t-count", "3", "--n", "8"],
        ["convergence", "--t", "0.6", "--n-list", "4,8"],
        ["verify", "--identity", "widom", "--t", "0.3"],
        ["correlation", "--t", "-1"],
        ["correlation", "--config", str(cfg)],
        ["--version"],
        ["correlation", "--t", "0.3", "--output", str(out)],
        ["correlation", "--t", "0.6", "--n-list", "4,8"],
    ]

    def outcome(args):
        try:
            code = main(args)
        except SystemExit as exc:
            code = f"exit {exc.code}"
        captured = capsys.readouterr()
        written = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, captured.out, captured.err, written

    alone = []
    for args in calls:
        build_parser.cache_clear()
        alone.append(outcome(args))
    assert [a[0] for a in alone] == [0, 0, 0, 0, 2, 0, "exit 0", 0, 0]
    assert alone[6][1].startswith("dimerdet ") and alone[7][3].startswith("t_re,")

    built, init = [], argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    per_call = []
    for args, expected in zip(calls, alone):
        before = len(built)
        assert outcome(args) == expected, args
        per_call.append(len(built) - before)
    # the first call builds the parser and its subparsers, later calls none
    assert per_call == [1 + len(COMMANDS)] + [0] * (len(calls) - 1)
