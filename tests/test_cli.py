"""Integration tests for the command-line surface."""

import csv
import json
import math
import re

import pytest

from dimerdet import correlation_limit
from dimerdet.cli import (
    COMMANDS,
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
    code = main(["verify", "--identity", "three-way-e", "--t", "0.9885",
                 "--format", "json", "--output", str(out)])
    assert code == 3
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "TailNotResolved"
    assert "MAX_OP_ORDER = 384" in error["message"]


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


def _identity_rows(args, capsys):
    code, out = run_cli(["verify", "--format", "json"] + args, capsys)
    assert code == 0
    return {row["identity"]: row for row in json.loads(out)["rows"]}


def test_verify_all_computes_each_shared_quantity_once(monkeypatch, capsys):
    from dimerdet import cli, szego

    # symbols and tables handed out by the patched builders, so the tables,
    # means and determinants built from psi can be told from all others
    made = {"psi": [], "psi table": [], "psi inverse": [], "psi inverse table": []}
    counts = {"psi table": 0, "E(psi)": 0, "G(psi)": 0, "quotient": 0, "det T_3": 0}

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

    def fourier_after(tab, sym, *args, **kwargs):
        if made_from("psi", sym):
            counts["psi table"] += 1
            made["psi table"].append(tab)
        elif made_from("psi inverse", sym):
            made["psi inverse table"].append(tab)

    patch("symbol_psi", after=lambda sym, *a, **k: made["psi"].append(sym))
    patch("symbol_psi_inverse", after=lambda sym, *a, **k: made["psi inverse"].append(sym))
    patch("fourier_coefficients", after=fourier_after)
    patch("widom_banded_E", before=count("E(psi)", lambda tab, *a, **k: made_from("psi table", tab)))
    patch("geometric_mean", before=count("G(psi)", lambda sym, *a, **k: made_from("psi", sym)))
    patch("correction_quotient", before=count("quotient"))
    patch("toeplitz_matrix", before=count(
        "det T_3", lambda tab, n, *a, **k: n == 3 and made_from("psi inverse table", tab)))

    code, _ = run_cli(["verify", "--identity", "all", "--t", "0.3"], capsys)
    assert code == 0
    assert counts == {"psi table": 1, "E(psi)": 1, "G(psi)": 1, "quotient": 1, "det T_3": 1}


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
    from dimerdet.cli import IDENTITIES

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
