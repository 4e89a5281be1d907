"""Batch command-line surface: correlation tables, sweeps, convergence scans,
and the identity-verification suite, with CSV/JSON emission.

Exit codes: 0 success, 2 configuration rejected, 3 numerical failure (or a
failed identity).  Output rows are deterministic for a fixed configuration
and seed; numbers are serialized with 17 significant digits in JSON and a
configurable precision (default 12) in CSV, so ``--precision 17`` makes the
two emissions value-identical after parsing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import __version__
from .closed_form import correlation_limit, e_phi, lambda_value, prefactor, spectral_roots
from .continuation import correlation_finite, limit_scan, theta_decomposition
from .dimer import (
    DimerParams,
    dimer_matrix,
    kernel_symbols,
    symbol_phi,
    symbol_phi_product,
    symbol_psi,
    symbol_psi_inverse,
)
from .errors import DegenerateRoots, DimerdetError, ParameterOutOfRange
from .spectral import (
    FourierTable,
    ScalarSymbol,
    fourier_coefficients,
    geometric_mean,
    log_determinant,
    toeplitz_matrix,
)
from .szego import (
    bocg_residual,
    correction_factor,
    correction_quotient,
    exp_representation,
    psi_table,
    szego_E_operator,
    widom_banded_E,
)

VALUE_COLUMNS = ["t_re", "t_im", "n", "value_re", "value_im",
                 "target_re", "target_im", "abs_error"]
SWEEP_COLUMNS = VALUE_COLUMNS + ["note"]
VERIFY_COLUMNS = ["identity", "t_re", "t_im", "n", "residual", "tolerance", "status"]


class ConfigError(Exception):
    """Rejected configuration; maps to exit code 2."""


def parse_complex(text: str) -> complex:
    cleaned = text.strip().replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {text!r}") from exc


def parse_n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse n list {text!r}") from exc
    if any(v < 1 for v in values):
        raise ConfigError("n values must be >= 1")
    return values


def parse_switch(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


#: subcommands and their one-line help
COMMANDS = {
    "correlation": "finite-n and limiting correlation at one t",
    "sweep": "correlation limit over a t grid",
    "convergence": "determinant convergence table at one t",
    "verify": "run named identity checks",
}


def option(parse, help: str, commands=tuple(COMMANDS), default=None, flag=None):
    """A RunConfig field that is the flag ``flag`` (the field name with dashes
    by default) of ``commands`` and a key of the ``--config`` file, both read
    by ``parse``; a ``parse_switch`` option is a flag without a value."""
    return field(default=default,
                 metadata={"parse": parse, "help": help, "commands": commands, "flag": flag})


@dataclass
class RunConfig:
    command: str = ""
    t: complex | None = option(
        parse_complex, "parameter t, complex as RE+IMi (e.g. 0.8+0.3i); Re(t) > 0",
        ("correlation", "convergence", "verify"))
    t_start: float | None = option(float, "first real part of the sweep", ("sweep",))
    t_stop: float | None = option(float, "last real part of the sweep", ("sweep",))
    t_count: int | None = option(int, "number of sweep points", ("sweep",))
    t_imag: float = option(float, "imaginary part of every sweep point", ("sweep",), 0.0)
    n: int | None = option(int, "separation n", ("correlation", "sweep", "verify"))
    n_list: list[int] = option(parse_n_list, "comma-separated increasing separations",
                               ("correlation", "convergence"), ())
    identity: str = option(str, "one of {identities}, or 'all'", ("verify",), "all")
    tolerance: float = option(float, "tolerance of truncated series and operators",
                              default=1e-10, flag="--tol")
    output: str | None = option(str, "write to this file instead of standard output")
    format: str = option(str, "csv or json", default="csv")
    precision: int = option(int, "CSV significant digits (default 12)", default=12)
    seed: int = option(int, "seed of the randomized checks", default=1234)
    verify_roots: bool = option(parse_switch, "check the spectral roots of every row",
                                ("sweep",), False)


#: every option, by its flag
OPTIONS = {f.metadata["flag"] or "--" + f.name.replace("_", "-"): f
           for f in fields(RunConfig) if f.metadata}


def _parse_option(f, text: str):
    try:
        return f.metadata["parse"](text.strip())
    except ValueError as exc:
        raise ConfigError(f"{f.name}: {exc}") from exc


def load_config_file(path: str) -> dict:
    keys = {f.name: f for f in OPTIONS.values()}
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _parse_option(keys[key], val)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def validate(cfg: RunConfig) -> None:
    """Range-check every override before any computation starts."""
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"unknown format {cfg.format!r}")
    if not 1 <= cfg.precision <= 17:
        raise ConfigError("precision must be between 1 and 17")
    if cfg.tolerance <= 0:
        raise ConfigError("tolerance must be positive")
    if cfg.n is not None and cfg.n < 1:
        raise ConfigError("n must be >= 1")
    if cfg.n_list and any(b <= a for a, b in zip(cfg.n_list, cfg.n_list[1:])):
        raise ConfigError("n_list must be strictly increasing")
    if cfg.command in ("correlation", "convergence", "verify"):
        if cfg.t is None:
            raise ConfigError(f"{cfg.command} requires --t")
        if not cfg.t.real > 0:
            raise ConfigError(f"Re(t) must be positive, got {cfg.t}")
    if cfg.command == "sweep":
        if cfg.t_start is None or cfg.t_stop is None or cfg.t_count is None:
            raise ConfigError("sweep requires --t-start, --t-stop, --t-count")
        if cfg.t_count < 0:
            raise ConfigError("t_count must be >= 0")
    if cfg.command == "convergence" and not cfg.n_list:
        raise ConfigError("convergence requires --n-list")
    if cfg.command == "verify" and cfg.identity not in IDENTITIES and cfg.identity != "all":
        raise ConfigError(f"unknown identity {cfg.identity!r}; "
                          f"choose from {', '.join(sorted(IDENTITIES))} or 'all'")


# ---------------------------------------------------------------------------
# row production
# ---------------------------------------------------------------------------

def _row(t, n, value, target, note=None, with_note=False):
    row = {
        "t_re": t.real, "t_im": t.imag, "n": n,
        "value_re": None if value is None else value.real,
        "value_im": None if value is None else value.imag,
        "target_re": None if target is None else target.real,
        "target_im": None if target is None else target.imag,
        "abs_error": None if (value is None or target is None) else abs(value - target),
    }
    if with_note:
        row["note"] = note or ""
    return row


def run_correlation(cfg: RunConfig) -> dict:
    t = cfg.t
    limit = correlation_limit(t)
    rows = [_row(t, None, limit, limit)]
    ns = cfg.n_list or ([cfg.n] if cfg.n is not None else [])
    for n in ns:
        value = correlation_finite(DimerParams(t), n)
        rows.append(_row(t, n, value, limit))
    return {"command": "correlation", "rows": rows, "columns": VALUE_COLUMNS}


def run_convergence(cfg: RunConfig) -> dict:
    scan = limit_scan(cfg.t, cfg.n_list)
    rows = [_row(cfg.t, r.n, r.value, scan.target) for r in scan.rows]
    if not scan.errors_decreasing:
        print("warning: convergence errors are not monotonically decreasing",
              file=sys.stderr)
    return {"command": "convergence", "rows": rows, "columns": VALUE_COLUMNS,
            "errors_decreasing": scan.errors_decreasing}


def _sweep_row(cfg: RunConfig, t: complex) -> dict:
    note = None
    try:
        limit = correlation_limit(t)
    except DimerdetError as exc:
        return _row(t, cfg.n, None, None, f"error: {exc}", with_note=True)
    if cfg.verify_roots:
        try:
            spectral_roots(t)
            note = "roots: ok"
        except DegenerateRoots:
            note = "skipped: degenerate"
        except DimerdetError as exc:
            note = f"roots: {exc}"
    if cfg.n is None:
        return _row(t, None, limit, limit, note, with_note=True)
    try:
        value = correlation_finite(DimerParams(t), cfg.n)
    except DimerdetError as exc:
        return _row(t, cfg.n, None, limit, f"error: {exc}", with_note=True)
    return _row(t, cfg.n, value, limit, note, with_note=True)


def run_sweep(cfg: RunConfig) -> dict:
    ts = [complex(re, cfg.t_imag)
          for re in np.linspace(cfg.t_start, cfg.t_stop, cfg.t_count)]
    if ts:
        with ThreadPoolExecutor(max_workers=min(4, len(ts))) as pool:
            rows = list(pool.map(lambda t: _sweep_row(cfg, t), ts))
    else:
        rows = []
    return {"command": "sweep", "rows": rows, "columns": SWEEP_COLUMNS}


# ---------------------------------------------------------------------------
# the identity-verification suite
# ---------------------------------------------------------------------------

class Quantities:
    """The quantities the identities share, for one run: each is computed on
    its first read and kept, so ``--identity all`` builds each once."""

    def __init__(self, cfg: RunConfig):
        self.cfg, self.params = cfg, DimerParams(cfg.t)
        self._dets = {}

    psi_tab = cached_property(lambda q: psi_table(q.params))
    e_psi = cached_property(lambda q: widom_banded_E(q.psi_tab, 3))
    g_psi = cached_property(lambda q: geometric_mean(symbol_psi(q.params)))
    #: E(phi) / E(psi), the trace-correction quotient
    quotient = cached_property(lambda q: correction_quotient(q.params, q.cfg.tolerance))

    def psi_inverse_det(self, n: int) -> complex:
        """det T_n(psi^{-1}), from a table resolved to at least the order n - 1."""
        if n not in self._dets:
            inv_tab = fourier_coefficients(symbol_psi_inverse(self.params), order=n - 1)
            self._dets[n] = log_determinant(toeplitz_matrix(inv_tab, n)).value
        return self._dets[n]


def _verify_dimer_toeplitz(q: Quantities):
    n = q.cfg.n or 8
    det_m = log_determinant(dimer_matrix(q.params, n)).value
    tab = fourier_coefficients(symbol_phi(q.params), order=n - 1)
    det_t = log_determinant(toeplitz_matrix(tab, n)).value
    return abs(det_m - det_t) / abs(det_t), 1e-8, n


def _verify_widom(q: Quantities):
    e_psi, g = q.e_psi, q.g_psi
    lam = lambda_value(q.params.t)
    return abs(e_psi - g ** 3 * lam ** 2) / abs(e_psi), 1e-8, 3


def _verify_exp_rep(q: Quantities):
    rep = exp_representation(q.params)
    x = 2 * np.pi * np.arange(256) / 256 - np.pi
    rec = rep.reconstructed.sample(x)
    target = symbol_phi_product(q.params).sample(x)
    return float(np.max(np.abs(rec - target))), 1e-9, None


def _verify_lambda(q: Quantities):
    det3 = q.psi_inverse_det(3)
    lam = lambda_value(q.params.t)
    return abs(lam ** 2 - det3) / abs(det3), 1e-8, 3


def _verify_prefactor(q: Quantities):
    ratio = q.quotient
    expected = prefactor(q.params.t)
    return abs(ratio - expected) / abs(expected), 1e-8, None


def _verify_bocg(q: Quantities):
    n = q.cfg.n or 3
    e_psi, g = q.e_psi, q.g_psi
    res = bocg_residual(q.psi_tab, n, q.cfg.tolerance)
    det_n = q.psi_inverse_det(n)
    return abs(det_n - e_psi / g ** n * res) / abs(det_n), 1e-8, n


def _verify_continuation(q: Quantities):
    n = q.cfg.n or 8
    seq = theta_decomposition(q.cfg.t, n)
    return seq.identity_residual, 1e-9, n


def _verify_kernel_closed_forms(q: Quantities):
    syms = kernel_symbols(q.params)
    x = 2 * np.pi * np.arange(32) / 32 - np.pi
    err = max(float(np.max(np.abs(syms.st_quadrature(x) - syms.st_closed(x)))),
              float(np.max(np.abs(syms.v_quadrature(x) - syms.v_closed(x)))))
    return err, 1e-9, None


def _verify_three_way_e(q: Quantities):
    e_op = szego_E_operator(symbol_phi(q.params), q.cfg.tolerance)
    e_red = q.quotient * q.e_psi
    e_cf = e_phi(q.params.t)
    residual = max(abs(e_op - e_cf), abs(e_red - e_cf), abs(e_op - e_red)) / abs(e_cf)
    return residual, 1e-6, None


def _verify_scalar_widom(q: Quantities):
    rng = np.random.default_rng(q.cfg.seed)
    ks = np.arange(1, 257)
    worst = 0.0
    for _ in range(20):
        n_up = int(rng.integers(1, 4))
        n_dn = int(rng.integers(0, 4))
        gammas = [rng.uniform(0.1, 0.6) * np.exp(2j * np.pi * rng.uniform())
                  for _ in range(n_up)]
        deltas = [rng.uniform(0.1, 0.6) * np.exp(2j * np.pi * rng.uniform())
                  for _ in range(n_dn)]

        def sym_eval(x, gs=gammas, ds=deltas):
            z = np.exp(1j * x)
            return np.prod([1.0 - g * z for g in gs] + [1.0 - d / z for d in ds], axis=0)

        tab = fourier_coefficients(ScalarSymbol(sym_eval), 128, 16)
        # log of each factor (1 - g z): coefficients -g^k / k at k >= 1
        logs = np.zeros((513, 1, 1), dtype=complex)
        logs[257:, 0, 0] = -sum(g ** ks for g in gammas) / ks
        logs[:256, 0, 0] = (-sum(d ** ks for d in deltas) / ks)[::-1]
        log_tab = FourierTable(1, 256, logs)
        e_w = widom_banded_E(tab, n_up, grid_size=1024)
        e_s = correction_factor(log_tab, 1, 256)
        worst = max(worst, abs(e_w - e_s))
    return worst, 1e-9, None


IDENTITIES = {
    "dimer-toeplitz": _verify_dimer_toeplitz,
    "widom": _verify_widom,
    "exp-rep": _verify_exp_rep,
    "lambda": _verify_lambda,
    "prefactor": _verify_prefactor,
    "bocg": _verify_bocg,
    "continuation": _verify_continuation,
    "kernel-closed-forms": _verify_kernel_closed_forms,
    "three-way-e": _verify_three_way_e,
    "scalar-widom": _verify_scalar_widom,
}


def run_verify(cfg: RunConfig) -> dict:
    names = sorted(IDENTITIES) if cfg.identity == "all" else [cfg.identity]
    quantities = Quantities(cfg)
    rows = []
    failed = None
    for name in names:
        residual, tol, n = IDENTITIES[name](quantities)
        status = "pass" if residual <= tol else "fail"
        if status == "fail" and failed is None:
            failed = name
        rows.append({
            "identity": name, "t_re": cfg.t.real, "t_im": cfg.t.imag, "n": n,
            "residual": float(residual), "tolerance": tol, "status": status,
        })
    return {"command": "verify", "rows": rows, "columns": VERIFY_COLUMNS,
            "first_failure": failed}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _csv_cell(value, precision):
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return "%.*g" % (precision, value)
    return str(value)


def render_csv(report: dict, precision: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = report["columns"]
    writer.writerow(columns)
    for row in report["rows"]:
        writer.writerow([_csv_cell(row.get(c), precision) for c in columns])
    return buf.getvalue()


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def emit(report: dict, cfg: RunConfig) -> None:
    text = render_json(report) if cfg.format == "json" else render_csv(report, cfg.precision)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit_error(exc: Exception, cfg: RunConfig, code: int) -> None:
    if cfg.format == "json":
        payload = json.dumps(
            {"error": {"type": type(exc).__name__, "message": str(exc), "code": code}},
            indent=2, sort_keys=True) + "\n"
        if cfg.output:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
    print(f"error: {exc}", file=sys.stderr)


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimerdet",
        description="Dimer monomer-monomer correlation via block Toeplitz determinants")
    parser.add_argument("--version", action="version", version=f"dimerdet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key = value file mirroring the options")
        for flag, f in OPTIONS.items():
            if command in f.metadata["commands"]:
                switch = f.metadata["parse"] is parse_switch
                p.add_argument(flag, dest=f.name, help=f.metadata["help"].format(
                    identities=", ".join(sorted(IDENTITIES))),
                    **({"action": "store_const", "const": "true"} if switch else {}))
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    """The run configuration: the config file, then the flags given over it."""
    values = load_config_file(args.config) if args.config else {}
    for f in OPTIONS.values():
        text = getattr(args, f.name, None)
        if text is not None:
            values[f.name] = _parse_option(f, text)
    return RunConfig(command=args.command, **values)


RUNNERS = {
    "correlation": run_correlation,
    "sweep": run_sweep,
    "convergence": run_convergence,
    "verify": run_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(command=args.command)
    try:
        cfg = build_config(args)
        validate(cfg)
    except (ConfigError, ParameterOutOfRange) as exc:
        emit_error(exc, cfg, 2)
        return 2
    try:
        report = RUNNERS[cfg.command](cfg)
    except DimerdetError as exc:
        emit_error(exc, cfg, 3)
        return 3
    emit(report, cfg)
    if cfg.command == "verify" and report["first_failure"]:
        print(f"error: identity {report['first_failure']!r} failed", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
