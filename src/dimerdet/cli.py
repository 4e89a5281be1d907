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
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .closed_form import correlation_limit, e_phi, lambda_value, prefactor, spectral_roots
from .continuation import correlation_finite, limit_scan, theta_decomposition
from .dimer import (
    DimerParams,
    dimer_matrix,
    kernel_symbols,
    phi_table,
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
    TruncationConfig,
    alpha_log_tables,
    bocg_residual,
    combine_tables,
    correction_factor,
    e_phi_operator,
    e_phi_reduction,
    exp_representation,
    scalar_E_series,
    widom_banded_E,
)

VALUE_COLUMNS = ["t_re", "t_im", "n", "value_re", "value_im",
                 "target_re", "target_im", "abs_error"]
SWEEP_COLUMNS = VALUE_COLUMNS + ["note"]
VERIFY_COLUMNS = ["identity", "t_re", "t_im", "n", "residual", "tolerance", "status"]


@dataclass
class RunConfig:
    command: str = ""
    t: complex | None = None
    t_start: float | None = None
    t_stop: float | None = None
    t_count: int | None = None
    t_imag: float = 0.0
    n: int | None = None
    n_list: list[int] = field(default_factory=list)
    identity: str = "all"
    quad_grid: int = 256
    fourier_m: int = 4096
    fourier_k: int = 512
    op_order: int = 256
    series_order: int = 2048
    tolerance: float = 1e-10
    output: str | None = None
    format: str = "csv"
    precision: int = 12
    seed: int = 1234
    verify_roots: bool = False

    def dimer_params(self, t=None) -> DimerParams:
        return DimerParams(t if t is not None else self.t,
                           quad_grid=self.quad_grid,
                           fourier_m=self.fourier_m,
                           fourier_k=self.fourier_k)

    def truncation(self) -> TruncationConfig:
        return TruncationConfig(self.op_order, self.series_order, self.tolerance)


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


_CONFIG_PARSERS = {
    "t": parse_complex,
    "t_start": float, "t_stop": float, "t_count": int, "t_imag": float,
    "n": int, "n_list": parse_n_list, "identity": str,
    "quad_grid": int, "fourier_m": int, "fourier_k": int,
    "op_order": int, "series_order": int, "tolerance": float,
    "output": str, "format": str, "precision": int, "seed": int,
    "verify_roots": lambda s: s.lower() in ("1", "true", "yes"),
}


def load_config_file(path: str) -> dict:
    values = {}
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
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
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](val.strip())
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def validate(cfg: RunConfig) -> None:
    """Range-check every override before any computation starts."""
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"unknown format {cfg.format!r}")
    if not 1 <= cfg.precision <= 17:
        raise ConfigError("precision must be between 1 and 17")
    if cfg.quad_grid < 8:
        raise ConfigError("quad_grid must be at least 8")
    if cfg.fourier_m & (cfg.fourier_m - 1) or cfg.fourier_m < 4 * cfg.fourier_k + 4:
        raise ConfigError("fourier_m must be a power of two with fourier_m >= 4*fourier_k+4")
    if cfg.op_order < 1 or cfg.series_order < 1:
        raise ConfigError("op_order and series_order must be positive")
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
        value = correlation_finite(cfg.dimer_params(t), n)
        rows.append(_row(t, n, value, limit))
    return {"command": "correlation", "rows": rows, "columns": VALUE_COLUMNS}


def run_convergence(cfg: RunConfig) -> dict:
    scan = limit_scan(cfg.t, cfg.n_list, cfg.fourier_m, cfg.fourier_k)
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
        value = correlation_finite(cfg.dimer_params(t), cfg.n)
    except DimerdetError as exc:
        return _row(t, cfg.n, None, limit, f"error: {exc}", with_note=True)
    return _row(t, cfg.n, value, limit, note, with_note=True)


def run_sweep(cfg: RunConfig) -> dict:
    ts = [complex(re, cfg.t_imag)
          for re in np.linspace(cfg.t_start, cfg.t_stop, cfg.t_count)]
    workers = int(os.environ.get("DIMERDET_THREADS", "0")) or min(4, max(1, len(ts)))
    if ts:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda t: _sweep_row(cfg, t), ts))
    else:
        rows = []
    return {"command": "sweep", "rows": rows, "columns": SWEEP_COLUMNS}


# ---------------------------------------------------------------------------
# the identity-verification suite
# ---------------------------------------------------------------------------

def _psi_tables(params: DimerParams):
    psi_tab = fourier_coefficients(symbol_psi(params), 64, 8)
    inv_tab = fourier_coefficients(symbol_psi_inverse(params), 4096, 256)
    return psi_tab, inv_tab


def _verify_dimer_toeplitz(cfg: RunConfig):
    n = cfg.n or 8
    params = cfg.dimer_params()
    det_m = log_determinant(dimer_matrix(params, n)).value
    det_t = log_determinant(toeplitz_matrix(phi_table(params), n)).value
    return abs(det_m - det_t) / abs(det_t), 1e-8, n


def _verify_widom(cfg: RunConfig):
    params = cfg.dimer_params()
    psi_tab, _ = _psi_tables(params)
    e_psi = widom_banded_E(psi_tab, 3, cfg.fourier_m)
    g = geometric_mean(symbol_psi(params), cfg.fourier_m)
    lam = lambda_value(params.t)
    return abs(e_psi - g ** 3 * lam ** 2) / abs(e_psi), 1e-8, 3


def _verify_exp_rep(cfg: RunConfig):
    params = cfg.dimer_params()
    rep = exp_representation(params)
    x = 2 * np.pi * np.arange(256) / 256 - np.pi
    rec = rep.reconstructed.sample(x)
    target = symbol_phi_product(params).sample(x)
    return float(np.max(np.abs(rec - target))), 1e-9, None


def _verify_lambda(cfg: RunConfig):
    params = cfg.dimer_params()
    _, inv_tab = _psi_tables(params)
    det3 = log_determinant(toeplitz_matrix(inv_tab, 3)).value
    lam = lambda_value(params.t)
    return abs(lam ** 2 - det3) / abs(det3), 1e-8, 3


def _verify_prefactor(cfg: RunConfig):
    params = cfg.dimer_params()
    tab1, tab2 = alpha_log_tables(params, cfg.series_order)
    a1 = combine_tables([tab1], [-0.5])
    a2 = combine_tables([tab1, tab2], [0.5, 0.5])
    ratio = (correction_factor(a1, 2, cfg.series_order)
             / correction_factor(a2, 2, cfg.series_order))
    expected = prefactor(params.t)
    return abs(ratio - expected) / abs(expected), 1e-8, None


def _verify_bocg(cfg: RunConfig):
    n = cfg.n or 3
    params = cfg.dimer_params()
    psi_tab, inv_tab = _psi_tables(params)
    e_psi = widom_banded_E(psi_tab, 3, cfg.fourier_m)
    g = geometric_mean(symbol_psi(params), cfg.fourier_m)
    res = bocg_residual(psi_tab, n, cfg.truncation())
    det_n = log_determinant(toeplitz_matrix(inv_tab, n)).value
    return abs(det_n - e_psi / g ** n * res) / abs(det_n), 1e-8, n


def _verify_continuation(cfg: RunConfig):
    n = cfg.n or 8
    seq = theta_decomposition(cfg.t, n, cfg.fourier_m, cfg.fourier_k)
    return seq.identity_residual, 1e-9, n


def _verify_kernel_closed_forms(cfg: RunConfig):
    syms = kernel_symbols(cfg.dimer_params())
    x = 2 * np.pi * np.arange(32) / 32 - np.pi
    err = max(float(np.max(np.abs(syms.st_quadrature(x) - syms.st_closed(x)))),
              float(np.max(np.abs(syms.v_quadrature(x) - syms.v_closed(x)))))
    return err, 1e-9, None


def _verify_three_way_e(cfg: RunConfig):
    params = cfg.dimer_params()
    trunc = cfg.truncation()
    e_op = e_phi_operator(params, trunc)
    e_red = e_phi_reduction(params, trunc)
    e_cf = e_phi(params.t)
    residual = max(abs(e_op - e_cf), abs(e_red - e_cf), abs(e_op - e_red)) / abs(e_cf)
    return residual, 1e-6, None


def _verify_scalar_widom(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
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
            out = np.ones_like(z)
            for g in gs:
                out = out * (1.0 - g * z)
            for d in ds:
                out = out * (1.0 - d / z)
            return out

        tab = fourier_coefficients(ScalarSymbol(sym_eval), 128, 16)
        coeffs = {}
        for k in range(1, 257):
            coeffs[k] = -sum(g ** k for g in gammas) / k
            coeffs[-k] = -sum(d ** k for d in deltas) / k
        log_tab = FourierTable.from_coeff_map(coeffs, 256)
        e_w = widom_banded_E(tab, n_up, grid_size=1024)
        e_s = scalar_E_series(log_tab, 256)
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
    rows = []
    failed = None
    for name in names:
        residual, tol, n = IDENTITIES[name](cfg)
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

    def common(p, with_t=True):
        if with_t:
            p.add_argument("--t", type=str, default=None,
                           help="parameter t, complex as RE+IMi (e.g. 0.8+0.3i); Re(t) > 0")
        p.add_argument("--config", type=str, default=None,
                       help="key = value file mirroring the run configuration")
        p.add_argument("--quad-grid", type=int, default=None)
        p.add_argument("--fourier-m", type=int, default=None)
        p.add_argument("--fourier-k", type=int, default=None)
        p.add_argument("--op-order", type=int, default=None)
        p.add_argument("--series-order", type=int, default=None)
        p.add_argument("--tol", type=float, default=None, dest="tolerance")
        p.add_argument("--output", type=str, default=None)
        p.add_argument("--format", type=str, default=None, choices=("csv", "json"))
        p.add_argument("--precision", type=int, default=None,
                       help="CSV significant digits (default 12)")
        p.add_argument("--seed", type=int, default=None)

    p_corr = sub.add_parser("correlation", help="finite-n and limiting correlation at one t")
    common(p_corr)
    p_corr.add_argument("--n", type=int, default=None)
    p_corr.add_argument("--n-list", type=str, default=None)

    p_sweep = sub.add_parser("sweep", help="correlation limit over a t grid")
    common(p_sweep, with_t=False)
    p_sweep.add_argument("--t-start", type=float, default=None)
    p_sweep.add_argument("--t-stop", type=float, default=None)
    p_sweep.add_argument("--t-count", type=int, default=None)
    p_sweep.add_argument("--t-imag", type=float, default=None)
    p_sweep.add_argument("--n", type=int, default=None)
    p_sweep.add_argument("--verify-roots", action="store_true", default=None)

    p_conv = sub.add_parser("convergence", help="determinant convergence table at one t")
    common(p_conv)
    p_conv.add_argument("--n-list", type=str, default=None)

    p_ver = sub.add_parser("verify", help="run named identity checks")
    common(p_ver)
    p_ver.add_argument("--identity", type=str, default=None,
                       help=f"one of {', '.join(sorted(IDENTITIES))}, or 'all'")
    p_ver.add_argument("--n", type=int, default=None)

    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            setattr(cfg, key, value)
    names = {f.name for f in fields(RunConfig)}
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        if key == "t":
            cfg.t = parse_complex(value)
        elif key == "n_list":
            cfg.n_list = parse_n_list(value)
        elif key in names:
            setattr(cfg, key, value)
    return cfg


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
