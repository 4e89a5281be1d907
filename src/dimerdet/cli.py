"""Batch command-line surface: correlation tables (``convergence`` is
``correlation`` with ``--n-list`` required), sweeps, and the
identity-verification suite, with CSV/JSON emission.

Exit codes: 0 success, 2 configuration rejected or output file unwritable,
3 numerical failure, a failed memory allocation, or an identity that failed
or raised.  Output rows are deterministic for a fixed configuration and
seed; numbers are serialized with 17 significant digits in JSON and a
configurable precision (default 12) in CSV, so ``--precision 17`` makes the
two emissions value-identical after parsing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from . import __version__
from .closed_form import correlation_limit, e_phi, lambda_value, prefactor, spectral_roots
from .continuation import (
    _scalar_tables,
    _section_dets,
    correlation_finite,
    correlation_scan,
    e_plus_d,
    errors_decreasing,
    theta_decomposition,
)
from .dimer import (
    MAX_QUAD_GRID,
    DimerParams,
    dimer_matrix,
    kernel_symbols,
    symbol_phi,
    symbol_psi,
    symbol_psi_inverse,
)
from .errors import DimerdetError, ParameterOutOfRange, TailNotResolved, half_plane_t
from .spectral import (
    fourier_coefficients,
    geometric_mean,
    log_determinant,
    table_grid,
    toeplitz_section,
)
from .szego import (
    bocg_residual,
    correction_quotient,
    exp_representation,
    psi_table,
    szego_E_operator,
    widom_banded_E,
    widom_banded_family,
)

VALUE_COLUMNS = ["t_re", "t_im", "n", "value_re", "value_im",
                 "target_re", "target_im", "abs_error"]
SWEEP_COLUMNS = VALUE_COLUMNS + ["note"]
VERIFY_COLUMNS = ["identity", "t_re", "t_im", "n", "residual", "tolerance", "status"]


class ConfigError(Exception):
    """Rejected configuration; maps to exit code 2.  ``cfg``, where set, holds
    every option that did parse, so the error goes to the format and output
    they name."""

    cfg = None


def parse_complex(text: str) -> complex:
    """RE+IMi or RE+IMj; only a trailing ``i`` is the imaginary unit, so
    ``inf``, ``infinity`` and ``0.3+infi`` parse (and are rejected later as
    non-finite)."""
    cleaned = text.strip()
    if cleaned.endswith("i"):
        cleaned = cleaned[:-1] + "j"
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


def parse_finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def parse_switch(text: str) -> bool:
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")
    return text.lower() in ("1", "true", "yes")


#: subcommands and their one-line help
COMMANDS = {
    "correlation": "finite-n and limiting correlation at one t",
    "sweep": "correlation limit over a t grid",
    "convergence": "correlation with --n-list required: P(n) against the limit",
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
    t_start: float | None = option(parse_finite, "first real part of the sweep", ("sweep",))
    t_stop: float | None = option(parse_finite, "last real part of the sweep", ("sweep",))
    t_count: int | None = option(int, "number of sweep points", ("sweep",))
    t_imag: float = option(parse_finite, "imaginary part of every sweep point", ("sweep",), 0.0)
    n: int | None = option(int, "separation n", ("correlation", "sweep", "verify"))
    n_list: list[int] = option(parse_n_list, "comma-separated increasing separations",
                               ("correlation", "convergence"), ())
    identity: str = option(str, "one of {identities}, or 'all'", ("verify",), "all")
    tolerance: float = option(parse_finite, "tolerance of truncated series and operators "
                              "(read by verify only)", default=1e-10, flag="--tol")
    output: str | None = option(str, "write to this file instead of standard output")
    format: str = option(str, "csv or json", default="csv")
    precision: int = option(int, "CSV significant digits (default 12)", default=12)
    seed: int = option(int, "seed of the randomized checks (read by verify only)",
                       default=1234)
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


def load_config_file(path: str, command: str) -> tuple[dict, list[ConfigError]]:
    """The options of a ``key = value`` file that parse, and an error naming
    the file and line for each line that does not: no ``=``, a key that is no
    flag of ``command``, or a value its option rejects."""
    keys = {f.name: f for f in OPTIONS.values()}
    values, errors = {}, []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return values, [ConfigError(f"cannot read config file {path}: {exc}")]
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key = key.strip().replace("-", "_")
        try:
            if not eq:
                raise ConfigError("expected key = value")
            if key not in keys:
                raise ConfigError(f"unknown key {key!r}")
            if command not in keys[key].metadata["commands"]:
                raise ConfigError(f"key {key!r} is not an option of {command}")
            values[key] = _parse_option(keys[key], val)
        except ConfigError as exc:
            errors.append(ConfigError(f"{path}:{lineno}: {exc}"))
    return values, errors


def validate(cfg: RunConfig) -> None:
    """Range-check every override before any computation starts."""
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"unknown format {cfg.format!r}")
    if not 1 <= cfg.precision <= 17:
        raise ConfigError("precision must be between 1 and 17")
    if cfg.tolerance <= 0:
        raise ConfigError("tolerance must be positive")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if cfg.n is not None and cfg.n < 1:
        raise ConfigError("n must be >= 1")
    if cfg.n_list and any(b <= a for a, b in zip(cfg.n_list, cfg.n_list[1:])):
        raise ConfigError("n_list must be strictly increasing")
    if cfg.command == "correlation" and cfg.n is not None and cfg.n_list:
        raise ConfigError("--n and --n-list exclude each other; give one")
    if cfg.command in ("correlation", "convergence", "verify"):
        if cfg.t is None:
            raise ConfigError(f"{cfg.command} requires --t")
        half_plane_t(cfg.t)
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
    """``correlation`` and ``convergence``: the limit row, then P(n) against
    the limit for the n of ``--n`` or ``--n-list``; a list's report also
    says whether its errors fall, and warns when they do not."""
    t = cfg.t
    limit = correlation_limit(t)
    rows = [_row(t, None, limit, limit)]
    report = {"command": cfg.command, "rows": rows, "columns": VALUE_COLUMNS}
    ns = cfg.n_list or ([cfg.n] if cfg.n is not None else [])
    if ns:
        values = correlation_scan(DimerParams(t), ns)
        rows += [_row(t, n, value, limit) for n, value in zip(ns, values)]
        if cfg.n_list:
            report["errors_decreasing"] = errors_decreasing(ns, values, limit)
            if not report["errors_decreasing"]:
                print("warning: convergence errors are not monotonically decreasing",
                      file=sys.stderr)
    return report


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
    rows = [_sweep_row(cfg, t) for t in ts]
    return {"command": "sweep", "rows": rows, "columns": SWEEP_COLUMNS}


# ---------------------------------------------------------------------------
# the identity-verification suite
# ---------------------------------------------------------------------------

def _shared(compute):
    """A property of :class:`Quantities`, computed by ``compute(q)`` through
    ``Quantities._once``."""
    return property(lambda q: q._once(compute, lambda: compute(q)))


class Quantities:
    """The quantities the identities share, for one run: each is computed on
    its first read and kept, so ``--identity all`` builds each once."""

    def __init__(self, cfg: RunConfig):
        self.cfg, self.params = cfg, DimerParams(cfg.t)
        self._kept = {}

    def _once(self, key, compute):
        """``compute()`` on the first call with ``key``; later calls return
        its value, or raise again the ``DimerdetError`` it raised, so an
        identity that reads a failed quantity does not compute it again."""
        if key not in self._kept:
            try:
                self._kept[key] = compute(), None
            except DimerdetError as exc:
                self._kept[key] = None, exc
        value, exc = self._kept[key]
        if exc is not None:
            raise exc
        return value

    psi_tab = _shared(lambda q: psi_table(q.params))
    e_psi = _shared(lambda q: widom_banded_E(q.psi_tab, 3))
    g_psi = _shared(lambda q: geometric_mean(symbol_psi(q.params)))
    #: E(phi) / E(psi), the trace-correction quotient
    quotient = _shared(lambda q: correction_quotient(q.params, q.cfg.tolerance))
    #: the e+/d tables of at least verify's n, the run's one table pair
    scalar_tables = _shared(lambda q: _scalar_tables(q.params.t, q.cfg.n or 8))

    def psi_inverse_det(self, n: int) -> complex:
        """det T_n(psi^{-1}), from a table resolved to at least the order n - 1."""
        def compute():
            inv_tab = fourier_coefficients(symbol_psi_inverse(self.params), order=n - 1)
            return log_determinant(toeplitz_section(inv_tab, n)).value
        return self._once(n, compute)


def _verify_dimer_toeplitz(q: Quantities):
    # det M_n against the determinant P(n) is taken from, on the run's e+/d
    # pair.  The tables first, the torus last: below t of about 0.006 its grid
    # would double to MAX_QUAD_GRID and fail there after about 70 ms; the pair
    # carries the weight's branch points, which the torus kernels share, so
    # where its grid passes twice the torus cap the torus is refused at once
    n = q.cfg.n or 8
    tables = q.scalar_tables
    grid = table_grid(tables[0].order)
    if grid > 2 * MAX_QUAD_GRID:
        raise TailNotResolved(
            f"the e+/d tables need grid {grid}, past 2 * MAX_QUAD_GRID = "
            f"{2 * MAX_QUAD_GRID}: the torus grid cannot resolve their kernels")
    det_m = log_determinant(dimer_matrix(q.params, n)).value
    det_s, = _section_dets(q.params.t, [n], *tables)
    return abs(det_m - det_s) / abs(det_s), 1e-8, n


def _verify_widom(q: Quantities):
    e_psi, g = q.e_psi, q.g_psi
    lam = lambda_value(q.params.t)
    return abs(e_psi - g ** 3 * lam ** 2) / abs(e_psi), 1e-8, 3


def _verify_exp_rep(q: Quantities):
    rep = exp_representation(q.params)
    x = 2 * np.pi * np.arange(256) / 256 - np.pi
    rec = rep.reconstructed.sample(x)
    target = symbol_phi(q.params).sample(x)
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
    seq = theta_decomposition(q.cfg.t, n, q.scalar_tables)
    return seq.identity_residual, 1e-9, n


def _verify_kernel_closed_forms(q: Quantities):
    # the closed forms are e+/2 and d/2, the entries P(n) is computed from
    x = 2 * np.pi * np.arange(32) / 32 - np.pi
    err = np.abs(kernel_symbols(q.params, x) - e_plus_d(q.params.t)(x).T / 2)
    return float(np.max(err)), 1e-9, None


def _verify_three_way_e(q: Quantities):
    e_op = szego_E_operator(symbol_phi(q.params), q.cfg.tolerance)
    e_red = q.quotient * q.e_psi
    e_cf = e_phi(q.params.t)
    residual = max(abs(e_op - e_cf), abs(e_red - e_cf), abs(e_op - e_red)) / abs(e_cf)
    return residual, 1e-6, None


def laurent_family(seed: int, size: int = 20) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``scalar-widom`` draw from ``np.random.default_rng(seed)``: ``size``
    symbols prod (1 - g z) prod (1 - d/z) with 1 to 3 roots g and 0 to 3 roots
    d, of modulus in [0.1, 0.6) and uniform argument.  Returns their exact
    coefficient stack (7, size, 1, 1), k = -3..3 (a missing root is 0, a
    factor of exactly 1), their bands (the numbers of g) and Szego's exact
    constants E = prod (1 - g d)^{-1}."""
    rng = np.random.default_rng(seed)
    counts, draws = [], []
    for _ in range(size):
        counts.append((int(rng.integers(1, 4)), int(rng.integers(0, 4))))
        # modulus and argument of each root in turn, g first
        draws.append(rng.random(2 * sum(counts[-1])))
    u = np.concatenate(draws).reshape(-1, 2)
    counts = np.array(counts)
    # slots g_0..g_2, d_0..d_2 of each polynomial, filled in draw order
    roots = np.zeros((size, 2, 3), dtype=complex)
    roots[np.arange(3) < counts[:, :, None]] = (
        (0.1 + (0.6 - 0.1) * u[:, 0]) * np.exp(2j * np.pi * u[:, 1]))
    coeffs = np.zeros((size, 7), dtype=complex)
    coeffs[:, 3] = 1.0
    for g, d in roots.transpose(2, 1, 0):
        coeffs[:, 1:] -= g[:, None] * coeffs[:, :-1]  # times (1 - g z)
        coeffs[:, :-1] -= d[:, None] * coeffs[:, 1:]  # times (1 - d/z)
    exact = 1.0 / np.prod(1.0 - roots[:, 0, :, None] * roots[:, 1, None, :], axis=(1, 2))
    return coeffs.T[:, :, None, None], counts[:, 0], exact


def _verify_scalar_widom(q: Quantities):
    # the 20 symbols' E by Widom's formula in one family pass, against
    # Szego's strong limit, exact here; relative, as |E| spans 0.06 to 55
    # and the pass's error scales with it
    coeffs, bands, exact = laurent_family(q.cfg.seed)
    e_w = widom_banded_family(coeffs, bands)
    return float(np.max(np.abs(e_w - exact) / np.abs(exact))), 1e-9, None


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


def _verify_row(name: str, q: Quantities) -> dict:
    """One identity's row: ``pass`` or ``fail`` by its residual, or ``error``
    with the type and message of the ``DimerdetError`` it raised."""
    row = {"identity": name, "t_re": q.cfg.t.real, "t_im": q.cfg.t.imag}
    try:
        residual, tol, n = IDENTITIES[name](q)
    except DimerdetError as exc:
        return row | {"n": None, "residual": None, "tolerance": None, "status": "error",
                      "error": {"type": type(exc).__name__, "message": str(exc)}}
    return row | {"n": n, "residual": float(residual), "tolerance": tol,
                  "status": "pass" if residual <= tol else "fail"}


def run_verify(cfg: RunConfig) -> dict:
    names = sorted(IDENTITIES) if cfg.identity == "all" else [cfg.identity]
    quantities = Quantities(cfg)
    rows = [_verify_row(name, quantities) for name in names]
    failed = next((row["identity"] for row in rows if row["status"] != "pass"), None)
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


def _write(text: str, cfg: RunConfig) -> int:
    """Write ``text`` to ``--output`` or standard output: exit code 0, or 2
    after one error line when the output file cannot be written."""
    if not cfg.output:
        sys.stdout.write(text)
        return 0
    try:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {cfg.output}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def emit(report: dict, cfg: RunConfig) -> int:
    text = render_json(report) if cfg.format == "json" else render_csv(report, cfg.precision)
    return _write(text, cfg)


def emit_error(exc: Exception, cfg: RunConfig, code: int) -> int:
    """Report ``exc``; returns ``code``, or 2 if the output cannot be written."""
    message = str(exc) or type(exc).__name__  # a bare MemoryError has no message
    if cfg.format == "json":
        payload = json.dumps(
            {"error": {"type": type(exc).__name__, "message": message, "code": code}},
            indent=2, sort_keys=True) + "\n"
        if _write(payload, cfg):
            return 2
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and then reused:
    it depends only on module constants, and ``parse_args`` starts each call
    from a fresh namespace."""
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
    """The run configuration: the config file, then the flags given over it.
    Every line and flag is read before the first that does not parse is
    raised, its ``cfg`` the configuration of all that did."""
    values, errors = load_config_file(args.config, args.command) if args.config else ({}, [])
    for f in OPTIONS.values():
        text = getattr(args, f.name, None)
        if text is not None:
            try:
                values[f.name] = _parse_option(f, text)
            except ConfigError as exc:
                errors.append(exc)
    cfg = RunConfig(command=args.command, **values)
    if errors:
        errors[0].cfg = cfg
        raise errors[0]
    return cfg


RUNNERS = {
    "correlation": run_correlation,
    "sweep": run_sweep,
    "convergence": run_correlation,
    "verify": run_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(command=args.command)
    try:
        cfg = build_config(args)
        validate(cfg)
    except (ConfigError, ParameterOutOfRange) as exc:
        return emit_error(exc, getattr(exc, "cfg", None) or cfg, 2)
    try:
        report = RUNNERS[cfg.command](cfg)
    except (DimerdetError, MemoryError) as exc:
        return emit_error(exc, cfg, 3)
    if emit(report, cfg):
        return 2
    if cfg.command == "verify" and report["first_failure"]:
        for row in report["rows"]:
            if row["status"] == "error":
                print(f"error: identity {row['identity']!r} raised {row['error']['type']}: "
                      f"{row['error']['message']}", file=sys.stderr)
        print(f"error: identity {report['first_failure']!r} failed", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
