"""Per-layer spans around dimerdet's public functions, installed from outside.

Nothing in ``src/`` changes.  Modules bind each other's functions with
``from .spectral import ...``, so every function is replaced in every
dimerdet module that binds it, not only in the module that defines it.
Symbol sampling is wrapped on the classes (``MatrixSymbol.sample`` and
``ScalarSymbol.__call__``) and counted once, at the outermost sampling call.

A span's self time is its duration minus the time its child spans cover.
The load has one thread, so no layer waits on another and no wait time is
measured.  Counters are summed per item; the runner divides by the number
of items.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

from workloads import IDENTITIES

LAYERS = ("spectral", "dimer", "closed_form", "szego", "continuation", "cli")

#: public functions whose time is reported under a named group; every other
#: public function of a layer still counts in the layer's totals
GROUPS = {
    "spectral": {
        "fourier_coefficients": "fourier_coefficients",
        "toeplitz_matrix": "section", "hankel_matrix": "section",
        "toeplitz_section": "section", "hankel_section": "section",
        "log_determinant": "log_determinant",
    },
    "dimer": {
        # dimer_coefficients is the per-k loop that only dimer_matrix calls
        "dimer_matrix": "dimer_matrix", "dimer_coefficients": "dimer_matrix",
        "coefficient_R": "coefficient", "coefficient_Q": "coefficient",
        "kernel_symbols": "kernel_symbols",
    },
    "szego": {
        "szego_E_operator": "szego_E_operator", "bocg_residual": "bocg_residual",
        "widom_banded_E": "widom_banded_E", "e_phi_reduction": "e_phi_reduction",
        "scalar_E_series": "series", "hankel_trace": "series",
        "correction_factor": "series", "exp_representation": "exp_representation",
    },
    "continuation": {
        "b_hat": "b_hat", "theta_decomposition": "theta_decomposition",
        "limit_scan": "limit_scan",
    },
    "closed_form": {},
    "cli": {},
}

#: every per-layer metric, with its unit, in report order
METRICS = {
    "spectral.sample.self_ms": "ms",
    "spectral.sample.points": "count",
    "spectral.fourier_coefficients.self_ms": "ms",
    "spectral.fourier_coefficients.calls": "count",
    "spectral.fourier_coefficients.grid_points": "count",
    "spectral.table_use_ratio": "ratio",
    "spectral.section.self_ms": "ms",
    "spectral.section.bytes": "bytes",
    "spectral.log_determinant.self_ms": "ms",
    "spectral.log_determinant.calls": "count",
    "spectral.log_determinant.flops": "flop",
    "spectral.log_determinant.singular": "count",
    "dimer.dimer_matrix.self_ms": "ms",
    "dimer.coefficient.calls": "count",
    "dimer.coefficient.self_ms": "ms",
    "dimer.kernel_symbols.self_ms": "ms",
    "szego.szego_E_operator.self_ms": "ms",
    "szego.bocg_residual.self_ms": "ms",
    "szego.widom_banded_E.self_ms": "ms",
    "szego.e_phi_reduction.self_ms": "ms",
    "szego.series.self_ms": "ms",
    "szego.exp_representation.self_ms": "ms",
    "continuation.b_hat.self_ms": "ms",
    "continuation.theta_decomposition.self_ms": "ms",
    "continuation.limit_scan.self_ms": "ms",
    "cli.self_ms": "ms",
    **{f"cli.verify.{name}.ms": "ms" for name in IDENTITIES},
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_ms", "ms"), ("calls", "count"), ("errors", "count"))},
    "trace.overhead_ms": "ms",
}


class Tracer:
    """Span stack and per-item counters for one traced process."""

    def __init__(self, error_type: type):
        self._error_type = error_type
        self._stack: list[list[float]] = []  # child seconds per open span
        self._sampling = False
        self._attributed: set[int] = set()
        self.item: dict[str, float] = defaultdict(float)
        self.table_use = 0.0
        self.hook_failures = 0

    def reset_item(self) -> None:
        self.item = defaultdict(float)
        self.table_use = 0.0
        self._attributed.clear()

    def call(self, layer: str, group: str | None, fn, args, kwargs):
        """Run fn inside a span and charge its self time to layer and group."""
        self._stack.append([0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except self._error_type as exc:
            # an error counts once, against the innermost function it leaves
            if id(exc) not in self._attributed:
                self._attributed.add(id(exc))
                self.item[f"{layer}.errors"] += 1
            raise
        finally:
            elapsed = time.perf_counter() - start
            children = self._stack.pop()[0]
            if self._stack:
                self._stack[-1][0] += elapsed
            self_ms = (elapsed - children) * 1e3
            self.item[f"{layer}.self_ms"] += self_ms
            self.item[f"{layer}.calls"] += 1
            if group is not None:
                self.item[f"{layer}.{group}.self_ms"] += self_ms
                self.item[f"{layer}.{group}.calls"] += 1

    def exclude(self, seconds: float) -> None:
        """Keep the tracer's own bookkeeping out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][0] += seconds

    def section_read(self, order: int, reach: int, nbytes: int) -> None:
        self.item["spectral.section.bytes"] += nbytes
        if order > 0:
            self.table_use = max(self.table_use, min(reach, order) / order)


def _after_hook(tracer: Tracer, name: str, fn, default_grid):
    """Counters computed from a call's arguments and result, or None."""
    signature = inspect.signature(fn)

    def _bound_args(args, kwargs) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    if name == "fourier_coefficients":
        def hook(args, kwargs, result):
            a = _bound_args(args, kwargs)
            grid = a["grid_size"] if a["grid_size"] is not None else default_grid(a["sym"])[0]
            tracer.item["spectral.fourier_coefficients.grid_points"] += grid
        return hook
    if name == "log_determinant":
        def hook(args, kwargs, result):
            d = len(args[0]) if args else len(kwargs["a"])
            tracer.item["spectral.log_determinant.flops"] += 8.0 / 3.0 * d ** 3
            tracer.item["spectral.log_determinant.singular"] += bool(result.is_singular)
        return hook
    reach = {
        "toeplitz_matrix": lambda a: a["n"] - 1,
        "hankel_matrix": lambda a: 2 * a["m"] - 1,
        "toeplitz_section": lambda a: a["m"] - 1,
        "hankel_section": lambda a: 2 * a["m"] - 1 + a["shift"],
    }.get(name)
    if reach is not None:
        def hook(args, kwargs, result):
            a = _bound_args(args, kwargs)
            tracer.section_read(a["tab"].order, reach(a), result.nbytes)
        return hook
    return None


def _wrap(tracer: Tracer, layer: str, name: str, fn, hook):
    group = GROUPS[layer].get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(layer, group, fn, args, kwargs)
        if hook is not None:
            start = time.perf_counter()
            try:
                hook(args, kwargs, result)
            except (KeyError, TypeError, AttributeError):
                # a later signature this hook does not know; the count is skipped
                tracer.hook_failures += 1
            tracer.exclude(time.perf_counter() - start)
        return result

    return wrapper


def _wrap_sampling(tracer: Tracer, method):
    @functools.wraps(method)
    def wrapper(sym, x, *args, **kwargs):
        if tracer._sampling:
            return method(sym, x, *args, **kwargs)
        tracer._sampling = True
        try:
            result = tracer.call("spectral", "sample", method, (sym, x) + args, kwargs)
        finally:
            tracer._sampling = False
        # scalar evaluations: angles times block entries
        tracer.item["spectral.sample.points"] += result.size
        return result

    return wrapper


def _wrap_identity(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return tracer.call("cli", None, fn, args, kwargs)
        finally:
            tracer.item[f"cli.verify.{name}.ms"] += (time.perf_counter() - start) * 1e3

    return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap the public functions of every layer; returns the wrapped names.

    Names a layer no longer has are skipped, so the tracer keeps working on
    later versions of the package; their metrics then read 0.
    """
    modules = {name: mod for name, mod in sys.modules.items()
               if mod is not None and (name == "dimerdet" or name.startswith("dimerdet."))}
    spectral = modules["dimerdet.spectral"]
    default_grid = getattr(spectral, "default_grid", None)
    wrapped = []
    for layer in LAYERS:
        mod = modules.get(f"dimerdet.{layer}")
        if mod is None:
            continue
        for name, fn in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            hook = _after_hook(tracer, name, fn, default_grid) if layer == "spectral" else None
            wrapper = _wrap(tracer, layer, name, fn, hook)
            for other in modules.values():
                for attr, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, attr, wrapper)
            wrapped.append(f"{layer}.{name}")
    for cls_name, method in (("MatrixSymbol", "sample"), ("ScalarSymbol", "__call__")):
        cls = getattr(spectral, cls_name, None)
        if cls is not None and method in vars(cls):
            setattr(cls, method, _wrap_sampling(tracer, vars(cls)[method]))
            wrapped.append(f"spectral.{cls_name}.{method}")
    cli = modules.get("dimerdet.cli")
    identities = getattr(cli, "IDENTITIES", {})
    for name, fn in list(identities.items()):
        identities[name] = _wrap_identity(tracer, name, fn)
        wrapped.append(f"cli.verify.{name}")
    return wrapped
