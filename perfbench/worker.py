"""One workload process: import dimerdet, run a warm-up item, then the timed loop.

Started by ``run.py``; not meant to be run by hand.  The load is a closed
loop with one client thread: each item starts when the previous one has
returned.  The loop runs the fixed number of items ``workloads.item_count``
gives for the run length, and stops early only at ``--stop-after``.  The
worker prints ``ready`` once the warm-up item is done (the runner times
set-up up to that line) and, after the loop, one JSON line with the
per-item outcomes.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import itertools
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

#: least wall time between two host-speed samples in the item loop
SPEED_SAMPLE_GAP_S = 0.02


def _import_dimerdet():
    import dimerdet
    if not Path(dimerdet.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"dimerdet imported from {dimerdet.__file__}, not from this checkout")
    return dimerdet


def run_item(dimerdet, workload: str, item: workloads.Item) -> tuple[float, str | None]:
    """Run one item; returns its latency in ms and None, or the failure class.

    Only the call into dimerdet is timed; the oracle runs after it.  Failure
    classes are the exception type a run raised or reported
    (``TailNotResolved``, ``QuadratureUnconverged``, ...), ``wrong_value``
    when the oracle rejects an answer, or ``exit_<code>`` for an exit code
    the CLI does not document for numerical failures.
    """
    if workload == "finite-n":
        start = time.perf_counter()
        try:
            value = dimerdet.correlation_finite(dimerdet.DimerParams(item.t), item.n)
        except Exception as exc:  # every raised type is a measured outcome
            return (time.perf_counter() - start) * 1e3, type(exc).__name__
        ms = (time.perf_counter() - start) * 1e3
        return ms, None if workloads.check_value(item.t, item.n, value) is None else "wrong_value"

    if workload == "plane-scan":
        argv = ["correlation", "--t", item.t_arg(), "--n", str(item.n), "--format", "json"]
    else:
        argv = ["verify", "--identity", "all", "--t", item.t_arg(), "--format", "json"]
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = dimerdet.cli.main(argv)
    except Exception as exc:  # an exception escaping main is a failure too
        return (time.perf_counter() - start) * 1e3, type(exc).__name__
    ms = (time.perf_counter() - start) * 1e3
    return ms, _check_report(workload, item, code, out.getvalue())


def _check_report(workload: str, item: workloads.Item, code: int, text: str) -> str | None:
    if code not in (0, 3):
        return f"exit_{code}"
    report = json.loads(text) if text.strip() else {}
    if "error" in report:
        return report["error"].get("type", f"exit_{code}")
    if workload == "identity-suite":
        ok = code == 0 and workloads.check_verify_rows(report["rows"]) is None
        return None if ok else "wrong_value"
    if code != 0:
        return f"exit_{code}"
    rows = {row["n"]: row for row in report["rows"]}
    for n in (None, item.n):
        row = rows.get(n)
        if row is None or row["value_re"] is None:
            return "wrong_value"
        if workloads.check_value(item.t, n, complex(row["value_re"], row["value_im"])):
            return "wrong_value"
    return None


def _blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, read from the library itself."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        threads = _blas_threads()
    except OSError as exc:
        threads = {"unknown": str(exc)}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length; sets the number of items")
    parser.add_argument("--stop-after", type=float, required=True,
                        help="wall seconds after which the loop stops early")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    dimerdet = _import_dimerdet()
    if args.workload != "finite-n":
        # CLI users pay for the CLI module too; the package does not import it
        import dimerdet.cli  # noqa: F401

    tracer, wrapped = None, []
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(dimerdet.DimerdetError)
        wrapped = tracing.install(tracer)

    _, warm = run_item(dimerdet, args.workload, workloads.WARMUP[args.workload])
    print(json.dumps({"ready": True, "warmup_failure": warm}), flush=True)
    if args.setup_only:
        return 0

    outcomes = []
    trace_sums: dict[str, float] = {}
    table_use = []
    stream = workloads.items(args.workload, args.seed)
    planned = workloads.item_count(args.workload, args.seconds)
    scaled = args.workload in workloads.SCALED
    speed_ms: list[float] = []
    speed_s = 0.0  # wall time spent on host-speed samples, left out of wall_s
    start = time.perf_counter()
    stop_at = start + args.stop_after
    end = sampled = start
    for item in itertools.islice(stream, planned):
        if end >= stop_at:
            break
        if scaled and (end - sampled >= SPEED_SAMPLE_GAP_S or not speed_ms):
            speed_ms.append(hostspeed.sample_ms())
            sampled = time.perf_counter()
            speed_s += sampled - end
        if tracer is not None:
            tracer.reset_item()
        ms, failure = run_item(dimerdet, args.workload, item)
        end = time.perf_counter()
        outcomes.append([ms, failure])
        if tracer is not None:
            for key, value in tracer.item.items():
                trace_sums[key] = trace_sums.get(key, 0.0) + value
            if tracer.table_use > 0:
                table_use.append(tracer.table_use)

    result = {
        "wall_s": end - start - speed_s,
        "speed_samples_ms": speed_ms,
        "items_planned": planned,
        "outcomes": outcomes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        result["trace"] = {"sums": trace_sums, "table_use": table_use,
                           "hook_failures": tracer.hook_failures, "wrapped": wrapped}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
