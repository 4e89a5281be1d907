"""Benchmark runner for dimerdet: seeded workloads with checked answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plane-scan --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full run record (environment, failure histogram, percentile used) is
written to ``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: fresh interpreters timed per run for ``setup_s``, the timed worker included
SETUP_SAMPLES = 3
#: latency charged to a failed item on top of its own time: the per-run time
#: limit, which no success can reach, so failures rank slower than any success
FAIL_RANK_MS = 180_000.0
#: the error types the histogram always lists, plus the oracle's verdict
HISTOGRAM_KEYS = ("TailNotResolved", "QuadratureUnconverged", "SingularDeterminant",
                  "wrong_value")
#: wall seconds of item loop one run may take, all its workers together, as a
#: multiple of ``--seconds`` and in absolute terms; a loop still running then
#: stops early, so the run ends within its time limit on a slow host
LOOP_LIMIT_FACTOR = 3.0
LOOP_LIMIT_S = 120.0
#: a worker that has not finished this long after its loop limit is stopped
WORKER_GRACE_S = 30.0


class WorkerFailed(RuntimeError):
    """A workload process ended without a result."""


def _worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
            stop_after: float = 0.0):
    """Start a worker and wait for it; returns (set-up seconds, result or None).

    ``seconds`` sets the number of items; the loop stops early after
    ``stop_after`` wall seconds.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--stop-after", repr(stop_after),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if not ready.strip():
            raise WorkerFailed(f"{workload} worker exited before its warm-up finished")
        if json.loads(ready).get("warmup_failure"):
            raise WorkerFailed(f"{workload} warm-up item failed: {ready.strip()}")
        rest, _ = proc.communicate(timeout=stop_after + WORKER_GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited with code {proc.returncode}")
    return setup_s, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def _ranked(outcomes, speed: float = 1.0) -> list[float]:
    """Per-item latencies in ms at reference speed, failures pushed above every success."""
    return sorted(ms * speed + (FAIL_RANK_MS if failure else 0.0) for ms, failure in outcomes)


def _tail(ranked: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest rank with at least 10 items above it."""
    index = len(ranked) - 11 if len(ranked) > 10 else len(ranked) - 1
    return ranked[index], 100.0 * (index + 1) / len(ranked)


def _histogram(outcomes) -> dict:
    counts = Counter(failure for _, failure in outcomes if failure)
    return {**{key: counts.pop(key, 0) for key in HISTOGRAM_KEYS}, **dict(counts)}


def _timings(outcomes, wall_s: float, speed: float) -> dict:
    """items_per_s, item_p50_ms and item_ptail_ms at the given host speed."""
    ranked = _ranked(outcomes, speed)
    succeeded = sum(1 for _, failure in outcomes if not failure)
    return {"items_per_s": succeeded / (wall_s * speed),
            "item_p50_ms": ranked[(len(ranked) - 1) // 2],
            "item_ptail_ms": _tail(ranked)[0]}


def end_to_end(result: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    """The six end-to-end metrics, and what the run record adds to them.

    On the workloads in ``workloads.SCALED`` the item timings are scaled to
    the reference host speed (see ``hostspeed``); the record keeps their raw
    values.  ``setup_s`` is never scaled: process start does not follow the
    kernel's speed.
    """
    outcomes = result["outcomes"]
    speed = hostspeed.speed(result["speed_samples_ms"])
    timed = _timings(outcomes, result["wall_s"], speed)
    failed = sum(1 for _, failure in outcomes if failure)
    tail_pct = _tail(_ranked(outcomes, speed))[1]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "items_per_s": (timed["items_per_s"], "1/s"),
        "item_p50_ms": (timed["item_p50_ms"], "ms"),
        "item_ptail_ms": (timed["item_ptail_ms"], "ms"),
        "fail_share": (failed / len(outcomes), "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    extra = {
        "host_speed": speed,
        "host_speed_samples": len(result["speed_samples_ms"]),
        "raw_metrics": _timings(outcomes, result["wall_s"], 1.0),
        "setup_samples_s": setup_samples,
        "item_ptail_percentile": tail_pct,
        "item_ptail_samples": len(outcomes),
        "item_ptail_is_failure": timed["item_ptail_ms"] >= FAIL_RANK_MS,
        "item_p50_is_failure": metrics["item_p50_ms"][0] >= FAIL_RANK_MS,
    }
    return metrics, extra


def per_layer(traced: dict, plain: dict) -> tuple[dict, dict]:
    """Per-item means of the traced counters, plus the tracing overhead."""
    count = len(traced["outcomes"])
    sums = traced["trace"]["sums"]
    speeds = [hostspeed.speed(run["speed_samples_ms"]) for run in (traced, plain)]
    metrics = {}
    for name, unit in tracing.METRICS.items():
        # times at reference host speed, as in the end-to-end metrics
        scale = speeds[0] if unit == "ms" else 1.0
        metrics[name] = (sums.get(name, 0.0) / count * scale, unit)
    uses = traced["trace"]["table_use"]
    metrics["spectral.table_use_ratio"] = (statistics.fmean(uses) if uses else 0.0, "ratio")
    # same seed, so both processes ran the same items; compare the common prefix
    common = min(count, len(plain["outcomes"]))
    p50 = [_ranked(run["outcomes"][:common], speed)[(common - 1) // 2]
           for run, speed in zip((traced, plain), speeds)]
    metrics["trace.overhead_ms"] = (p50[0] - p50[1], "ms")
    extra = {"host_speed": speeds[0], "host_speed_untraced": speeds[1],
             "overhead_items": common, "items_with_sections": len(uses),
             "hook_failures": traced["trace"]["hook_failures"],
             "traced_functions": traced["trace"]["wrapped"]}
    return metrics, extra


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_workload(args: argparse.Namespace) -> int:
    """Run one workload, print its metrics and result line; returns the exit code."""
    problems = workloads.self_check()
    loop_limit = min(LOOP_LIMIT_FACTOR * args.seconds, LOOP_LIMIT_S)
    try:
        if args.trace:
            # half the items untraced, half traced, same items: the difference is
            # the tracing overhead; end-to-end metrics never come from here
            half, limit = args.seconds / 2, loop_limit / 2
            _, plain = _worker(args.workload, args.seed, half, 0, False, limit)
            _, result = _worker(args.workload, args.seed, half, 1, False, limit)
            metrics, extra = per_layer(result, plain)
        else:
            setup = [_worker(args.workload, args.seed, 0, 0, True)[0]
                     for _ in range(SETUP_SAMPLES - 1)]
            setup_s, result = _worker(args.workload, args.seed, args.seconds, 0, False,
                                      loop_limit)
            metrics, extra = end_to_end(result, setup + [setup_s])
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    outcomes = result["outcomes"]
    failed = sum(1 for _, failure in outcomes if failure)
    # a CLI exit code outside 0/3 means the benchmark sent input the CLI rejects
    harness_faults = sum(1 for _, failure in outcomes if failure and failure.startswith("exit_"))
    reported = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(),
        "items_planned": result["items_planned"], "attempted": len(outcomes),
        "failed": failed, "stopped_early": len(outcomes) < result["items_planned"],
        "failure_histogram": _histogram(outcomes),
        "oracle_self_check": problems or "ok",
        "environment": result["environment"],
        "metrics": reported,
        **extra,
    }
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:42s} {value:14.6g} {unit}")
    print(f"{args.workload:15s} failures {json.dumps(record['failure_histogram'])}")
    print(f"{args.workload:15s} record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems and harness_faults == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": reported,
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or 'all' to run the three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dimerdet" / "__init__.py").is_file():
        print(f"error: no dimerdet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
               for name in names)


if __name__ == "__main__":
    sys.exit(main())
