"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there, never from an installed copy.  One caller runs the
workload's items back to back in this process (a closed loop), checking
every output, for about ``--seconds`` of busy time.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run of a fixed item list with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7


def import_program():
    """Import jhp_lab from this checkout's src/, or exit without a result."""
    if not (SRC / "jhp_lab" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'jhp_lab'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import jhp_lab

    if Path(jhp_lab.__file__).resolve().parent != SRC / "jhp_lab":
        sys.exit(f"error: imported jhp_lab from {jhp_lab.__file__}, not from {SRC}")
    return jhp_lab


MIN_ITEMS = 11  # enough for a tail percentile with ten items beyond it


def run_items(items, runner=None):
    """Run items back to back.  Returns (latencies, failures)."""
    latencies: list[float] = []
    failures: list[str] = []
    for item in items:
        t0 = time.perf_counter()
        try:
            out = runner(len(latencies), item.run) if runner else item.run()
            error = None
        except Exception:  # an item that raises counts as failed
            out, error = None, traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - t0)
        if error is None:
            error = item.check(out)
        if error is not None:
            failures.append(f"{item.label}: {error}")
    return latencies, failures


def run_rounds(rounds, seconds: float):
    """Run whole rounds; stop at the round boundary nearest to `seconds` of
    busy time, judged by the mean round so far, once MIN_ITEMS items ran.

    Stopping only between rounds keeps every run at the same cost mix."""
    latencies: list[float] = []
    failures: list[str] = []
    for k, rnd in enumerate(rounds, start=1):
        lat, fail = run_items(rnd)
        latencies += lat
        failures += fail
        busy = sum(latencies)
        if busy + busy / k / 2 >= seconds and len(latencies) >= MIN_ITEMS:
            break
    return latencies, failures


def tail_percentile(latencies: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    raise ValueError(f"{n} items: need more than ten for a tail percentile")


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import and build the workload."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report_failures(failures: list[str]) -> None:
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)


def end_to_end(wl, args) -> dict:
    setup_s = measure_setup(args.workload, args.seed)
    latencies, failures = run_rounds(wl.rounds, args.seconds)
    _, canary_failures = run_items(wl.canaries)
    failures += canary_failures
    report_failures(failures)
    busy = sum(latencies)
    p, tail = tail_percentile(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(latencies) + len(wl.canaries)
    print(f"{args.workload}: {len(latencies)} items in {busy:.2f} s busy; "
          f"item_tail_ms is p{p} of {len(latencies)} items; "
          f"{len(failures)} failed of {attempted} (error_rate {len(failures) / attempted:g})")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "items_per_s": metric(len(latencies) / busy, "1/s"),
            "item_p50_ms": metric(statistics.median(latencies) * 1000, "ms"),
            "item_tail_ms": metric(tail * 1000, "ms"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        },
    }


def traced(wl, args) -> dict:
    from tracing import Tracer, metric_names

    plain, failures = run_items(wl.traced)
    tracer = Tracer()
    tracer.install()
    try:
        timed, traced_failures = run_items(wl.traced, tracer.run_item)
    finally:
        tracer.uninstall()
    failures += traced_failures
    report_failures(failures)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    count = tracer.write(path)
    values = tracer.metrics()
    untraced_ips = len(plain) / sum(plain)
    traced_ips = len(timed) / sum(timed)
    units = dict(metric_names())
    metrics = {name: metric(values[name], units[name]) for name in units}
    metrics["tracing.items_per_s"] = metric(traced_ips, "1/s")
    metrics["tracing.untraced_items_per_s"] = metric(untraced_ips, "1/s")
    metrics["tracing.overhead_items_per_s"] = metric(traced_ips - untraced_ips, "1/s")
    print(f"{args.workload}: {len(timed)} items traced, {count} spans in {path.relative_to(ROOT)}; "
          f"tracing overhead {traced_ips - untraced_ips:+.3f} items/s "
          f"({traced_ips:.3f} traced vs {untraced_ips:.3f} untraced)")
    return {
        "correct": not failures,
        "attempted": len(plain) + len(timed),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"item-{os.getpid()}.out"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, out)
        if args.setup_only:
            return 0
        result = traced(wl, args) if args.trace else end_to_end(wl, args)
    finally:
        out.unlink(missing_ok=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
