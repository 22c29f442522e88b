"""Run the benchmark on one or two checkouts over several seeds and summarize.

    # the spread of one checkout, ten seeds, every workload
    python3 bench/compare.py --checkout . --seeds 1-10
    # parent against change, alternating which side runs first
    python3 bench/compare.py --checkout ../parent --checkout . --seeds 1-10 \\
        --workload typea-report --record BENCH_change.json

Each run is a fresh `bench/run.py` process started in the checkout's
root, so each side measures its own `src/`.  The summary gives, per
workload and metric, the median and quartiles of each side, the spread
(interquartile range over median) and, with two sides, the change's
median against the parent's and how many seed pairs the change won.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def git_sha(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", action="append", type=Path, required=True,
                        help="source checkout to measure; give the parent first")
    parser.add_argument("--workload", action="append",
                        help="workload to run (default: every workload)")
    parser.add_argument("--seeds", default="1-10", help="seed or range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="write runs and summary here as JSON")
    args = parser.parse_args(argv)
    if len(args.checkout) > 2:
        parser.error("give one or two checkouts")
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    seeds = seeds_of(args.seeds)
    higher = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] if m["better"] == "higher"}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    runs: dict = {}
    for workload in workloads:
        for k, seed in enumerate(seeds):
            order = list(range(len(args.checkout)))
            if k % 2:
                order.reverse()
            for side in order:
                result = run_once(args.checkout[side], workload, seed, SPEC["run_seconds"], args.trace)
                runs.setdefault(workload, {}).setdefault(side, []).append(result)
                print(f"{workload} seed {seed} side {side}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    summary: dict = {}
    for workload, sides in runs.items():
        for name in sides[0][0]["metrics"]:
            per_side = [[r["metrics"][name]["value"] for r in sides[s]] for s in sorted(sides)]
            row = {"unit": sides[0][0]["metrics"][name]["unit"]}
            row["sides"] = [summarize(v) for v in per_side]
            if len(per_side) == 2:
                parent, change = per_side
                better = (lambda a, b: a > b) if name in higher else (lambda a, b: a < b)
                row["change_over_parent"] = row["sides"][1]["median"] / row["sides"][0]["median"]
                row["change_wins"] = sum(better(c, p) for p, c in zip(parent, change))
                row["pairs"] = len(parent)
            summary.setdefault(workload, {})[name] = row
            text = "  ".join(
                f"median {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] spread {s['spread']:.3f}"
                for s in row["sides"]
            )
            extra = ""
            if "change_over_parent" in row:
                extra = f"  change/parent {row['change_over_parent']:.3f} wins {row['change_wins']}/{row['pairs']}"
            if name in bounds:
                extra += f"  bound {bounds[name]}"
            print(f"{workload:13s} {name:28s} {text}{extra}")

    if args.record is not None:
        record = {
            "checkouts": [{"path": str(c), "git_sha": git_sha(c)} for c in args.checkout],
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "run_seconds": SPEC["run_seconds"],
            "seeds": seeds,
            "trace": args.trace,
            "summary": summary,
            "runs": runs,
        }
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
