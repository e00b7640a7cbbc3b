"""Reference figures: runs bench/run.py over seeds and prints Markdown tables.

    python3 bench/figures.py --seeds 1-10

For every workload of BENCHMARK.json (or of --workloads) this makes one
untraced run per seed, at the run length of BENCHMARK.json, and reports per
end-to-end metric the median, the quartiles and their spread (Q3 - Q1 over the
median), as statistics.quantiles(values, n=4) gives them. It then makes two
traced runs per workload at seed 0, exits 1 if any count differs between
them, and prints the per-layer metrics of the first. Runs go one at a time.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]]
    )
    args = parser.parse_args()

    print("| workload | metric | unit | median | Q1 | Q3 | spread | failed share |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in args.workloads:
        results = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        if not all(r["correct"] for r in results):
            print(f"error: a {workload} run reported incorrect output", file=sys.stderr)
            return 1
        shares = sorted({f"{r['failed'] / r['attempted']:.4g}" for r in results})
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(
                f"| {workload} | {name} | {first['unit']} | {med:.4g} | {q1:.4g} | "
                f"{q3:.4g} | {(q3 - q1) / med:.3f} | {', '.join(shares)} |"
            )
    print()
    print("| metric | unit | " + " | ".join(args.workloads) + " |")
    print("|---|---|" + "---|" * len(args.workloads))
    traced = []
    for workload in args.workloads:
        first, second = (run(workload, 0, args.seconds, 1) for _ in range(2))
        if not (first["correct"] and second["correct"]):
            print(f"error: a traced {workload} run reported incorrect output", file=sys.stderr)
            return 1
        differ = [
            name
            for name, m in first["metrics"].items()
            if m["unit"] in ("count", "bytes") and m["value"] != second["metrics"][name]["value"]
        ]
        if differ:
            print(f"error: {workload} counts differ between two traced runs: {differ}", file=sys.stderr)
            return 1
        traced.append(first["metrics"])
    for name, first in traced[0].items():
        values = [t[name]["value"] for t in traced]
        cells = [f"{v:.4g}" if isinstance(v, float) else str(v) for v in values]
        print(f"| {name} | {first['unit']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
