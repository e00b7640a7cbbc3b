"""Benchmark of the torusbog verbs: one workload at one seed in one process.

    python3 bench/run.py --workload study-sweep --seed 0 --seconds 50 --trace 0

Runs from the root of a source checkout and imports the program from ./src.
The workload's verb calls go through torusbog.cli.main. A pass makes them once
against an empty cache directory (cold), then again against the cache the
cold calls filled (warm). Passes repeat until --seconds is used up; every
output is checked against bench/reference.py. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb). With --trace 1, traced and untraced passes alternate and the
metrics are the per-layer ones of bench/tracing.py, with warm_wall_s taken
from the untraced passes; spans and counts go to
.bench_work/trace-<workload>-seed<seed>.json.

--perturb-test runs one pass and shows that every check fails once the value
it reads is perturbed.
"""
from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread per process, pinned before anything imports numpy.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402

# set-up is timed in at least this many fresh processes; the median is setup_s.
SETUP_PROBES = 7
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60


def setup(workload: workloads.Workload, seed: int, config_dir: Path) -> dict:
    """Everything before the first timed verb call: import the program and its
    numerical stack, generate the seeded inputs and write them as configs."""
    if not (SRC / "torusbog" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'torusbog'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401

    import torusbog
    from torusbog import asymptotics, bogoliubov, cli, fock_ed, model

    if not Path(torusbog.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: torusbog was imported from {torusbog.__file__}, not from {SRC}")
    inputs = workload.inputs(seed)
    config_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in inputs.items():
        (config_dir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    modules = {
        "model": model,
        "bogoliubov": bogoliubov,
        "fock_ed": fock_ed,
        "asymptotics": asymptotics,
        "cli": cli,
    }
    return {"modules": modules, "inputs": inputs, "config_dir": config_dir}


def time_setup(args, probe_dir: Path) -> float:
    """Seconds from the start of a fresh process until its set-up is done."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only", str(probe_dir),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        sys.exit(f"error: set-up probe exited with {code}")
    shutil.rmtree(probe_dir, ignore_errors=True)
    return elapsed


def run_calls(cli, calls, config_dir: Path, out_root: Path, cache_dir: Path) -> dict:
    codes = {}
    for call, verb in calls:
        argv = [
            verb,
            "--config", str(config_dir / f"{call}.json"),
            "--out", str(out_root / call),
            "--cache", str(cache_dir),
        ]
        try:
            codes[call] = cli.main(argv)
        except Exception:
            traceback.print_exc()
            codes[call] = None
    return codes


def one_pass(workload, ctx: dict, run_dir: Path, tracer=None) -> dict:
    """Cold calls against an empty cache, then the same calls warm; outputs
    are read and checked after the clock stops."""
    cli = ctx["modules"]["cli"]
    pass_dir = Path(tempfile.mkdtemp(dir=run_dir, prefix="pass-"))
    cache = pass_dir / "cache"
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        cold_codes = run_calls(cli, workload.calls, ctx["config_dir"], pass_dir / "cold", cache)
        cold = time.perf_counter() - start
        warm_codes = run_calls(cli, workload.calls, ctx["config_dir"], pass_dir / "warm", cache)
        total = time.perf_counter() - start
    outputs = {
        "cold": {c: workloads.collect(str(pass_dir / "cold" / c), cold_codes[c]) for c, _ in workload.calls},
        "warm": {c: workloads.collect(str(pass_dir / "warm" / c), warm_codes[c]) for c, _ in workload.calls},
    }
    shutil.rmtree(pass_dir, ignore_errors=True)
    codes = list(cold_codes.values()) + list(warm_codes.values())
    return {
        "cold": cold,
        "warm": total - cold,
        "total": total,
        "calls": len(codes),
        "failed_calls": sum(1 for c in codes if c != 0),
        "outputs": outputs,
    }


def perturb_test(checks, outputs) -> int:
    bad = []
    for check in checks:
        if not check.ok(outputs):
            bad.append(f"{check.name}: fails on the unperturbed output")
            continue
        perturbed = copy.deepcopy(outputs)
        check.perturb(perturbed)
        if check.ok(perturbed):
            bad.append(f"{check.name}: still passes after perturbation")
    for line in bad:
        print(line, file=sys.stderr)
    print(json.dumps({"checks": len(checks), "not_sensitive": len(bad)}))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--perturb-test", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        setup(workload, args.seed, Path(args.setup_only))
        print("ready", flush=True)
        return 0

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-{args.seed}-"))
    try:
        return measure(args, workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, workload, run_dir: Path) -> int:
    ctx = setup(workload, args.seed, run_dir / "configs")
    t0 = time.perf_counter()
    ref = workload.reference(ctx["inputs"])
    checks = workload.checks(ctx["inputs"], ref)
    print(f"reference: {time.perf_counter() - t0:.2f} s, {len(checks)} checks per pass", file=sys.stderr)

    if args.perturb_test:
        return perturb_test(checks, one_pass(workload, ctx, run_dir)["outputs"])

    if args.trace:
        import tracing

    untraced, traced, setup_samples = [], [], []
    attempted = failed = failed_checks = 0
    start = time.perf_counter()
    last = 0.0
    while True:
        done = len(untraced) + len(traced)
        needed = MIN_PASSES * (2 if args.trace else 1)
        if done >= needed and time.perf_counter() - start + last > args.seconds:
            break
        t0 = time.perf_counter()
        # Start every pass from the same collector state.
        gc.collect()
        tracer = tracing.Tracer(ctx["modules"]) if args.trace and done % 2 == 1 else None
        result = one_pass(workload, ctx, run_dir, tracer)
        bad = [c.name for c in checks if not c.ok(result["outputs"])]
        del result["outputs"]
        for name in bad:
            print(f"check failed: {name}", file=sys.stderr)
        attempted += result["calls"] + len(checks)
        failed += result["failed_calls"] + len(bad)
        failed_checks += len(bad)
        if tracer is None:
            untraced.append(result)
        else:
            traced.append((result, tracer))
        if not args.trace:
            # Set-up probes sit between passes, so that they sample the
            # machine across the whole run rather than at its start.
            setup_samples.append(time_setup(args, run_dir / f"setup-{done}"))
        last = time.perf_counter() - t0

    if args.trace:
        metrics = tracing.summarize(
            [(r["total"], r["warm"]) for r in untraced], [(r["total"], t) for r, t in traced]
        )
        # One more check per traced run: every traced pass counted the same.
        attempted += 1
        if any(t.counts != traced[0][1].counts for _, t in traced):
            print("check failed: counts differ between traced passes", file=sys.stderr)
            failed += 1
            failed_checks += 1
        dump = {
            "workload": args.workload,
            "seed": args.seed,
            "untraced_pass_s": [r["total"] for r in untraced],
            "traced_passes": [{"pass_s": r["total"], **t.dump()} for r, t in traced],
        }
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(dump), encoding="utf-8")
    else:
        while len(setup_samples) < SETUP_PROBES:
            setup_samples.append(time_setup(args, run_dir / f"setup-{len(setup_samples)}-end"))
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": statistics.median(r["cold"] for r in untraced), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced, {len(traced)} traced passes; "
        f"cold {[round(r['cold'], 3) for r in untraced]}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": failed_checks == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
