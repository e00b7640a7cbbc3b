"""The benchmark's reference checks pass on the program as it stands.

bench/workloads.py compares every output of a workload pass with values that
bench/reference.py computes without the program, and bench/run.py's
--perturb-test shows that each check fails once its value is perturbed. These
tests run every workload, study-sweep, ed-sectors, ed-dense and eval-lattice,
once at seed 1, in process, through bench/run.py's own set-up, pass and
perturbation functions, so a change that moves a reported number past a check
fails here, not only in a benchmark run. Between them they reach the dense
and iterative solves, whole sectors solved block by block and single momentum
blocks, the pair Hamiltonian, and the analytic layer on a d = 3 ball.
"""
from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str, path: Path):
    """The module at path, registered as name, as an import would leave it."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run():
    # run.py imports workloads, and workloads imports reference, by name from
    # bench/; run.py also pins the BLAS thread variables for its own
    # process. All of that is undone afterwards.
    environ, path = dict(os.environ), list(sys.path)
    sys.path.insert(0, str(BENCH))
    load("workloads", BENCH / "workloads.py")
    try:
        yield load("bench_run", BENCH / "run.py")
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
        for name in ("workloads", "reference", "bench_run"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["study-sweep", "ed-sectors", "ed-dense", "eval-lattice"])
def test_every_check_passes_and_reads_its_value(run, name, tmp_path, capsys):
    workload = run.workloads.WORKLOADS[name]
    ctx = run.setup(workload, 1, tmp_path / "configs")
    checks = workload.checks(ctx["inputs"], workload.reference(ctx["inputs"]))
    outputs = run.one_pass(workload, ctx, tmp_path)["outputs"]
    assert checks
    assert run.perturb_test(checks, outputs) == 0, capsys.readouterr().err
