"""The benchmark's per-layer tracer still binds the program's signatures.

bench/tracing.py wraps the program's functions and reads their arguments by
name: build_hamiltonian, build_bogoliubov_hamiltonian, lowest_eigenpairs,
cache_store(cache_dir, key) and the artifact writers among them. The
benchmark's untraced runs never enter it, so these tests drive one ed job of
each Hamiltonian, a cached study cold then warm, an eval and the default
selfcheck through it.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from torusbog import asymptotics, bogoliubov, cli, fock_ed, model

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODEL = {
    "d": 1,
    "N": 8,
    "mode_cutoff": 7.0,
    "potential": {"entries": [[-1, 1.0], [1, 1.0]]},
}


def run_traced(tracing, tmp_path, verb, doc, out, *extra) -> tuple[int, dict]:
    """Exit code and per-layer metrics of one cli call inside a Tracer."""
    cfg = tmp_path / f"{verb}.json"
    cfg.write_text(json.dumps(doc))
    modules = {
        "model": model,
        "bogoliubov": bogoliubov,
        "fock_ed": fock_ed,
        "asymptotics": asymptotics,
        "cli": cli,
    }
    argv = [verb, "--config", str(cfg), "--out", str(tmp_path / out), *extra]
    with tracing.Tracer(modules) as tracer:
        code = cli.main(argv)
    return code, tracer.metrics(wall=1.0)


# The assembly counts are pinned, so that a change to what is assembled or
# to its sparsity pattern (explicit zeros, say) shows without a benchmark run.
# So are the dense solves: of K = 0 and one block of each pair {K, -K}, only
# the blocks whose bound does not rule them out are solved, so solving
# blocks the bound skips shows too. The N = 8 sector is solved block by
# block, and only K = 0 and K = +1 are assembled, each alone. The pair job
# assembles the K = 0 blocks of its two rungs, M = 6 and 8, and then, block
# by block in order of e_B + c |K|_1, only K = +1 of M = 8: the second rung's
# solve stands in for K = 0, and the bound of |K|_1 = 2 lies above the two
# lowest levels. A study record solves only its two K = 0 blocks, since the
# energy bound certifies that K = 0 holds the ground of N and of N - 1, so a
# whole sector solved again shows as well.
@pytest.mark.parametrize(
    "ed, calls, nnz, dense",
    [({}, 2, 23, 2), ({"hamiltonian": "pair", "excitation_cutoff": 6}, 3, 33, 3)],
    ids=["particle", "pair"],
)
def test_ed_job_runs_traced(tmp_path, tracing, ed, calls, nnz, dense):
    code, metrics = run_traced(tracing, tmp_path, "ed", {"model": MODEL, "ed": ed}, "out")
    assert code == 0
    assert metrics["fock_ed.assemble_calls"] == calls
    assert metrics["fock_ed.assemble_nnz"] == nnz
    assert metrics["fock_ed.dense_calls"] == dense


def test_cached_study_runs_traced(tmp_path, tracing):
    doc = {"model": MODEL, "study": {"N_values": [4, 6, 8]}}
    cache = ("--cache", str(tmp_path / "cache"))
    code, cold = run_traced(tracing, tmp_path, "study", doc, "cold", *cache)
    assert code == 0
    assert cold["asymptotics.records_computed"] == 3
    assert cold["fock_ed.assemble_calls"] == 6
    assert cold["fock_ed.assemble_nnz"] == 51
    assert cold["fock_ed.dense_calls"] == 6
    assert cold["cli.cache_misses"] == 3
    assert cold["cli.cache_bytes_written"] > 0
    assert cold["cli.artifact_bytes"] > 0
    code, warm = run_traced(tracing, tmp_path, "study", doc, "warm", *cache)
    assert code == 0
    assert warm["cli.cache_hits"] == 3
    assert warm["asymptotics.records_computed"] == 0


def test_eval_runs_traced(tmp_path, tracing):
    code, metrics = run_traced(tracing, tmp_path, "eval", {"model": MODEL}, "out")
    assert code == 0
    assert metrics["bogoliubov.solve_calls"] == 1
    assert metrics["cli.artifact_bytes"] > 0


# The selfcheck is the one verb that reaches expect_mode_occupation,
# expect_pairing and the operator identities, so it runs traced too. Its
# assembly and dense-solve counts are pinned like the ed job's.
def test_selfcheck_runs_traced(tmp_path, tracing):
    code, metrics = run_traced(tracing, tmp_path, "selfcheck", {}, "out")
    assert code == 0
    assert metrics["fock_ed.assemble_calls"] == 8
    assert metrics["fock_ed.assemble_nnz"] == 134
    assert metrics["fock_ed.dense_calls"] == 10
