"""The benchmark's per-layer tracer still binds the program's signatures.

bench/tracing.py wraps build_hamiltonian, build_bogoliubov_hamiltonian and
lowest_eigenpairs by argument name. The benchmark's untraced runs never
enter it, so these tests drive one ed job of each Hamiltonian through it.
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


@pytest.mark.parametrize(
    "ed",
    [{}, {"hamiltonian": "pair", "excitation_cutoff": 6}],
    ids=["particle", "pair"],
)
def test_ed_job_runs_traced(tmp_path, tracing, ed):
    doc = {
        "model": {
            "d": 1,
            "N": 8,
            "mode_cutoff": 7.0,
            "potential": {"entries": [[-1, 1.0], [1, 1.0]]},
        },
        "ed": ed,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    modules = {
        "model": model,
        "bogoliubov": bogoliubov,
        "fock_ed": fock_ed,
        "asymptotics": asymptotics,
        "cli": cli,
    }
    with tracing.Tracer(modules) as tracer:
        code = cli.main(["ed", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    metrics = tracer.metrics(wall=1.0)
    assert metrics["fock_ed.assemble_calls"] > 0
    assert metrics["fock_ed.dense_calls"] > 0
