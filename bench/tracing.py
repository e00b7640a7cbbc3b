"""Traced mode: spans and counts recorded around the program's public functions.

The program is not changed. A Tracer replaces module attributes of torusbog
with wrappers for the length of one pass and puts the originals back after.
Every call inside the package goes through the module attribute, so calls
between layers are seen too (binding_from_ed -> enumerate_basis, cli ->
asymptotics -> fock_ed). Spans (name, start, end, parent) and counts are kept
in memory; the run writes them out when it ends.
"""
from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import time
from collections import Counter, defaultdict

# (module, function, bucket). A bucket's time is the self time of its spans:
# the span duration minus the child spans it contains.
SPANS = (
    ("model", "build_mode_set", "model.mode_set"),
    ("bogoliubov", "solve", "bogoliubov.solve"),
    ("bogoliubov", "predict_energies", "bogoliubov.solve"),
    ("bogoliubov", "hb_lower_bound_constant", "bogoliubov.solve"),
    ("bogoliubov", "quasifree_vacuum_overlap", "bogoliubov.solve"),
    ("fock_ed", "enumerate_basis", "fock_ed.enumerate"),
    ("fock_ed", "build_hamiltonian", "fock_ed.assemble"),
    ("fock_ed", "build_bogoliubov_hamiltonian", "fock_ed.assemble"),
    ("fock_ed", "lowest_eigenpairs", "fock_ed.eigensolve"),
    ("fock_ed", "expect_nplus", "fock_ed.observables"),
    ("fock_ed", "expect_nplus2", "fock_ed.observables"),
    ("fock_ed", "expect_total_momentum", "fock_ed.observables"),
    ("fock_ed", "expect_mode_occupation", "fock_ed.observables"),
    ("fock_ed", "expect_pairing", "fock_ed.observables"),
    ("fock_ed", "zero_mode_annihilation", "fock_ed.observables"),
    ("fock_ed", "variational_sandwich", "fock_ed.observables"),
    ("asymptotics", "run_binding_study", "asymptotics.sweep"),
    ("asymptotics", "solve_quasifree_reference", "asymptotics.hb_reference"),
    ("asymptotics", "binding_record", "asymptotics.record"),
    ("asymptotics", "quasifree_overlap", "asymptotics.overlap"),
    ("asymptotics", "extrapolate_residual", "asymptotics.fit"),
    ("cli", "cache_lookup", "cli.cache_lookup"),
    ("cli", "cache_store", "cli.cache_store"),
    ("cli", "write_report", "cli.artifact_write"),
    ("cli", "write_modes_csv", "cli.artifact_write"),
    ("cli", "write_study_csv", "cli.artifact_write"),
)

# Per-layer metric -> unit; the order of BENCHMARK.json.
METRICS = {
    "warm_wall_s": "s",
    "model.mode_set_s": "s",
    "model.mode_set_calls": "count",
    "bogoliubov.solve_s": "s",
    "bogoliubov.solve_calls": "count",
    "fock_ed.enumerate_s": "s",
    "fock_ed.states_visited": "count",
    "fock_ed.states_kept": "count",
    "fock_ed.enumerate_kept_ratio": "ratio",
    "fock_ed.assemble_s": "s",
    "fock_ed.assemble_calls": "count",
    "fock_ed.assemble_nnz": "count",
    "fock_ed.assemble_us_per_nnz": "us/nnz",
    "fock_ed.assemble_unique_ratio": "ratio",
    "fock_ed.eigensolve_s": "s",
    "fock_ed.dense_calls": "count",
    "fock_ed.dense_dim_max": "count",
    "fock_ed.dense_dim3_sum": "count",
    "fock_ed.lanczos_calls": "count",
    "fock_ed.lanczos_iters": "count",
    "fock_ed.observables_s": "s",
    "asymptotics.hb_reference_s": "s",
    "asymptotics.hb_cutoff_steps": "count",
    "asymptotics.records_computed": "count",
    "asymptotics.overlap_s": "s",
    "cli.cache_lookup_s": "s",
    "cli.cache_hits": "count",
    "cli.cache_store_s": "s",
    "cli.cache_misses": "count",
    "cli.cache_bytes_written": "bytes",
    "cli.artifact_write_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.other_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counts of one traced pass; a context manager that patches the
    given modules on entry and restores them on exit."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._operators: set = set()
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, _ in SPANS:
            module = self.modules[module_name]
            original = getattr(module, attr)
            hook = getattr(self, f"_on_{attr}", None)
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original, hook))
            self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, original, hook):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
            self._stack.append(index)
            self.spans[index][1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # Count hooks, called with the bound arguments and the result.

    def _on_build_mode_set(self, args, result) -> None:
        self.counts["model.mode_set_calls"] += 1

    def _on_solve(self, args, result) -> None:
        self.counts["bogoliubov.solve_calls"] += 1

    def _on_enumerate_basis(self, args, basis) -> None:
        m = len(basis.modes)
        if basis.n_particles is not None:
            visited = math.comb(basis.n_particles + m - 1, m - 1)
        else:
            visited = math.comb(basis.excitation_cutoff + m, m)
        self.counts["fock_ed.states_visited"] += visited
        self.counts["fock_ed.states_kept"] += basis.size

    def _count_operator(self, key, matrix) -> None:
        self.counts["fock_ed.assemble_calls"] += 1
        self.counts["fock_ed.assemble_nnz"] += int(matrix.nnz)
        self._operators.add(key)

    def _on_build_hamiltonian(self, args, matrix) -> None:
        basis = args["basis"]
        key = ("particle", args["model"], basis.modes, basis.n_particles, basis.momentum_sector)
        self._count_operator(key, matrix)

    def _on_build_bogoliubov_hamiltonian(self, args, result) -> None:
        key = ("pair", tuple(args["modes"]), args["excitation_cutoff"], args["potential"])
        self._count_operator(key, result[1])
        if self._inside("asymptotics.solve_quasifree_reference"):
            self.counts["asymptotics.hb_cutoff_steps"] += 1

    def _on_lowest_eigenpairs(self, args, result) -> None:
        dim = int(args["op"].shape[0])
        if result.method == "dense":
            self.counts["fock_ed.dense_calls"] += 1
            self.counts["fock_ed.dense_dim3_sum"] += dim**3
            self.counts["fock_ed.dense_dim_max"] = max(self.counts["fock_ed.dense_dim_max"], dim)
        else:
            self.counts["fock_ed.lanczos_calls"] += 1
            self.counts["fock_ed.lanczos_iters"] += int(result.iterations)

    def _on_binding_record(self, args, result) -> None:
        self.counts["asymptotics.records_computed"] += 1

    def _on_cache_lookup(self, args, found) -> None:
        self.counts["cli.cache_hits" if found is not None else "cli.cache_misses"] += 1

    def _on_cache_store(self, args, result) -> None:
        path = self.modules["cli"].cache_path(args["cache_dir"], args["key"])
        self.counts["cli.cache_bytes_written"] += os.path.getsize(path)

    def _on_write_report(self, args, path) -> None:
        self.counts["cli.artifact_bytes"] += os.path.getsize(path)

    _on_write_modes_csv = _on_write_report
    _on_write_study_csv = _on_write_report

    # Metrics of the pass.

    def metrics(self, wall: float) -> dict:
        """Every per-layer metric of METRICS except warm_wall_s and
        trace.overhead_s, for a traced pass that took wall seconds."""
        bucket_of = {f"{m}.{a}": b for m, a, b in SPANS}
        child_time = [0.0] * len(self.spans)
        root_time = 0.0
        for name, start, end, parent in self.spans:
            if parent is None:
                root_time += end - start
            else:
                child_time[parent] += end - start
        self_time: defaultdict = defaultdict(float)
        inclusive: defaultdict = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_time):
            self_time[bucket_of[name]] += (end - start) - children
            inclusive[bucket_of[name]] += end - start
        c = self.counts
        assemble_s = self_time["fock_ed.assemble"]
        values = {
            "model.mode_set_s": self_time["model.mode_set"],
            "bogoliubov.solve_s": self_time["bogoliubov.solve"],
            "fock_ed.enumerate_s": self_time["fock_ed.enumerate"],
            "fock_ed.enumerate_kept_ratio": _ratio(c["fock_ed.states_kept"], c["fock_ed.states_visited"]),
            "fock_ed.assemble_s": assemble_s,
            "fock_ed.assemble_us_per_nnz": _ratio(1e6 * assemble_s, c["fock_ed.assemble_nnz"]),
            "fock_ed.assemble_unique_ratio": _ratio(len(self._operators), c["fock_ed.assemble_calls"]),
            "fock_ed.eigensolve_s": self_time["fock_ed.eigensolve"],
            "fock_ed.observables_s": self_time["fock_ed.observables"],
            "asymptotics.hb_reference_s": inclusive["asymptotics.hb_reference"],
            "asymptotics.overlap_s": inclusive["asymptotics.overlap"],
            "cli.cache_lookup_s": self_time["cli.cache_lookup"],
            "cli.cache_store_s": self_time["cli.cache_store"],
            "cli.artifact_write_s": self_time["cli.artifact_write"],
            "cli.other_s": wall - root_time,
        }
        for name, unit in METRICS.items():
            if unit in ("count", "bytes"):
                values[name] = int(c[name])
        return values

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def summarize(untraced: list[tuple[float, float]], traced: list[tuple[float, "Tracer"]]) -> dict:
    """The per-layer metrics of a run from the (wall time, warm round time) of
    its untraced passes and the (wall time, tracer) of its traced passes:
    medians over the traced passes, the median warm round of the untraced
    passes, and the median traced minus the median untraced pass. The caller
    checks that the counts agree across the traced passes."""
    per_pass = [t.metrics(wall) for wall, t in traced]
    overhead = statistics.median(wall for wall, _ in traced) - statistics.median(
        wall for wall, _ in untraced
    )
    out = {}
    for name, unit in METRICS.items():
        if name == "warm_wall_s":
            value = statistics.median(warm for _, warm in untraced)
        elif name == "trace.overhead_s":
            value = overhead
        elif unit in ("count", "bytes"):
            value = statistics.median_low(m[name] for m in per_pass)
        else:
            value = statistics.median(m[name] for m in per_pass)
        out[name] = {"value": value, "unit": unit}
    return out


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when nothing was counted (the layer was not entered)."""
    return num / den if den else 0.0
