"""Benchmark workloads: seeded inputs, the verb calls of one pass, and the checks.

Seed 0 gives every nonzero interaction coefficient the value 1. Any other seed
draws even coefficients from [0.5, 1.5] on the same support, so sector
dimensions, nnz and mode counts do not depend on the seed.

This module imports only the standard library, so the timed set-up does not
pay for it; the reference (mpmath, numpy) is imported by the functions that
build reference values, after set-up.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def even_table(rng: random.Random, seed: int, support: list[tuple[int, ...]]) -> dict:
    """One coefficient per {n, -n} pair, drawn in the order of support."""
    table: dict[tuple[int, ...], float] = {}
    for n in support:
        if n in table:
            continue
        value = 1.0 if seed == 0 else rng.uniform(0.5, 1.5)
        table[n] = value
        table[tuple(-x for x in n)] = value
    return table


def model_doc(d: int, n: int, cutoff: float, table: dict) -> dict:
    rows = [[*k, w] for k, w in sorted(table.items())]
    return {"d": d, "N": n, "mode_cutoff": cutoff, "potential": {"entries": rows}}


def table_of(config: dict) -> dict:
    d = config["model"]["d"]
    return {tuple(row[:d]): row[d] for row in config["model"]["potential"]["entries"]}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


@dataclass
class Check:
    """One comparison of a pass output with the reference.

    perturb mutates a copy of the outputs so that ok must then fail; the
    perturbation self-test uses it to show that each check reads its value.
    """

    name: str
    ok: Callable[[dict], bool]
    perturb: Callable[[dict], None]


def get(outputs: dict, path: tuple):
    value = outputs
    for key in path:
        value = value[key]
    return value


def put(outputs: dict, path: tuple, value) -> None:
    get(outputs, path[:-1])[path[-1]] = value


def guarded(fn: Callable[[dict], bool]) -> Callable[[dict], bool]:
    """A missing or malformed output fails the check instead of raising."""

    def wrapped(outputs: dict) -> bool:
        try:
            return bool(fn(outputs))
        except (KeyError, IndexError, TypeError, ValueError):
            return False

    return wrapped


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def close(name: str, path: tuple, ref: float, atol: float = 0.0, rtol: float = 0.0) -> Check:
    tol = max(atol, rtol * abs(ref))

    def ok(o):
        v = get(o, path)
        return is_number(v) and abs(v - ref) <= tol

    return Check(name, guarded(ok), lambda o: put(o, path, get(o, path) + 3.0 * tol))


def exact(name: str, path: tuple, ref) -> Check:
    def perturb(o):
        v = get(o, path)
        if isinstance(v, bool):
            put(o, path, not v)
        elif isinstance(v, (int, float)):
            put(o, path, v + 1)
        else:
            put(o, path, None)

    return Check(name, guarded(lambda o: get(o, path) == ref), perturb)


def at_most(name: str, path: tuple, limit: float) -> Check:
    return Check(
        name,
        guarded(lambda o: is_number(get(o, path)) and get(o, path) <= limit),
        lambda o: put(o, path, 2.0 * limit + 1e-300),
    )


def between(name: str, lo: tuple, mid: tuple, hi: tuple, slack: float) -> Check:
    def ok(o):
        a, b, c = get(o, lo), get(o, mid), get(o, hi)
        return all(map(is_number, (a, b, c))) and a - slack <= b <= c + slack

    return Check(name, guarded(ok), lambda o: put(o, mid, get(o, hi) + 3.0 * slack))


def in_unit_interval(name: str, path: tuple) -> Check:
    return Check(
        name,
        guarded(lambda o: is_number(get(o, path)) and 0.0 < get(o, path) <= 1.0),
        lambda o: put(o, path, 1.0 + 1e-12),
    )


def _nudge(value):
    """The same structure with its first float leaf moved by one ulp."""
    if isinstance(value, float):
        return math.nextafter(value, math.inf), True
    if isinstance(value, dict):
        for key in sorted(value):
            new, done = _nudge(value[key])
            if done:
                return {**value, key: new}, True
    if isinstance(value, list):
        for i, item in enumerate(value):
            new, done = _nudge(item)
            if done:
                return value[:i] + [new] + value[i + 1 :], True
    if isinstance(value, str):
        return value + "~", True
    return value, False


def identical(name: str, path_a: tuple, path_b: tuple) -> Check:
    """Bit-identical values. Reports keep 17 significant digits, so equal
    parsed floats are equal doubles."""
    return Check(
        name,
        guarded(lambda o: get(o, path_a) == get(o, path_b)),
        lambda o: put(o, path_b, _nudge(get(o, path_b))[0]),
    )


# ---------------------------------------------------------------------------
# Workload definition and output collection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    # (call name, verb); one config per call, named after the call.
    calls: tuple[tuple[str, str], ...]
    inputs: Callable[[int], dict]
    reference: Callable[[dict], dict]
    checks: Callable[[dict, dict], list[Check]]


def collect(out_dir: str, exit_code: int | None) -> dict:
    """The outputs of one verb call, as the checks read them."""
    out: dict = {"exit": exit_code, "report": None}
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            out["report"] = json.load(fh)
    except (OSError, ValueError):
        pass
    if isinstance(out["report"], dict):
        out["report_sans_cache"] = {k: v for k, v in out["report"].items() if k != "cache"}
    for name in ("study.csv", "modes.csv"):
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                raw = fh.read()
        except OSError:
            continue
        rows = list(csv.reader(raw.decode("utf-8").splitlines()))
        stem = name.split(".")[0]
        out[f"{stem}_rows"] = len(rows) - 1
        out[f"{stem}_sha256"] = hashlib.sha256(raw).hexdigest()
        if stem == "modes":
            out["modes_coords"] = [row[0] for row in rows[1:]]
    return out


# ---------------------------------------------------------------------------
# study-sweep: the README study config, once against an empty cache, once warm
# ---------------------------------------------------------------------------

STUDY_N = [8, 16, 24, 32, 48]
STUDY_CUTOFF = 7.0
STUDY_TOL = 1e-9
STUDY_CALLS = (("study", "study"),)


def study_inputs(seed: int) -> dict:
    table = even_table(rng_for("study-sweep", seed), seed, [(1,)])
    return {
        "study": {
            "workflow": "study",
            "model": model_doc(1, STUDY_N[-1], STUDY_CUTOFF, table),
            "study": {"N_values": STUDY_N, "coupling_c": 1.0, "fit_model": "1/N"},
            "ed": {"tol": STUDY_TOL, "dense_threshold": 2000},
            "hb": {"start_cutoff": 6, "max_cutoff": 60, "cutoff_delta": 1e-10},
        }
    }


def study_reference(inputs: dict) -> dict:
    import reference

    config = inputs["study"]
    table = table_of(config)
    modes = reference.ball(1, STUDY_CUTOFF)
    sums = reference.quasifree_sums(modes, table)
    sectors = {}
    for n in STUDY_N:
        lam = config["study"]["coupling_c"] / n
        sectors[n] = tuple(
            reference.sector_ground_energy(modes, table, lam, size, (0,))[0]
            for size in (n, n - 1)
        )
    return {"prediction": sums["e_B"] - sums["D"], "sectors": sectors}


def study_checks(inputs: dict, ref: dict) -> list[Check]:
    checks: list[Check] = []
    for phase in ("cold", "warm"):
        out = (phase, "study")
        rep = out + ("report",)
        checks += [
            exact(f"{phase}.exit", out + ("exit",), 0),
            close(f"{phase}.prediction", rep + ("prediction",), ref["prediction"], rtol=1e-12),
            Check(
                f"{phase}.records_N",
                guarded(lambda o, rep=rep: [r["N"] for r in get(o, rep + ("records",))] == STUDY_N),
                lambda o, rep=rep: put(o, rep + ("records", 0, "N"), -1),
            ),
            exact(f"{phase}.study_csv_rows", out + ("study_rows",), len(STUDY_N)),
            exact(f"{phase}.fit_ok", rep + ("fit", "ok"), True),
            close(f"{phase}.fit_r_inf", rep + ("fit", "r_inf"), ref["prediction"], rtol=0.05),
        ]
        for i, n in enumerate(STUDY_N):
            r = rep + ("records", i)
            e_n, e_nm1 = ref["sectors"][n]
            checks += [
                close(f"{phase}.N{n}.E_N", r + ("E_N",), e_n, atol=1e-10),
                close(f"{phase}.N{n}.E_Nm1", r + ("E_Nm1",), e_nm1, atol=1e-10),
                exact(f"{phase}.N{n}.converged", r + ("converged",), True),
                at_most(f"{phase}.N{n}.residual_norm_N", r + ("residual_norm_N",), STUDY_TOL),
                at_most(f"{phase}.N{n}.residual_norm_Nm1", r + ("residual_norm_Nm1",), STUDY_TOL),
                between(
                    f"{phase}.N{n}.sandwich",
                    r + ("sandwich_lower",),
                    r + ("delta_E",),
                    r + ("sandwich_upper",),
                    1e-9,
                ),
                in_unit_interval(f"{phase}.N{n}.overlap", r + ("overlap",)),
            ]
    cold, warm = ("cold", "study", "report"), ("warm", "study", "report")
    checks += [
        identical("warm.records_identical", cold + ("records",), warm + ("records",)),
        identical("warm.fit_identical", cold + ("fit",), warm + ("fit",)),
        identical(
            "warm.report_identical_but_cache",
            ("cold", "study", "report_sans_cache"),
            ("warm", "study", "report_sans_cache"),
        ),
    ]
    return checks


# ---------------------------------------------------------------------------
# ed-sectors: both solver paths, momentum blocks and the pair Hamiltonian
# ---------------------------------------------------------------------------

TWO_BAND_CUTOFF = 2.5 * TWO_PI  # |n| <= 2: 5 modes
SQUARE_CUTOFF = 1.5 * TWO_PI  # |n|_inf <= 1 in d = 2: 9 modes
PAIR_CUTOFF = 6
ED_CALLS = (
    ("two-band-N16", "ed"),
    ("two-band-N24-K0", "ed"),
    ("square-N10-K0", "ed"),
    ("square-pair-M6", "ed"),
)


def ed_inputs(seed: int) -> dict:
    rng = rng_for("ed-sectors", seed)
    two_band = even_table(rng, seed, [(1,), (2,)])
    square = even_table(rng, seed, [(1, 0), (0, 1)])

    def job(d, n, cutoff, table, ed):
        return {"workflow": "ed", "model": model_doc(d, n, cutoff, table), "ed": ed}

    return {
        "two-band-N16": job(1, 16, TWO_BAND_CUTOFF, two_band, {}),
        "two-band-N24-K0": job(1, 24, TWO_BAND_CUTOFF, two_band, {"momentum_sector": [0]}),
        "square-N10-K0": job(2, 10, SQUARE_CUTOFF, square, {"momentum_sector": [0, 0]}),
        "square-pair-M6": job(
            2, 10, SQUARE_CUTOFF, square,
            {"hamiltonian": "pair", "excitation_cutoff": PAIR_CUTOFF},
        ),
    }


def ed_reference(inputs: dict) -> dict:
    import reference

    two_band = table_of(inputs["two-band-N16"])
    square = table_of(inputs["square-N10-K0"])
    line = reference.ball(1, TWO_BAND_CUTOFF)
    plane = reference.ball(2, SQUARE_CUTOFF)
    plane_nonzero = reference.ball(2, SQUARE_CUTOFF, include_zero=False)
    energies, dims = {}, {}
    for call, modes, table, n, k in (
        ("two-band-N16", line, two_band, 16, (0,)),
        ("two-band-N24-K0", line, two_band, 24, (0,)),
        ("square-N10-K0", plane, square, 10, (0, 0)),
    ):
        energies[call], size = reference.sector_ground_energy(modes, table, 1.0 / n, n, k)
        dims[call] = reference.count_states(modes, n, momentum=k)
        if dims[call] != size:
            raise RuntimeError(f"reference counts disagree for {call}: {dims[call]} != {size}")
    # That job solves the whole N = 16 sector; its ground state lies in K = 0.
    dims["two-band-N16"] = reference.count_states(line, 16)
    pair_dims = {
        m: reference.count_states(plane_nonzero, m, exact=False)
        for m in range(PAIR_CUTOFF, PAIR_CUTOFF + 11)
    }
    e_b = reference.quasifree_sums(plane, square)["e_B"]
    # Sector energies to 1e-10; the Lanczos full sector against the K = 0 block
    # holding its ground state to 1e-9; the pair ground against e_B to 1e-8.
    energy_tol = {"two-band-N16": 1e-9, "two-band-N24-K0": 1e-10, "square-N10-K0": 1e-10}
    return {
        "energies": energies, "energy_tol": energy_tol, "dims": dims,
        "pair_dims": pair_dims, "e_B": e_b,
    }


def ed_checks(calls, inputs: dict, ref: dict) -> list[Check]:
    """Checks of ed jobs: particle-sector jobs are those with a reference
    energy, the others are pair-Hamiltonian jobs."""
    checks: list[Check] = []
    for phase in ("cold", "warm"):
        for call, _ in calls:
            out = (phase, call)
            res = out + ("report", "result")
            checks += [
                exact(f"{phase}.{call}.exit", out + ("exit",), 0),
                exact(f"{phase}.{call}.converged", res + ("converged",), True),
            ]
            if call in ref["energies"]:
                checks += [
                    exact(f"{phase}.{call}.dimension", res + ("dimension",), ref["dims"][call]),
                    close(
                        f"{phase}.{call}.ground_energy",
                        res + ("eigenvalues", 0),
                        ref["energies"][call],
                        atol=ref["energy_tol"][call],
                    ),
                ]
                continue
            checks += [
                Check(
                    f"{phase}.{call}.dimension",
                    guarded(
                        lambda o, res=res: get(o, res + ("dimension",))
                        == ref["pair_dims"][get(o, res + ("excitation_cutoff",))]
                    ),
                    lambda o, res=res: put(o, res + ("dimension",), get(o, res + ("dimension",)) + 1),
                ),
                Check(
                    f"{phase}.{call}.excitation_cutoff",
                    guarded(lambda o, res=res: get(o, res + ("excitation_cutoff",)) >= PAIR_CUTOFF),
                    lambda o, res=res: put(o, res + ("excitation_cutoff",), PAIR_CUTOFF - 1),
                ),
                close(f"{phase}.{call}.ground_vs_e_B", res + ("eigenvalues", 0), ref["e_B"], atol=1e-8),
            ]
    checks += [
        identical(f"warm.{call}.result_identical", ("cold", call, "report", "result"), ("warm", call, "report", "result"))
        for call, _ in calls
    ]
    return checks


# ---------------------------------------------------------------------------
# ed-dense: ed jobs whose dense eigensolve dominates
# ---------------------------------------------------------------------------

THREE_MODE_CUTOFF = 1.5 * TWO_PI  # |n| <= 1: 3 modes
ED_DENSE_CALLS = (
    ("three-mode-N56", "ed"),
    ("two-band-N34-K0", "ed"),
)


def ed_dense_inputs(seed: int) -> dict:
    rng = rng_for("ed-dense", seed)
    three_mode = even_table(rng, seed, [(1,)])
    two_band = even_table(rng, seed, [(1,), (2,)])

    def job(n, cutoff, table, ed):
        return {"workflow": "ed", "model": model_doc(1, n, cutoff, table), "ed": ed}

    return {
        "three-mode-N56": job(56, THREE_MODE_CUTOFF, three_mode, {}),
        "two-band-N34-K0": job(34, TWO_BAND_CUTOFF, two_band, {"momentum_sector": [0]}),
    }


def ed_dense_reference(inputs: dict) -> dict:
    import reference

    energies, dims = {}, {}
    for call, cutoff, n in (
        ("three-mode-N56", THREE_MODE_CUTOFF, 56),
        ("two-band-N34-K0", TWO_BAND_CUTOFF, 34),
    ):
        modes = reference.ball(1, cutoff)
        energies[call], size = reference.sector_ground_energy(
            modes, table_of(inputs[call]), 1.0 / n, n, (0,)
        )
        dims[call] = reference.count_states(modes, n, momentum=(0,))
        if dims[call] != size:
            raise RuntimeError(f"reference counts disagree for {call}: {dims[call]} != {size}")
    # That job solves the whole N = 56 sector; its ground state lies in K = 0.
    dims["three-mode-N56"] = reference.count_states(reference.ball(1, THREE_MODE_CUTOFF), 56)
    energy_tol = {"three-mode-N56": 1e-9, "two-band-N34-K0": 1e-10}
    return {"energies": energies, "energy_tol": energy_tol, "dims": dims}


# ---------------------------------------------------------------------------
# eval-lattice: the analytic layer on a large d = 3 ball, no ED at all
# ---------------------------------------------------------------------------

EVAL_CUTOFF = 20 * TWO_PI
EVAL_CALLS = (("eval", "eval"),)


def eval_inputs(seed: int) -> dict:
    support = list(itertools.product((-1, 0, 1), repeat=3))
    table = even_table(rng_for("eval-lattice", seed), seed, support)
    return {"eval": {"workflow": "eval", "model": model_doc(3, 10, EVAL_CUTOFF, table)}}


def eval_reference(inputs: dict) -> dict:
    import reference

    modes = reference.ball(3, EVAL_CUTOFF)
    sums = reference.quasifree_sums(modes, table_of(inputs["eval"]))
    coords = sorted(";".join(map(str, n)) for n in modes if any(n))
    return {**sums, "coords": coords}


def eval_checks(inputs: dict, ref: dict) -> list[Check]:
    checks: list[Check] = []
    for phase in ("cold", "warm"):
        out = (phase, "eval")
        res = out + ("report", "results")
        checks += [
            exact(f"{phase}.exit", out + ("exit",), 0),
            close(f"{phase}.e_B", res + ("e_B",), ref["e_B"], rtol=1e-12),
            close(f"{phase}.D", res + ("D",), ref["D"], rtol=1e-12),
            close(
                f"{phase}.hb_lower_bound_constant",
                res + ("hb_lower_bound_constant",),
                ref["hb_constant"],
                rtol=1e-12,
            ),
            exact(f"{phase}.e_B_tail_bound", res + ("e_B_tail_bound",), 0),
            exact(f"{phase}.D_tail_bound", res + ("D_tail_bound",), 0),
            exact(f"{phase}.modes_csv_rows", out + ("modes_rows",), len(ref["coords"])),
            Check(
                f"{phase}.modes_csv_points",
                guarded(lambda o, out=out: sorted(get(o, out + ("modes_coords",))) == ref["coords"]),
                lambda o, out=out: put(o, out + ("modes_coords",), get(o, out + ("modes_coords",))[1:]),
            ),
        ]
    checks += [
        identical("warm.report_identical", ("cold", "eval", "report"), ("warm", "eval", "report")),
        identical("warm.modes_csv_identical", ("cold", "eval", "modes_sha256"), ("warm", "eval", "modes_sha256")),
    ]
    return checks


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "study-sweep",
            STUDY_CALLS, study_inputs, study_reference, study_checks,
        ),
        Workload(
            "ed-sectors",
            ED_CALLS, ed_inputs, ed_reference, functools.partial(ed_checks, ED_CALLS),
        ),
        Workload(
            "ed-dense",
            ED_DENSE_CALLS, ed_dense_inputs, ed_dense_reference,
            functools.partial(ed_checks, ED_DENSE_CALLS),
        ),
        Workload(
            "eval-lattice",
            EVAL_CALLS, eval_inputs, eval_reference, eval_checks,
        ),
    )
}
