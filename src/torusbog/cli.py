"""Command-line front end: config-driven workflows with a content-addressed cache.

Verbs: eval (closed-form quantities), ed (one eigensolve), study (the N sweep),
selfcheck (invariant suite). A run is fully determined by its JSON config file;
the only environment influence is the CACHE_DIR override. Heavy numerical
imports happen after --threads is applied, so BLAS pools honor the request.

Exit codes: 0 success, 2 invalid config, 3 solver non-convergence,
4 selfcheck violation.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import fields, replace

from .model import ResourceLimitError

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_SELFCHECK_FAILED = 4

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class ConfigError(ValueError):
    """Any schema or semantic problem with the run configuration."""


# ---------------------------------------------------------------------------
# Canonical serialization and digests
# ---------------------------------------------------------------------------


def _python_scalar(value):
    """json.dumps default: a numpy scalar becomes the Python value it holds."""
    if type(value).__module__ == "numpy" and getattr(value, "shape", None) == ():
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, no spaces, shortest round-trip floats."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=_python_scalar)


def _field_dict(obj) -> dict:
    """A dataclass instance's fields by name, in declaration order, values as
    they are. Every dataclass written here holds scalars and tuples of
    scalars, so canonical_json writes this as it writes the deep copy
    dataclasses.asdict makes, without its recursion."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def content_digest(key_payload: dict) -> str:
    """16-byte hex digest of the canonical serialization."""
    text = canonical_json(key_payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


def cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"{key}.json")


def cache_lookup(cache_dir: str, key: str, verify) -> dict | None:
    """Load a payload if present and re-verifiable; discard anything corrupt."""
    path = cache_path(cache_dir, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        payload = entry["payload"]
        if entry.get("key") != key or not verify(payload):
            raise ValueError("integrity check failed")
        return payload
    except FileNotFoundError:
        return None
    except (ValueError, KeyError, TypeError):
        try:
            os.remove(path)
        except OSError:
            pass
        return None


def cache_store(cache_dir: str, key: str, payload: dict) -> None:
    """Atomic write: temp file in the same directory, then rename."""
    os.makedirs(cache_dir, exist_ok=True)
    text = canonical_json({"key": key, "payload": payload}) + "\n"
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, cache_path(cache_dir, key))
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def converged_within(tol: float, *residuals: str):
    """The rule a payload passes to be cached and served: it is converged, and
    each named residual is at most the run's tol."""

    def verify(payload) -> bool:
        try:
            return bool(payload["converged"]) and all(payload[r] <= tol for r in residuals)
        except (KeyError, TypeError):
            return False

    return verify


def cached_compute(cache_dir, key_payload, compute, verify, stats):
    """Content-addressed lookup around a compute callable.

    A computed payload is returned as json.loads of its canonical text, the
    objects a later hit returns. Only payloads passing verify are stored, so
    every cache entry is re-verifiable on load. stats counts hits and misses.
    """
    if cache_dir is not None:
        key = content_digest(key_payload)
        found = cache_lookup(cache_dir, key, verify)
        if found is not None:
            stats["hits"] += 1
            return found
    payload = json.loads(canonical_json(compute()))
    stats["misses"] += 1
    if cache_dir is not None and verify(payload):
        cache_store(cache_dir, key, payload)
    return payload


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------


VERBS = ("eval", "ed", "study", "selfcheck")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


# Value kinds of the schema: kind -> (test, what an error says the value must be).
_KINDS = {
    "int": (_is_int, "an integer"),
    "number": (_is_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "ints": (
        lambda v: isinstance(v, list) and bool(v) and all(map(_is_int, v)),
        "a non-empty list of integers",
    ),
    "sector": (
        lambda v: v is None or isinstance(v, list) and all(map(_is_int, v)),
        "a list of integers or null",
    ),
}

_ED_SCHEMA = {
    # Solver settings: the fields of EDSettings.
    "tol": "number",
    "max_iter": "int",
    "seed": "int",
    "dense_threshold": "int",
    "k": "int",
    # The ed verb's job.
    "momentum_sector": "sector",
    "hamiltonian": ("particle", "pair"),
    "excitation_cutoff": "int",
}
_HB_SCHEMA = {"start_cutoff": "int", "max_cutoff": "int", "cutoff_delta": "number"}


def _read(doc, path: str, schema: dict, required=()) -> dict:
    """Check one section's key names and value types; return the keys it sets.

    schema maps each allowed key to a kind of _KINDS, to the tuple of strings
    the key may take, or to None for a value that its own reader checks.
    Numbers come back as floats.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in schema:
            raise ConfigError(f"unknown key: {prefix}{key}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"missing required key: {prefix}{key}")
    values = {}
    for key, kind in schema.items():
        if key not in doc:
            continue
        value = doc[key]
        name = f"{path or 'config'}.{key}"
        if isinstance(kind, tuple):
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a string")
            if value not in kind:
                raise ConfigError(f"{name} must be one of {sorted(kind)}")
        elif kind is not None:
            test, noun = _KINDS[kind]
            if not test(value):
                raise ConfigError(f"{name} must be {noun}")
            if kind == "number":
                value = float(value)
        values[key] = value
    return values


def _settings(cls, path: str, values: dict, **given):
    """Build the dataclass cls from the section values that name its fields.

    Fields the config leaves out take their defaults from cls, the one place
    they live. Its range checks come back as a ConfigError naming the key.
    """
    names = {f.name for f in fields(cls)}
    try:
        return cls(**{k: v for k, v in values.items() if k in names}, **given)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def parse_model(doc):
    from . import model as model_mod

    keys = _read(
        doc,
        "model",
        {
            "d": "int",
            "N": "int",
            "lambda": "number",
            "mode_cutoff": "number",
            "include_zero_mode": "bool",
            "potential": "object",
        },
        required=("d", "N", "mode_cutoff", "potential"),
    )
    d = keys["d"]
    if d < 1:
        raise ConfigError("model.d must be a positive integer")
    pot = _read(
        keys.pop("potential"),
        "model.potential",
        {"entries": "list", "support_radius": "number"},
        required=("entries",),
    )
    entries = []
    for i, row in enumerate(pot["entries"]):
        where = f"model.potential.entries[{i}]"
        if not isinstance(row, list) or len(row) != d + 1:
            raise ConfigError(f"{where} must be a list of {d} integer coordinates and a value")
        coords = row[:d]
        value = row[d]
        if not all(map(_is_int, coords)):
            raise ConfigError(f"{where} coordinates must be integers")
        if not _is_number(value):
            raise ConfigError(f"{where} value must be a number")
        entries.append((model_mod.Momentum(coords), float(value)))
    support = pot.get("support_radius")
    if support is None:
        support = max((p.norm for p, _ in entries), default=0.0)
    model_fields = {("lam" if k == "lambda" else k): v for k, v in keys.items()}
    try:
        potential = model_mod.PotentialSpec(tuple(entries), support)
        return model_mod.TorusModel(potential=potential, **model_fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | None, verb: str) -> dict:
    """Read and check the config file; a selfcheck without one reads like {}
    and runs on the default selfcheck model.

    A section that is present is range-checked under every verb, also where
    the verb does not read it.
    """
    doc = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    from . import fock_ed

    top = _read(
        doc,
        "",
        {
            "workflow": VERBS,
            "cache_dir": "str",
            "model": None,
            "ed": None,
            "hb": None,
            "study": None,
        },
    )
    if top.get("workflow", verb) != verb:
        raise ConfigError(
            f"config workflow {top['workflow']!r} does not match the {verb!r} verb"
        )
    parsed: dict = {"cache_dir": top.get("cache_dir")}
    if "model" in top:
        parsed["model"] = parse_model(top["model"])
    elif verb == "selfcheck":
        from . import checks

        parsed["model"] = checks.default_selfcheck_model()
    else:
        raise ConfigError("missing required key: model")
    if verb in ("study", "selfcheck") and not parsed["model"].include_zero_mode:
        raise ConfigError(f"model.include_zero_mode must be true for {verb}, which needs a_0")
    # A null ed or hb section reads like an absent one.
    ed_doc, hb_doc = ({} if top.get(key) is None else top[key] for key in ("ed", "hb"))
    job = _read(ed_doc, "ed", _ED_SCHEMA)
    if job.get("excitation_cutoff", 0) < 0:
        raise ConfigError("ed.excitation_cutoff must be nonnegative")
    parsed["job"] = job
    parsed["ed"] = _settings(fock_ed.EDSettings, "ed", job)
    parsed["hb"] = _settings(fock_ed.HBSettings, "hb", _read(hb_doc, "hb", _HB_SCHEMA))
    if verb == "study" or "study" in top:
        from . import asymptotics

        if top.get("study") is None:
            raise ConfigError("missing required key: study")
        study = _read(
            top["study"],
            "study",
            {
                "N_values": "ints",
                "coupling_c": "number",
                "fit_model": asymptotics.FIT_MODELS,
                "with_overlap": "bool",
                "check_global": "bool",
            },
            required=("N_values",),
        )
        parsed["study"] = _settings(
            asymptotics.SweepConfig,
            "study",
            study,
            base=parsed["model"],
            ed=parsed["ed"],
        )
    return parsed


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def _write_canonical(out_dir: str, name: str, doc: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc) + "\n")
    return path


def write_report(out_dir: str, report: dict) -> str:
    """report.json: a pure function of the config."""
    return _write_canonical(out_dir, "report.json", report)


def write_diagnostics(out_dir: str, stats: dict) -> str:
    """diagnostics.json: how the run got its results (cache hits and misses)."""
    return _write_canonical(out_dir, "diagnostics.json", {"cache": stats})


def write_modes_csv(out_dir: str, solution) -> str:
    path = os.path.join(out_dir, "modes.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("p_coords,w_hat,e_p,alpha_p,n_p,eB_summand\n")
        for mq in solution.modes:
            coords = ";".join(str(c) for c in mq.p)
            row = [coords] + [
                canonical_json(v)
                for v in (mq.w_hat, mq.e_p, mq.alpha_p, mq.n_p, mq.eB_summand)
            ]
            fh.write(",".join(row) + "\n")
    return path


STUDY_COLUMNS = (
    "N",
    "lambda",
    "E_N",
    "E_Nm1",
    "deltaE",
    "leading_term",
    "residual_r",
    "prediction",
    "abs_err",
    "converged",
)


def write_study_csv(out_dir: str, records: list[dict], prediction: float) -> str:
    path = os.path.join(out_dir, "study.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(STUDY_COLUMNS) + "\n")
        for rec in records:
            row = (
                rec["N"],
                rec["lam"],
                rec["E_N"],
                rec["E_Nm1"],
                rec["delta_E"],
                rec["leading_term"],
                rec["residual_r"],
                prediction,
                abs(rec["residual_r"] - prediction),
                rec["converged"],
            )
            fh.write(",".join(map(canonical_json, row)) + "\n")
    return path


# ---------------------------------------------------------------------------
# Workflows
# ---------------------------------------------------------------------------


def _version() -> str:
    from . import __version__

    return __version__


def run_eval(parsed: dict, out_dir: str) -> int:
    from . import bogoliubov

    model = parsed["model"]
    solution = bogoliubov.solve(model)
    predictions = bogoliubov.predict_energies(model, solution)
    report = {
        "workflow": "eval",
        "tool_version": _version(),
        "model": model.to_canonical_dict(),
        "results": {
            "e_B": solution.e_B,
            "e_B_tail_bound": solution.e_B_tail_bound,
            "D": solution.D,
            "D_tail_bound": solution.D_tail_bound,
            "gse_prediction": predictions.gse,
            "gse_tail_bound": solution.e_B_tail_bound,
            "binding_prediction": predictions.binding,
            "binding_tail_bound": predictions.binding_tail_bound,
            "leading_gse": predictions.leading_gse,
            "leading_binding": predictions.leading_binding,
            "hb_lower_bound_constant": bogoliubov.hb_lower_bound_constant(model),
            "quasifree_vacuum_overlap": bogoliubov.quasifree_vacuum_overlap(solution),
        },
    }
    write_report(out_dir, report)
    write_modes_csv(out_dir, solution)
    return EXIT_OK


def _ed_observables(result, basis) -> dict | None:
    from . import fock_ed

    if not result.vector_reliable:
        return None
    return {
        "nplus": fock_ed.expect_nplus(result.ground_vector, basis),
        "nplus2": fock_ed.expect_nplus2(result.ground_vector, basis),
        "momentum": list(fock_ed.expect_total_momentum(result.ground_vector, basis)),
    }


def _ed_payload(result, basis, dimension: int, settings) -> dict:
    """The report of an ed job: of the levels result keeps, the settings.k lowest."""
    return {
        "eigenvalues": list(result.eigenvalues[: settings.k]),
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "converged": result.converged,
        "method": result.method,
        "gap": result.gap,
        "vector_reliable": result.vector_reliable,
        "dimension": dimension,
        "tol": settings.tol,
        "observables": _ed_observables(result, basis),
    }


def run_ed(parsed: dict, out_dir: str, cache_dir: str | None) -> int:
    from . import fock_ed
    from .model import Momentum

    model = parsed["model"]
    settings = parsed["ed"]
    job = parsed["job"]
    stats = {"hits": 0, "misses": 0}
    version = _version()

    if job.get("hamiltonian") == "pair":
        cutoff = job.get("excitation_cutoff")
        if cutoff is None:
            raise ConfigError("missing required key: ed.excitation_cutoff")
        # The K = 0 grounds at cutoff and cutoff + 2 certify the cutoff + 2
        # space, which is reported merged over its momentum blocks.
        hb = replace(parsed["hb"], start_cutoff=cutoff, max_cutoff=cutoff + 2)

        def compute() -> dict:
            modes = model.nonzero_modes()
            if not modes:
                raise ConfigError("model.mode_cutoff leaves no nonzero mode to pair")
            ground = fock_ed.converged_bogoliubov_ground(modes, model.potential, hb, settings)
            payload = _ed_payload(ground.result, ground.basis, ground.dimension, settings)
            payload["excitation_cutoff"] = ground.cutoff_used
            payload["cutoff_delta"] = ground.delta_achieved
            payload["converged"] = ground.converged
            return payload

        key_payload = {
            "op": "ed-pair",
            "tool_version": version,
            "model": model.to_canonical_dict(),
            "ed": {**_field_dict(settings), "excitation_cutoff": cutoff},
            "cutoff_delta": hb.cutoff_delta,
        }
    else:
        sector = job.get("momentum_sector")
        if sector is not None:
            if len(sector) != model.d:
                raise ConfigError("ed.momentum_sector dimension does not match model.d")
            sector = Momentum(sector)

        def compute() -> dict:
            modes = model.mode_set()
            if not modes:
                raise ConfigError("model.mode_cutoff leaves an empty mode set")
            if sector is None:
                # Block by block: only the blocks that can hold the levels are built.
                whole = fock_ed.solve_particle_sector(model, settings)
                return _ed_payload(whole.merged, whole.basis, whole.dimension, settings)
            # A solve over the memory budget is refused before assembly.
            basis, ham = fock_ed.momentum_block(model, model.N, sector, settings)
            if not basis.size:
                raise ConfigError(
                    f"ed.momentum_sector {list(sector)} holds no state of {model.N} particles"
                )
            result = fock_ed.lowest_eigenpairs(ham, settings)
            return _ed_payload(result, basis, basis.size, settings)

        key_payload = {
            "op": "ed-particle",
            "tool_version": version,
            "model": model.to_canonical_dict(),
            "ed": _field_dict(settings),
            "momentum_sector": list(sector) if sector is not None else None,
        }

    verify = converged_within(settings.tol, "residual_norm")
    payload = cached_compute(cache_dir, key_payload, compute, verify, stats)
    report = {
        "workflow": "ed",
        "tool_version": version,
        "model": model.to_canonical_dict(),
        "result": payload,
    }
    write_report(out_dir, report)
    write_diagnostics(out_dir, stats)
    return EXIT_OK if payload["converged"] else EXIT_NOT_CONVERGED


def run_study(parsed: dict, out_dir: str, cache_dir: str | None) -> int:
    from . import asymptotics

    version = _version()
    config = parsed["study"]
    stats = {"hits": 0, "misses": 0}

    def loader(cfg, n, alpha):
        key_payload = {
            "op": "study-record",
            "tool_version": version,
            "model": cfg.base.to_canonical_dict(),
            "N": n,
            "coupling_c": cfg.coupling_c,
            "ed": _field_dict(cfg.ed),
            "with_overlap": cfg.with_overlap,
            "check_global": cfg.check_global,
        }

        def compute() -> dict:
            return _field_dict(asymptotics.binding_record(cfg, n, alpha))

        verify = converged_within(cfg.ed.tol, "residual_norm_N", "residual_norm_Nm1")
        payload = cached_compute(cache_dir, key_payload, compute, verify, stats)
        return asymptotics.StudyRecord(**payload)

    report_obj = asymptotics.run_binding_study(config, record_loader=loader)
    records = [_field_dict(rec) for rec in report_obj.records]
    report = {
        "workflow": "study",
        "tool_version": version,
        "model": config.base.to_canonical_dict(),
        "study": {
            "N_values": list(config.N_values),
            "coupling_c": config.coupling_c,
            "fit_model": config.fit_model,
        },
        "prediction": report_obj.prediction,
        "e_B": report_obj.e_B,
        "D": report_obj.D,
        "e_B_tail_bound": report_obj.e_B_tail_bound,
        "D_tail_bound": report_obj.D_tail_bound,
        "fit": _field_dict(report_obj.fit) if report_obj.fit is not None else None,
        "records": records,
    }
    write_report(out_dir, report)
    write_diagnostics(out_dir, stats)
    write_study_csv(out_dir, records, report_obj.prediction)
    all_converged = all(rec["converged"] for rec in records)
    if not all_converged or report_obj.fit is None:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def run_selfcheck(parsed: dict, out_dir: str) -> int:
    from . import checks

    model = parsed["model"]
    battery = [_field_dict(c) for c in checks.battery(model, parsed["ed"], parsed["hb"])]
    for c in battery:
        print(f"selfcheck {c['name']}: {'ok' if c['ok'] else 'VIOLATION'} ({c['detail']})")
    violations = sum(not c["ok"] for c in battery)
    report = {
        "workflow": "selfcheck",
        "tool_version": _version(),
        "model": model.to_canonical_dict(),
        "checks": battery,
        "violations": violations,
    }
    write_report(out_dir, report)
    return EXIT_SELFCHECK_FAILED if violations else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The torusbog argument parser, built once per process: parse_args
    leaves it as it is, so every main call parses with the same one."""
    parser = argparse.ArgumentParser(
        prog="torusbog",
        description="Quasi-free predictions and exact-diagonalization checks "
        "for bosons on the unit torus",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=verb != "selfcheck", default=None)
        p.add_argument("--out", default=".")
        p.add_argument("--cache", default=None)
        p.add_argument("--threads", type=int, default=None)
    return parser


def _apply_threads(threads: int | None) -> None:
    if threads is None:
        return
    if threads < 1:
        raise ConfigError("--threads must be at least 1")
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_threads(args.threads)
        parsed = load_config(args.config, args.verb)
        cache_dir = args.cache or os.environ.get("CACHE_DIR") or parsed["cache_dir"]
        if args.verb == "eval":
            return run_eval(parsed, args.out)
        if args.verb == "ed":
            return run_ed(parsed, args.out, cache_dir)
        if args.verb == "study":
            return run_study(parsed, args.out, cache_dir)
        return run_selfcheck(parsed, args.out)
    except (ConfigError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
