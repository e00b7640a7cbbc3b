"""Command-line front end: serialization, cache behavior, schema rejection,
workflow artifacts, and exit codes. main() is driven in-process throughout."""
from __future__ import annotations

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbog import cli


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def read_json(path) -> dict:
    return json.loads(path.read_text())


def one_pair_model_doc(n: int = 4, **extra) -> dict:
    doc = {
        "d": 1,
        "N": n,
        "mode_cutoff": 7.0,
        "potential": {"entries": [[-1, 1.0], [1, 1.0]]},
    }
    doc.update(extra)
    return doc


class TestCanonicalJSON:
    def test_sorted_keys_and_scalars(self):
        text = cli.canonical_json({"b": 1, "a": [True, None, "x"], "c": 2.5})
        assert text == '{"a":[true,null,"x"],"b":1,"c":2.5}'

    def test_bool_is_not_int(self):
        assert cli.canonical_json(True) == "true"
        assert cli.canonical_json(1) == "1"

    def test_non_finite_floats(self):
        assert cli.canonical_json(math.inf) == "Infinity"
        assert cli.canonical_json(-math.inf) == "-Infinity"
        assert cli.canonical_json(math.nan) == "NaN"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_float_round_trip_bit_exact(self, x):
        assert float(cli.canonical_json(x)) == x

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            cli.canonical_json({"a": object()})

    def test_jsonable_normalizes_tuples_and_numpy(self):
        doc = {"t": (1, 2), "f": np.float64(0.5), "i": np.int64(3), "n": [np.bool_(True)]}
        assert cli.jsonable(doc) == {"t": [1, 2], "f": 0.5, "i": 3, "n": [True]}

    def test_digest_is_32_hex_and_key_order_free(self):
        a = cli.content_digest({"x": 1, "y": 2.0})
        b = cli.content_digest({"y": 2.0, "x": 1})
        assert a == b
        assert len(a) == 32
        assert all(c in "0123456789abcdef" for c in a)
        assert cli.content_digest({"x": 1, "y": 2.1}) != a


class TestCache:
    def verify(self, payload):
        return bool(payload.get("converged"))

    def test_store_and_lookup(self, tmp_path):
        payload = {"converged": True, "value": 1.5}
        cli.cache_store(str(tmp_path), "k1", payload, "0.0")
        assert cli.cache_lookup(str(tmp_path), "k1", self.verify) == payload
        assert not list(tmp_path.glob("*.tmp"))

    def test_miss_returns_none(self, tmp_path):
        assert cli.cache_lookup(str(tmp_path), "absent", self.verify) is None

    def test_corrupt_entry_discarded(self, tmp_path):
        cli.cache_store(str(tmp_path), "k1", {"converged": True}, "0.0")
        path = tmp_path / "k1.json"
        path.write_text("{ not json")
        assert cli.cache_lookup(str(tmp_path), "k1", self.verify) is None
        assert not path.exists()

    def test_failed_verification_discarded(self, tmp_path):
        cli.cache_store(str(tmp_path), "k1", {"converged": True}, "0.0")
        path = tmp_path / "k1.json"
        entry = json.loads(path.read_text())
        entry["payload"]["converged"] = False
        path.write_text(json.dumps(entry))
        assert cli.cache_lookup(str(tmp_path), "k1", self.verify) is None
        assert not path.exists()

    def test_key_mismatch_discarded(self, tmp_path):
        cli.cache_store(str(tmp_path), "k1", {"converged": True}, "0.0")
        entry = json.loads((tmp_path / "k1.json").read_text())
        (tmp_path / "k2.json").write_text(json.dumps(entry))
        assert cli.cache_lookup(str(tmp_path), "k2", self.verify) is None

    def test_cached_compute_skips_recompute_on_hit(self, tmp_path):
        calls = []

        def compute():
            calls.append(1)
            return {"converged": True, "value": 2.0}

        stats = {"hits": 0, "misses": 0}
        for _ in range(3):
            out = cli.cached_compute(
                str(tmp_path), {"op": "t"}, compute, self.verify, "0.0", stats
            )
            assert out["value"] == 2.0
        assert len(calls) == 1
        assert stats == {"hits": 2, "misses": 1}

    def test_unverified_payload_not_stored(self, tmp_path):
        stats = {"hits": 0, "misses": 0}
        cli.cached_compute(
            str(tmp_path), {"op": "t"}, lambda: {"converged": False},
            self.verify, "0.0", stats,
        )
        assert list(tmp_path.glob("*.json")) == []

    def test_no_cache_dir_always_computes(self):
        calls = []
        stats = {"hits": 0, "misses": 0}
        for _ in range(2):
            cli.cached_compute(
                None, {"op": "t"},
                lambda: calls.append(1) or {"converged": True},
                self.verify, "0.0", stats,
            )
        assert len(calls) == 2


class TestConfigRejection:
    def run_eval(self, tmp_path, doc) -> tuple[int, str]:
        cfg = write_json(tmp_path / "cfg.json", doc)
        return cli.main(["eval", "--config", cfg, "--out", str(tmp_path / "out")])

    def test_missing_model(self, tmp_path, capsys):
        assert self.run_eval(tmp_path, {}) == 2
        assert "missing required key: model" in capsys.readouterr().err

    def test_missing_n_named(self, tmp_path, capsys):
        doc = {"model": one_pair_model_doc()}
        del doc["model"]["N"]
        assert self.run_eval(tmp_path, doc) == 2
        assert "missing required key: model.N" in capsys.readouterr().err

    def test_unknown_keys_named(self, tmp_path, capsys):
        assert self.run_eval(tmp_path, {"model": one_pair_model_doc(), "zzz": 1}) == 2
        assert "unknown key: zzz" in capsys.readouterr().err
        assert self.run_eval(tmp_path, {"model": one_pair_model_doc(oops=3)}) == 2
        assert "unknown key: model.oops" in capsys.readouterr().err

    def test_type_errors(self, tmp_path, capsys):
        assert self.run_eval(tmp_path, {"model": one_pair_model_doc(N=True)}) == 2
        assert "model.N must be an integer" in capsys.readouterr().err
        assert self.run_eval(tmp_path, {"model": one_pair_model_doc(N="4")}) == 2
        capsys.readouterr()
        bad = one_pair_model_doc()
        bad["potential"]["entries"] = [[0.5, 1.0]]
        assert self.run_eval(tmp_path, {"model": bad}) == 2
        assert "coordinates must be integers" in capsys.readouterr().err

    def test_invalid_potential_rejected(self, tmp_path, capsys):
        bad = one_pair_model_doc()
        bad["potential"]["entries"] = [[1, 1.0]]
        assert self.run_eval(tmp_path, {"model": bad}) == 2
        assert "evenness" in capsys.readouterr().err

    def test_unreadable_and_malformed_files(self, tmp_path, capsys):
        assert cli.main(["eval", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert cli.main(["eval", "--config", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_workflow_verb_mismatch(self, tmp_path, capsys):
        doc = {"workflow": "ed", "model": one_pair_model_doc()}
        assert self.run_eval(tmp_path, doc) == 2
        assert "does not match" in capsys.readouterr().err

    def test_study_requires_section(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"model": one_pair_model_doc()})
        assert cli.main(["study", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "missing required key: study" in capsys.readouterr().err

    def test_momentum_sector_type(self, tmp_path, capsys):
        doc = {"model": one_pair_model_doc(), "ed": {"momentum_sector": "zero"}}
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert cli.main(["ed", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "momentum_sector" in capsys.readouterr().err

    def test_oversized_enumeration_rejected(self, tmp_path, capsys):
        doc = {
            "model": {
                "d": 3,
                "N": 2,
                "mode_cutoff": 700.0,
                "potential": {"entries": [[0, 0, 0, 1.0]]},
            }
        }
        assert self.run_eval(tmp_path, doc) == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key",
        [
            ({"ed": {"k": 0}}, "ed.k"),
            ({"ed": {"tol": 0.0}}, "ed.tol"),
            ({"ed": {"max_iter": 0, "dense_threshold": 0}}, "ed.max_iter"),
            ({"ed": {"dense_threshold": -1}}, "ed.dense_threshold"),
            ({"ed": {"seed": -1, "dense_threshold": 0}}, "ed.seed"),
            ({"ed": {"hamiltonian": "pair", "excitation_cutoff": -1}}, "ed.excitation_cutoff"),
            ({"hb": {"start_cutoff": -1}}, "hb.start_cutoff"),
            ({"hb": {"start_cutoff": 8, "max_cutoff": 6}}, "hb.max_cutoff"),
            ({"hb": {"cutoff_delta": 0}}, "hb.cutoff_delta"),
            ({"hb": {"cutoff_delta": -1.0}}, "hb.cutoff_delta"),
        ],
    )
    def test_out_of_range_solver_settings(self, tmp_path, capsys, section, key):
        cfg = write_json(tmp_path / "cfg.json", {"model": one_pair_model_doc(), **section})
        assert cli.main(["ed", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "study, key",
        [
            ({"N_values": [3, 4, 5], "coupling_c": 0.1}, "study.coupling_c"),
            ({"N_values": [3, 4, 5], "fit_model": "exp"}, "study.fit_model"),
            ({"N_values": [3, 5, 4]}, "study.N_values"),
        ],
    )
    def test_out_of_range_study_settings(self, tmp_path, capsys, study, key):
        doc = {"model": one_pair_model_doc(5), "study": study}
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert cli.main(["study", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["eval", "ed", "selfcheck"])
    @pytest.mark.parametrize(
        "study, key",
        [
            ({"N_values": [3, 2]}, "study.N_values"),
            ({"N_values": [3, 4, 5], "coupling_c": 0.1}, "study.coupling_c"),
        ],
    )
    def test_study_section_checked_under_every_verb(self, tmp_path, capsys, verb, study, key):
        doc = {"model": one_pair_model_doc(5), "study": study}
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert cli.main([verb, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, ed, key",
        [
            (one_pair_model_doc(3), {"momentum_sector": [5]}, "ed.momentum_sector"),
            (
                one_pair_model_doc(3, include_zero_mode=False),
                {"momentum_sector": [0]},
                "ed.momentum_sector",
            ),
            (
                one_pair_model_doc(3, mode_cutoff=1.0),
                {"hamiltonian": "pair", "excitation_cutoff": 4},
                "model.mode_cutoff",
            ),
            (
                one_pair_model_doc(3, mode_cutoff=1.0, include_zero_mode=False),
                {},
                "model.mode_cutoff",
            ),
        ],
        ids=["sector-out-of-reach", "odd-n-without-zero-mode", "pair-without-modes", "no-modes"],
    )
    def test_empty_ed_space_rejected(self, tmp_path, capsys, model, ed, key):
        cfg = write_json(tmp_path / "cfg.json", {"model": model, "ed": ed})
        assert cli.main(["ed", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["study", "selfcheck"])
    def test_zero_mode_required_by_study_and_selfcheck(self, tmp_path, capsys, verb):
        doc = {
            "model": one_pair_model_doc(5, include_zero_mode=False),
            "study": {"N_values": [3, 4, 5]},
        }
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert cli.main([verb, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "model.include_zero_mode" in capsys.readouterr().err

    def test_config_required_for_eval(self):
        with pytest.raises(SystemExit):
            cli.main(["eval"])


class TestEvalWorkflow:
    def test_artifacts_and_round_trip(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"model": one_pair_model_doc(8)})
        out = tmp_path / "out"
        assert cli.main(["eval", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "report.json").read_text()
        doc = json.loads(text)
        assert text == cli.canonical_json(doc) + "\n"
        assert doc["results"]["e_B"] == pytest.approx(-0.012354146779134168, rel=1e-14)
        lines = (out / "modes.csv").read_text().splitlines()
        assert lines[0] == "p_coords,w_hat,e_p,alpha_p,n_p,eB_summand"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "-1"
        assert float(first[2]) == pytest.approx(40.466063457578300308, rel=1e-15)

    def test_zero_potential_all_zero(self, tmp_path):
        doc = one_pair_model_doc()
        doc["potential"]["entries"] = []
        cfg = write_json(tmp_path / "cfg.json", {"model": doc})
        out = tmp_path / "out"
        assert cli.main(["eval", "--config", cfg, "--out", str(out)]) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        for key in ("e_B", "D", "gse_prediction", "binding_prediction",
                    "hb_lower_bound_constant"):
            assert results[key] == 0.0
        assert results["quasifree_vacuum_overlap"] == 1.0

    def test_multi_component_coords_joined_with_semicolons(self, tmp_path):
        doc = {
            "d": 2,
            "N": 3,
            "mode_cutoff": 7.0,
            "potential": {"entries": [[0, 1, 1.0], [0, -1, 1.0], [1, 0, 1.0], [-1, 0, 1.0]]},
        }
        cfg = write_json(tmp_path / "cfg.json", {"model": doc})
        out = tmp_path / "out"
        assert cli.main(["eval", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "modes.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "-1;0"


class TestEdWorkflow:
    def test_golden_and_cache_hit(self, tmp_path):
        doc = {
            "model": one_pair_model_doc(2, **{"lambda": 1.0}),
            "ed": {"momentum_sector": [0]},
        }
        cfg = write_json(tmp_path / "cfg.json", doc)
        cache = tmp_path / "cache"
        for i, expect_hit in enumerate((False, True)):
            out = tmp_path / f"out{i}"
            code = cli.main(
                ["ed", "--config", cfg, "--out", str(out), "--cache", str(cache)]
            )
            assert code == 0
            report = read_json(out / "report.json")
            assert read_json(out / "diagnostics.json") == {
                "cache": {"hits": int(expect_hit), "misses": int(not expect_hit)}
            }
            assert report["result"]["eigenvalues"][0] == pytest.approx(
                -0.02532217485889982, rel=1e-13
            )
            assert report["result"]["observables"]["nplus"] >= 0.0

    def test_pair_hamiltonian_path(self, tmp_path):
        doc = {
            "model": one_pair_model_doc(4),
            "ed": {"hamiltonian": "pair", "excitation_cutoff": 10},
        }
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        assert cli.main(["ed", "--config", cfg, "--out", str(out)]) == 0
        result = json.loads((out / "report.json").read_text())["result"]
        assert result["eigenvalues"][0] == pytest.approx(
            -0.012354146779134168, abs=1e-11
        )
        assert result["cutoff_delta"] < 1e-10

    def test_pair_requires_cutoff(self, tmp_path, capsys):
        doc = {"model": one_pair_model_doc(4), "ed": {"hamiltonian": "pair"}}
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert cli.main(["ed", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "excitation_cutoff" in capsys.readouterr().err

    def test_non_convergence_exit_3_and_not_cached(self, tmp_path):
        doc = {
            "model": {
                "d": 1,
                "N": 16,
                "mode_cutoff": 13.0,
                "potential": {
                    "entries": [[-2, 1.0], [-1, 1.0], [1, 1.0], [2, 1.0]]
                },
            },
            "ed": {"max_iter": 2, "dense_threshold": 10},
        }
        cfg = write_json(tmp_path / "cfg.json", doc)
        cache = tmp_path / "cache"
        code = cli.main(
            ["ed", "--config", cfg, "--out", str(tmp_path / "out"), "--cache", str(cache)]
        )
        assert code == 3
        assert not cache.exists() or not list(cache.glob("*.json"))

    @pytest.mark.parametrize("n, dimension, largest", [(48, 1225, 25), (56, 1653, 29)])
    def test_whole_sector_solves_momentum_blocks_only(
        self, tmp_path, monkeypatch, n, dimension, largest
    ):
        from torusbog import fock_ed

        dims = []
        kinds = set()
        solve = fock_ed.lowest_eigenpairs

        def recording(op, *args, **kwargs):
            dims.append(op.shape[0])
            kinds.add(type(op))
            return solve(op, *args, **kwargs)

        monkeypatch.setattr(fock_ed, "lowest_eigenpairs", recording)
        cfg = write_json(tmp_path / "cfg.json", {"model": one_pair_model_doc(n)})
        assert cli.main(["ed", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        result = read_json(tmp_path / "out" / "report.json")["result"]
        assert result["dimension"] == dimension
        assert (result["method"], result["iterations"]) == ("dense", 0)
        assert max(dims) == largest
        # Every block is solved dense, so each arrives as a dense array
        # filled from the sector's entries, not as a sparse slice.
        assert kinds == {np.ndarray}

    def test_unconverged_block_exit_3_and_not_cached(self, tmp_path, monkeypatch):
        # The first block, K = -8, holds one state and not the ground: its
        # failure alone must fail the job.
        from torusbog import fock_ed

        solve = fock_ed.lowest_eigenpairs
        calls = []

        def failing_first(op, *args, **kwargs):
            result = solve(op, *args, **kwargs)
            calls.append(op.shape[0])
            return replace(result, converged=False) if len(calls) == 1 else result

        monkeypatch.setattr(fock_ed, "lowest_eigenpairs", failing_first)
        cfg = write_json(tmp_path / "cfg.json", {"model": one_pair_model_doc(8)})
        cache = tmp_path / "cache"
        code = cli.main(
            ["ed", "--config", cfg, "--out", str(tmp_path / "out"), "--cache", str(cache)]
        )
        assert calls[0] == 1 and len(calls) > 1
        assert code == 3
        result = read_json(tmp_path / "out" / "report.json")["result"]
        assert result["converged"] is False
        assert result["residual_norm"] <= result["tol"]
        assert not cache.exists() or not list(cache.glob("*.json"))

    def test_cache_dir_env_and_flag_precedence(self, tmp_path, monkeypatch):
        doc = {"model": one_pair_model_doc(3), "ed": {"momentum_sector": [0]}}
        cfg = write_json(tmp_path / "cfg.json", doc)
        env_cache = tmp_path / "env_cache"
        flag_cache = tmp_path / "flag_cache"
        monkeypatch.setenv("CACHE_DIR", str(env_cache))
        assert cli.main(["ed", "--config", cfg, "--out", str(tmp_path / "o1")]) == 0
        assert len(list(env_cache.glob("*.json"))) == 1
        assert (
            cli.main(
                ["ed", "--config", cfg, "--out", str(tmp_path / "o2"),
                 "--cache", str(flag_cache)]
            )
            == 0
        )
        assert len(list(flag_cache.glob("*.json"))) == 1

    def test_corrupt_cache_recovers(self, tmp_path):
        doc = {"model": one_pair_model_doc(3), "ed": {"momentum_sector": [0]}}
        cfg = write_json(tmp_path / "cfg.json", doc)
        cache = tmp_path / "cache"
        assert cli.main(
            ["ed", "--config", cfg, "--out", str(tmp_path / "o1"), "--cache", str(cache)]
        ) == 0
        entry_path = next(cache.glob("*.json"))
        entry_path.write_text("garbage")
        assert cli.main(
            ["ed", "--config", cfg, "--out", str(tmp_path / "o2"), "--cache", str(cache)]
        ) == 0
        assert read_json(tmp_path / "o2" / "diagnostics.json")["cache"]["hits"] == 0
        restored = json.loads(entry_path.read_text())
        assert restored["payload"]["converged"] is True


class TestStudyWorkflow:
    def study_doc(self, n_values) -> dict:
        return {
            "model": one_pair_model_doc(max(n_values)),
            "study": {"N_values": list(n_values)},
        }

    def test_artifacts_schema_and_consistency(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", self.study_doc((3, 4, 5)))
        out = tmp_path / "out"
        assert cli.main(["study", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[0] == (
            "N,lambda,E_N,E_Nm1,deltaE,leading_term,residual_r,"
            "prediction,abs_err,converged"
        )
        assert len(lines) == 4
        report = json.loads((out / "report.json").read_text())
        for line, rec in zip(lines[1:], report["records"]):
            cells = line.split(",")
            assert int(cells[0]) == rec["N"]
            assert float(cells[4]) == rec["delta_E"]
            assert float(cells[8]) == pytest.approx(
                abs(rec["residual_r"] - report["prediction"]), rel=1e-15
            )
            assert cells[9] == "true"
        assert report["fit"]["ok"] is True
        text = (out / "report.json").read_text()
        assert text == cli.canonical_json(json.loads(text)) + "\n"

    def test_record_cache_reused(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", self.study_doc((3, 4, 5)))
        cache = tmp_path / "cache"
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(
            ["study", "--config", cfg, "--out", str(out1), "--cache", str(cache)]
        ) == 0
        assert cli.main(
            ["study", "--config", cfg, "--out", str(out2), "--cache", str(cache)]
        ) == 0
        r1 = read_json(out1 / "report.json")
        r2 = read_json(out2 / "report.json")
        assert read_json(out1 / "diagnostics.json")["cache"] == {"hits": 0, "misses": 3}
        assert read_json(out2 / "diagnostics.json")["cache"] == {"hits": 3, "misses": 0}
        assert r1["records"] == r2["records"]

    def test_unconverged_global_block_exit_3_and_not_cached(self, tmp_path, monkeypatch):
        # The first block solved, K = -3 of the whole N = 3 sector, holds one
        # state and not the ground: its failure alone must fail that record.
        from torusbog import fock_ed

        solve = fock_ed.lowest_eigenpairs
        calls = []

        def failing_first(op, *args, **kwargs):
            result = solve(op, *args, **kwargs)
            calls.append(op.shape[0])
            return replace(result, converged=False) if len(calls) == 1 else result

        cfg = write_json(tmp_path / "cfg.json", self.study_doc((3, 4, 5)))
        cache = tmp_path / "cache"
        args = ["study", "--config", cfg, "--cache", str(cache), "--out"]
        with monkeypatch.context() as patch:
            patch.setattr(fock_ed, "lowest_eigenpairs", failing_first)
            assert cli.main(args + [str(tmp_path / "o1")]) == 3
        assert calls[0] == 1
        records = read_json(tmp_path / "o1" / "report.json")["records"]
        assert [rec["converged"] for rec in records] == [False, True, True]
        assert len(list(cache.glob("*.json"))) == 2
        # Unpatched, only the N = 3 record is computed again.
        assert cli.main(args + [str(tmp_path / "o2")]) == 0
        assert read_json(tmp_path / "o2" / "diagnostics.json")["cache"] == {
            "hits": 2,
            "misses": 1,
        }

    def test_records_shared_across_sweeps(self, tmp_path):
        # A record depends on its own N only, not on the rest of the sweep.
        cache = tmp_path / "cache"
        reports = []
        for i, (n_values, cache_counts) in enumerate(
            (((3, 4, 5), {"hits": 0, "misses": 3}), ((3, 4, 6), {"hits": 2, "misses": 1}))
        ):
            doc = self.study_doc(n_values)
            doc["model"]["N"] = 6
            cfg = write_json(tmp_path / f"cfg{i}.json", doc)
            out = tmp_path / f"o{i}"
            assert cli.main(
                ["study", "--config", cfg, "--out", str(out), "--cache", str(cache)]
            ) == 0
            assert read_json(out / "diagnostics.json")["cache"] == cache_counts
            reports.append(read_json(out / "report.json"))
        assert reports[0]["records"][:2] == reports[1]["records"][:2]

    def test_never_builds_the_pair_hamiltonian(self, tmp_path, monkeypatch):
        from torusbog import asymptotics, fock_ed

        def refuse(*args, **kwargs):
            raise AssertionError("the study built the pair Hamiltonian")

        monkeypatch.setattr(fock_ed, "build_bogoliubov_hamiltonian", refuse)
        cfg = write_json(tmp_path / "cfg.json", self.study_doc((3, 4, 5)))
        config = cli.load_config(cfg, "study")["study"]
        assert config.with_overlap
        report = asymptotics.run_binding_study(config)
        assert all(rec.overlap is not None for rec in report.records)
        assert cli.main(["study", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        records = read_json(tmp_path / "out" / "report.json")["records"]
        assert all(0.0 < rec["overlap"] <= 1.0 for rec in records)

    def test_too_few_points_for_fit_exits_3(self, tmp_path):
        doc = self.study_doc((4, 5))
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        assert cli.main(["study", "--config", cfg, "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["fit"] is None
        assert all(rec["converged"] for rec in report["records"])

    def test_non_converged_records_exit_3(self, tmp_path):
        doc = self.study_doc((8, 10, 12))
        doc["ed"] = {"max_iter": 3, "dense_threshold": 0}
        doc["study"]["with_overlap"] = False
        doc["study"]["check_global"] = False
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        assert cli.main(["study", "--config", cfg, "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert not all(rec["converged"] for rec in report["records"])


class TestColdWarmReports:
    @pytest.mark.parametrize(
        "verb, doc",
        [
            ("ed", {"model": one_pair_model_doc(3), "ed": {"momentum_sector": [0]}}),
            ("ed", {"model": one_pair_model_doc(3),
                    "ed": {"hamiltonian": "pair", "excitation_cutoff": 6}}),
            ("study", {"model": one_pair_model_doc(5), "study": {"N_values": [3, 4, 5]}}),
        ],
    )
    def test_report_bytes_do_not_depend_on_the_cache(self, tmp_path, verb, doc):
        cfg = write_json(tmp_path / "cfg.json", doc)
        cache = tmp_path / "cache"
        outs = [tmp_path / "cold", tmp_path / "warm"]
        for out in outs:
            assert cli.main(
                [verb, "--config", cfg, "--out", str(out), "--cache", str(cache)]
            ) == 0
        cold, warm = (read_json(out / "diagnostics.json")["cache"] for out in outs)
        assert cold["hits"] == 0 and warm["misses"] == 0
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()


class TestCacheKeys:
    """Cache file names are digests of each solve's parameters. A change that
    alters one orphans every cache entry written before it, so these are
    pinned; the tool version is part of each digest."""

    @pytest.mark.parametrize(
        "verb, doc, names",
        [
            (
                "ed",
                {"model": one_pair_model_doc(3), "ed": {"momentum_sector": [0]}},
                ["929886cbe142fc349bb7cafed2f89ceb"],
            ),
            (
                "ed",
                {"model": one_pair_model_doc(3),
                 "ed": {"hamiltonian": "pair", "excitation_cutoff": 6}},
                ["b8ec3993c3d3af9aed50a6c665446ff4"],
            ),
            (
                "study",
                {"model": one_pair_model_doc(5), "study": {"N_values": [3, 4, 5]}},
                # Keyed on the momentum-block solve that the K = 0 results
                # come from; the former separate K = 0 solves keyed otherwise.
                [
                    "0d84635761e66b9d405cbc1933f69a3a",
                    "36d4c39b8713e3a21d05b612cc537475",
                    "e6cddfdc8d88f5cf521a02577a084ce5",
                ],
            ),
            (
                # Whole sector, solved by momentum blocks; its key differs from
                # that of the former single whole-sector solve.
                "ed",
                {"model": one_pair_model_doc(3)},
                ["cdda1ace6bba85df860c07be4356d8e8"],
            ),
        ],
    )
    def test_golden_cache_file_names(self, tmp_path, verb, doc, names):
        cfg = write_json(tmp_path / "cfg.json", doc)
        cache = tmp_path / "cache"
        assert cli.main(
            [verb, "--config", cfg, "--out", str(tmp_path / "out"), "--cache", str(cache)]
        ) == 0
        assert sorted(p.stem for p in cache.glob("*.json")) == names


class TestSelfcheckWorkflow:
    def test_default_model_passes(self, tmp_path, capsys):
        assert cli.main(["selfcheck", "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(": ok" in line for line in lines if line.startswith("selfcheck"))
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["violations"] == 0
        names = {c["name"] for c in report["checks"]}
        assert {"quadratic_relation", "variational_sandwich", "hermiticity",
                "hb_ground_matches_eB", "momentum_block_diagonal"} <= names

    def test_custom_model_with_zero_mode_offset(self, tmp_path):
        doc = {
            "model": one_pair_model_doc(4, potential={
                "entries": [[-1, 1.0], [0, 2.0], [1, 1.0]]
            })
        }
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert cli.main(["selfcheck", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert "zero_mode_offset_exact" in names

    def test_violation_exits_4(self, tmp_path, capsys):
        doc = {
            "model": one_pair_model_doc(6),
            "hb": {"start_cutoff": 2, "max_cutoff": 4},
        }
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert cli.main(["selfcheck", "--config", cfg, "--out", str(tmp_path)]) == 4
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["violations"] >= 1


class TestThreadPinning:
    def test_threads_flag_sets_env(self, tmp_path, monkeypatch):
        for var in cli._THREAD_VARS:
            monkeypatch.setenv(var, "unset-sentinel")
        cfg = write_json(tmp_path / "cfg.json", {"model": one_pair_model_doc(3)})
        assert cli.main(
            ["eval", "--config", cfg, "--out", str(tmp_path), "--threads", "3"]
        ) == 0
        for var in cli._THREAD_VARS:
            assert os.environ[var] == "3"

    def test_invalid_threads_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"model": one_pair_model_doc(3)})
        assert cli.main(
            ["eval", "--config", cfg, "--out", str(tmp_path), "--threads", "0"]
        ) == 2
        assert "--threads" in capsys.readouterr().err
