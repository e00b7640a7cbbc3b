"""N-sweep experiment machinery: sweep config, extrapolation, overlaps, studies."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from torusbog import asymptotics, bogoliubov, fock_ed
from torusbog.model import (
    Momentum,
    PotentialSpec,
    TorusModel,
    normalize_zero_mode,
    zero_momentum,
)

from conftest import make_one_pair_model, make_two_band_model

GOLD_PREDICTION_ONE_PAIR = -0.02440676875466877194
GOLD_PREDICTION_TWO_BAND = -0.030679818400429764806
GOLD_VACUUM_OVERLAP = 0.99992368461666093734


def one_pair_config(n_values, **kwargs) -> asymptotics.SweepConfig:
    return asymptotics.SweepConfig(
        base=make_one_pair_model(N=max(n_values)), N_values=tuple(n_values), **kwargs
    )


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            one_pair_config(())
        with pytest.raises(ValueError, match="at least 2"):
            one_pair_config((1, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            one_pair_config((4, 4))
        with pytest.raises(ValueError, match="strictly increasing"):
            one_pair_config((8, 4))
        with pytest.raises(ValueError, match="coupling_c"):
            one_pair_config((4, 8), coupling_c=0.1)
        with pytest.raises(ValueError, match="fit model"):
            one_pair_config((4, 8), fit_model="exp")

    def test_defaults(self):
        config = one_pair_config((4, 8))
        assert config.coupling_c == 1.0
        assert config.fit_model == "1/N"
        assert config.with_overlap and config.check_global
        assert config.hb == fock_ed.HBSettings(start_cutoff=6, max_cutoff=60, cutoff_delta=1e-10)


class TestConsistentTruncationPrediction:
    def test_one_pair_golden(self):
        solution = bogoliubov.solve(make_one_pair_model(N=8))
        value = solution.e_B - solution.D
        assert value == pytest.approx(GOLD_PREDICTION_ONE_PAIR, rel=1e-13)

    def test_two_band_golden(self):
        solution = bogoliubov.solve(make_two_band_model(N=8))
        value = solution.e_B - solution.D
        assert value == pytest.approx(GOLD_PREDICTION_TWO_BAND, rel=1e-13)

    def test_zero_potential(self):
        spec = PotentialSpec((), support_radius=0.0)
        model = TorusModel(d=1, N=4, potential=spec, mode_cutoff=7.0)
        solution = bogoliubov.solve(model)
        assert solution.e_B - solution.D == 0.0


class TestExtrapolateResidual:
    def test_constant_input(self):
        fit = asymptotics.extrapolate_residual([(8, -0.02), (16, -0.02), (32, -0.02)])
        assert fit.r_inf == pytest.approx(-0.02, abs=1e-14)
        assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-12)
        assert fit.ok

    def test_exact_model_recovery(self):
        points = [(n, -0.02 + 0.5 / n) for n in (8, 16, 32)]
        fit = asymptotics.extrapolate_residual(points)
        assert fit.r_inf == pytest.approx(-0.02, abs=1e-12)
        assert fit.coefficients[1] == pytest.approx(0.5, abs=1e-12)
        assert fit.max_deviation <= 1e-12

    def test_quadratic_model_recovery(self):
        points = [(n, -0.02 + 0.5 / n + 0.3 / n**2) for n in (4, 8, 16, 32)]
        fit = asymptotics.extrapolate_residual(points, fit_model="1/N+1/N2")
        assert fit.r_inf == pytest.approx(-0.02, abs=1e-11)
        assert fit.coefficients[1] == pytest.approx(0.5, abs=1e-9)
        assert fit.coefficients[2] == pytest.approx(0.3, abs=1e-8)
        assert fit.model == "1/N+1/N2"

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="3"):
            asymptotics.extrapolate_residual([(8, 1.0), (16, 1.0)])

    def test_rank_deficiency_reported(self):
        fit = asymptotics.extrapolate_residual([(8, 1.0), (8, 1.0), (8, 1.0)])
        assert not fit.ok


class TestQuasifreeOverlap:
    def test_condensate_overlap_matches_vacuum_weight(self):
        # The pure condensate maps to the excitation vacuum, so its overlap with
        # the (truncated, renormalized) quasi-free ground is the vacuum weight
        # prod_p (1 - alpha_p^2)^{1/4} up to the tiny truncated mass.
        model = make_one_pair_model(N=8)
        basis_n = fock_ed.enumerate_basis(
            model.mode_set(), n_particles=8, momentum_sector=zero_momentum(1)
        )
        psi = np.zeros(basis_n.size)
        psi[basis_n.find([(0, 8, 0)])[0]] = 1.0
        hb = fock_ed.converged_bogoliubov_ground(
            model.nonzero_modes(), model.potential, fock_ed.HBSettings(start_cutoff=8)
        )
        assert hb.converged
        overlap = asymptotics.quasifree_overlap(psi, basis_n, hb.result.ground_vector, hb.basis)
        assert overlap == pytest.approx(GOLD_VACUUM_OVERLAP, abs=1e-9)

    def test_zero_potential_overlap_is_one(self):
        spec = PotentialSpec((), support_radius=0.0)
        model = TorusModel(d=1, N=4, potential=spec, mode_cutoff=7.0)
        binding = fock_ed.binding_from_ed(model, check_global=False)
        hb = fock_ed.converged_bogoliubov_ground(
            model.nonzero_modes(), model.potential, fock_ed.HBSettings(start_cutoff=4)
        )
        overlap = asymptotics.quasifree_overlap(
            binding.result_N.ground_vector, binding.basis_N,
            hb.result.ground_vector, hb.basis,
        )
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_reference_reaches_largest_n(self):
        # The overlap of an N = 12 state needs excitation counts up to 12, above
        # the configured schedule.
        config = one_pair_config(
            (4, 8, 12), hb=fock_ed.HBSettings(start_cutoff=2, max_cutoff=4)
        )
        hb = asymptotics.solve_quasifree_reference(config)
        assert hb.converged
        assert hb.cutoff_used >= 12
        assert hb.basis.excitation_cutoff >= 12

    def test_mode_mismatch_rejected(self):
        model = make_one_pair_model(N=4)
        basis_n = fock_ed.enumerate_basis(model.mode_set(), n_particles=4)
        wrong_exc = fock_ed.enumerate_basis(
            tuple(Momentum((n,)) for n in (-2, -1, 1, 2)), excitation_cutoff=4
        )
        with pytest.raises(ValueError, match="mismatch"):
            asymptotics.quasifree_overlap(
                np.ones(basis_n.size) / math.sqrt(basis_n.size),
                basis_n,
                np.ones(wrong_exc.size),
                wrong_exc,
            )


class TestBindingRecord:
    def test_fields_are_consistent(self):
        config = one_pair_config((4, 6))
        hb = asymptotics.solve_quasifree_reference(config)
        rec = asymptotics.binding_record(config, 6, hb)
        assert rec.N == 6
        assert rec.lam == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert rec.delta_E == pytest.approx(rec.E_N - rec.E_Nm1, abs=1e-15)
        w0 = config.base.potential.w_zero
        assert rec.leading_term == pytest.approx(rec.lam * 5 * w0, abs=1e-15)
        assert rec.residual_r == pytest.approx(
            6 * (rec.delta_E - rec.leading_term), abs=1e-15
        )
        assert rec.converged
        assert rec.sandwich_lower - 1e-9 <= rec.delta_E <= rec.sandwich_upper + 1e-9
        assert 0.0 < rec.overlap <= 1.0

    def test_overlap_skipped_when_disabled(self):
        config = one_pair_config((4, 6), with_overlap=False)
        assert asymptotics.solve_quasifree_reference(config) is None
        rec = asymptotics.binding_record(config, 4, None)
        assert rec.overlap is None


class TestRunBindingStudy:
    def test_small_sweep_end_to_end(self):
        config = one_pair_config((3, 4, 5))
        report = asymptotics.run_binding_study(config)
        assert [rec.N for rec in report.records] == [3, 4, 5]
        assert all(rec.converged for rec in report.records)
        assert report.prediction == pytest.approx(GOLD_PREDICTION_ONE_PAIR, rel=1e-13)
        assert report.fit is not None and report.fit.ok
        for rec in report.records:
            assert rec.sandwich_lower - 1e-9 <= rec.delta_E <= rec.sandwich_upper + 1e-9
        assert report.hb_cutoff_used >= 5
        assert report.hb_cutoff_delta < 1e-10

    def test_overlap_monotone_toward_quasifree(self):
        config = one_pair_config((8, 16), with_overlap=True, check_global=False)
        report = asymptotics.run_binding_study(config)
        o8, o16 = (rec.overlap for rec in report.records)
        assert 0.99 < o8 < o16 <= 1.0

    def test_record_loader_interposition(self):
        config = one_pair_config((3, 4, 5), with_overlap=False)
        calls = []

        def loader(cfg, n, hb):
            calls.append(n)
            return asymptotics.binding_record(cfg, n, hb)

        report = asymptotics.run_binding_study(config, record_loader=loader)
        assert calls == [3, 4, 5]
        assert len(report.records) == 3

    def test_zero_mode_only_potential_gives_zero_residual(self):
        spec = PotentialSpec.from_table({(0,): 2.0})
        base = TorusModel(d=1, N=5, potential=spec, mode_cutoff=7.0)
        config = asymptotics.SweepConfig(
            base=base, N_values=(3, 4, 5), with_overlap=False
        )
        report = asymptotics.run_binding_study(config)
        assert report.prediction == 0.0
        for rec in report.records:
            assert rec.leading_term == pytest.approx(2.0 * (rec.N - 1) / rec.N, rel=1e-14)
            assert abs(rec.residual_r) < 1e-10

    def test_zero_potential_all_columns_zero(self):
        spec = PotentialSpec((), support_radius=0.0)
        base = TorusModel(d=1, N=5, potential=spec, mode_cutoff=7.0)
        config = asymptotics.SweepConfig(base=base, N_values=(3, 4, 5))
        report = asymptotics.run_binding_study(config)
        assert report.prediction == 0.0
        for rec in report.records:
            assert rec.E_N == pytest.approx(0.0, abs=1e-12)
            assert rec.delta_E == pytest.approx(0.0, abs=1e-12)
            assert rec.residual_r == pytest.approx(0.0, abs=1e-10)
            assert rec.overlap == pytest.approx(1.0, abs=1e-12)

    def test_residual_invariant_under_zero_mode_shift(self):
        spec = PotentialSpec.from_table({(0,): 2.0, (1,): 1.0, (-1,): 1.0})
        shifted, _ = normalize_zero_mode(spec)
        base_a = TorusModel(d=1, N=5, potential=spec, mode_cutoff=7.0)
        base_b = TorusModel(d=1, N=5, potential=shifted, mode_cutoff=7.0)
        report_a = asymptotics.run_binding_study(
            asymptotics.SweepConfig(base=base_a, N_values=(3, 4, 5), with_overlap=False)
        )
        report_b = asymptotics.run_binding_study(
            asymptotics.SweepConfig(base=base_b, N_values=(3, 4, 5), with_overlap=False)
        )
        for rec_a, rec_b in zip(report_a.records, report_b.records):
            assert rec_a.leading_term != rec_b.leading_term
            assert rec_a.residual_r == pytest.approx(rec_b.residual_r, abs=1e-9)
        assert report_a.prediction == pytest.approx(report_b.prediction, abs=1e-14)

    def test_constant_trial_state_upper_bound(self):
        # For w_hat >= 0 the sector ground energy never exceeds the pure
        # condensate energy (lambda/2) N(N-1) w_hat(0).
        spec = PotentialSpec.from_table({(0,): 2.0, (1,): 1.0, (-1,): 1.0})
        base = TorusModel(d=1, N=5, potential=spec, mode_cutoff=7.0)
        config = asymptotics.SweepConfig(base=base, N_values=(3, 4, 5), with_overlap=False)
        report = asymptotics.run_binding_study(config)
        for rec in report.records:
            trial = 0.5 * rec.lam * rec.N * (rec.N - 1) * 2.0
            assert rec.E_N <= trial + 1e-12
