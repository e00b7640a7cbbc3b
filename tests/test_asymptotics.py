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


def quasifree_alpha(model: TorusModel) -> dict:
    return {
        p: bogoliubov.mode_quantities(p, model.w_hat(p)).alpha_p
        for p in model.nonzero_modes()
    }


def pair_hamiltonian_overlap(psi, basis_n, hb: fock_ed.HBGround) -> float:
    """The overlap read off the pair-Hamiltonian ground vector: the slow path
    that the closed form replaces, kept as its oracle. Its basis is the M
    sector with the zero mode last, so U_M U_N* only moves the zero-mode
    occupation by M - N."""
    rows = basis_n.states[:, [basis_n.modes.index(p) for p in hb.basis.modes]]
    rows[:, -1] += hb.basis.n_particles - basis_n.n_particles
    images = hb.basis.find(rows)
    keep = hb.basis.excitation_counts() <= basis_n.n_particles
    phi = np.where(keep, hb.result.ground_vector, 0.0)
    phi /= np.linalg.norm(phi)
    hit = images >= 0
    return abs(float(psi[hit] @ phi[images[hit]]))


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
        assert config.ed == fock_ed.EDSettings()


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
        overlap = asymptotics.quasifree_overlap(psi, basis_n, quasifree_alpha(model))
        assert overlap == pytest.approx(GOLD_VACUUM_OVERLAP, abs=1e-9)

    def test_zero_potential_overlap_is_one(self):
        spec = PotentialSpec((), support_radius=0.0)
        model = TorusModel(d=1, N=4, potential=spec, mode_cutoff=7.0)
        binding = fock_ed.binding_from_ed(model, check_global=False)
        overlap = asymptotics.quasifree_overlap(
            binding.result_N.ground_vector, binding.basis_N, quasifree_alpha(model)
        )
        assert overlap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "model, start_cutoff",
        [
            (make_one_pair_model(N=8), 8),
            (make_two_band_model(N=8), 8),
            # d = 2: the zero mode and the eight modes with |p| <= 2*pi*sqrt(2).
            (
                TorusModel(
                    d=2,
                    N=4,
                    potential=PotentialSpec.band(d=2, radius=9.0, value=1.0),
                    mode_cutoff=9.0,
                ),
                4,
            ),
            # Modes +-2 carry w_hat = 0, so alpha = 0 there.
            (make_one_pair_model(N=8, cutoff=13.0), 8),
            # alpha = 0.17: truncating to N = 4 excitations drops 1.3e-5 of the
            # norm, and the hard cutoff of HB moves its top amplitudes by
            # about alpha^(cutoff/2), hence the higher cutoff.
            (
                TorusModel(
                    d=1,
                    N=4,
                    potential=PotentialSpec.from_table({(1,): 20.0, (-1,): 20.0}),
                    mode_cutoff=7.0,
                ),
                30,
            ),
        ],
        ids=["one-pair", "two-pair", "square-9-mode", "zero-coefficient-pair", "strong-pair"],
    )
    def test_closed_form_matches_pair_hamiltonian_ground(self, model, start_cutoff):
        hb = fock_ed.converged_bogoliubov_ground(
            model.nonzero_modes(),
            model.potential,
            fock_ed.HBSettings(start_cutoff=start_cutoff, max_cutoff=start_cutoff + 4),
        )
        assert hb.converged
        alpha = quasifree_alpha(model)
        phi = asymptotics.quasifree_state(hb.basis, alpha)
        np.testing.assert_allclose(phi, hb.result.ground_vector, rtol=0.0, atol=1e-10)
        binding = fock_ed.binding_from_ed(model, check_global=False)
        psi = binding.result_N.ground_vector
        assert asymptotics.quasifree_overlap(psi, binding.basis_N, alpha) == pytest.approx(
            pair_hamiltonian_overlap(psi, binding.basis_N, hb), rel=0.0, abs=1e-12
        )

    def test_requires_negation_closed_modes(self):
        modes = (Momentum((1,)), Momentum((2,)), Momentum((-2,)), Momentum((0,)))
        alpha = {p: 0.1 for p in modes}
        basis = fock_ed.enumerate_basis(modes, n_particles=2)
        with pytest.raises(ValueError, match="negation"):
            asymptotics.quasifree_state(basis, alpha)

    def test_reference_is_alpha_of_every_nonzero_mode(self):
        config = one_pair_config((4, 8, 12))
        alpha = asymptotics.solve_quasifree_reference(config)
        p2 = (2.0 * math.pi) ** 2
        expected = 1.0 / (p2 + 1.0 + math.sqrt(p2 * p2 + 2.0 * p2))
        assert set(alpha) == {Momentum((-1,)), Momentum((1,))}
        for value in alpha.values():
            assert value == pytest.approx(expected, rel=1e-15)

    def test_mode_mismatch_rejected(self):
        model = make_one_pair_model(N=4)
        basis_n = fock_ed.enumerate_basis(model.mode_set(), n_particles=4)
        psi = np.ones(basis_n.size) / math.sqrt(basis_n.size)
        wrong_alpha = {Momentum((n,)): 0.1 for n in (-2, 2)}
        with pytest.raises(ValueError, match="mismatch"):
            asymptotics.quasifree_overlap(psi, basis_n, wrong_alpha)
        with pytest.raises(ValueError):
            asymptotics.quasifree_overlap(psi[1:], basis_n, quasifree_alpha(model))


class TestBindingRecord:
    def test_fields_are_consistent(self):
        config = one_pair_config((4, 6))
        alpha = asymptotics.solve_quasifree_reference(config)
        rec = asymptotics.binding_record(config, 6, alpha)
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
        assert all(0.0 < rec.overlap <= 1.0 for rec in report.records)

    def test_global_check_solves_momentum_blocks_only(self, monkeypatch):
        # The one-pair N = 48 sector holds 1,225 states; its largest momentum
        # block, K = 0, holds 25.
        dims = []
        dense_arrays = 0
        blocks = 0
        assembled = 0
        solve = fock_ed.lowest_eigenpairs
        solve_sector = fock_ed.solve_sector
        build = fock_ed.build_hamiltonian

        def recording(op, *args, **kwargs):
            nonlocal dense_arrays
            dims.append(op.shape[0])
            dense_arrays += isinstance(op, np.ndarray)
            return solve(op, *args, **kwargs)

        def counting(*args, **kwargs):
            nonlocal blocks
            solved = solve_sector(*args, **kwargs)
            blocks += len(solved.results)
            return solved

        def building(*args, **kwargs):
            nonlocal assembled
            assembled += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(fock_ed, "lowest_eigenpairs", recording)
        monkeypatch.setattr(fock_ed, "solve_sector", counting)
        monkeypatch.setattr(fock_ed, "build_hamiltonian", building)
        n_values = (8, 16, 24, 32, 48)
        report = asymptotics.run_binding_study(one_pair_config(n_values))
        assert all(rec.converged for rec in report.records)
        assert max(dims) == 25
        # Every solve is a momentum block of solve_sector, solved dense from a
        # dense array: the whole N sector's blocks, K = 0 among them, and the
        # K = 0 block of N - 1. Each record assembles those two operators once.
        assert len(dims) == blocks == dense_arrays
        assert assembled == 2 * len(n_values)

    def test_overlap_monotone_toward_quasifree(self):
        config = one_pair_config((8, 16), with_overlap=True, check_global=False)
        report = asymptotics.run_binding_study(config)
        o8, o16 = (rec.overlap for rec in report.records)
        assert 0.99 < o8 < o16 <= 1.0

    def test_record_loader_interposition(self):
        config = one_pair_config((3, 4, 5), with_overlap=False)
        calls = []

        def loader(cfg, n, alpha):
            calls.append(n)
            return asymptotics.binding_record(cfg, n, alpha)

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
