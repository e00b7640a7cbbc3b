"""Exact diagonalization on truncated Fock spaces: bases, matrices, eigensolver,
observables, excitation-space maps, operator identities, variational bounds.

Dense 2x2 and brute-force references here are written directly against the
second-quantized matrix elements, independent of the assembly code.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbog import bogoliubov, fock_ed
from torusbog.model import (
    Momentum,
    PotentialSpec,
    ResourceLimitError,
    TorusModel,
    zero_momentum,
)

from conftest import make_one_pair_model, make_two_band_model

TWO_PI = 2.0 * math.pi
T_KIN = 2.0 * (TWO_PI) ** 2  # kinetic energy of the (+1, -1) excited pair

# Ground energies of the one-pair model at lambda = 1/8 (independent dense
# solver, frozen).
GOLD_E8 = -0.0108755114982526
GOLD_E7 = -0.0081819362256364
GOLD_DE8 = -0.0026935752726161
# N = 16 sandwich, lambda = 1/16 (same source).
GOLD_SW16 = (-0.001436512980, -0.001436488968, -0.001258841624)


def one_pair_k0_basis(n: int) -> fock_ed.FockBasis:
    model = make_one_pair_model(N=n)
    return fock_ed.enumerate_basis(
        model.mode_set(), n_particles=n, momentum_sector=zero_momentum(1)
    )


class TestEnumerateBasis:
    def test_fixed_n_count_is_stars_and_bars(self):
        modes = tuple(Momentum((n,)) for n in (-1, 0, 1))
        for n in (0, 1, 2, 3, 5):
            basis = fock_ed.enumerate_basis(modes, n_particles=n)
            assert basis.size == math.comb(n + 2, 2)
            assert all(sum(s) == n for s in basis.states)

    def test_cutoff_count_is_stars_and_bars(self):
        modes = tuple(Momentum((n,)) for n in (-1, 1))
        for m in (0, 1, 2, 4, 7):
            basis = fock_ed.enumerate_basis(modes, excitation_cutoff=m)
            assert basis.size == math.comb(m + 2, 2)
            assert all(sum(s) <= m for s in basis.states)

    def test_lexicographic_state_order(self):
        modes = tuple(Momentum((n,)) for n in (-1, 0, 1))
        basis = fock_ed.enumerate_basis(modes, n_particles=2)
        assert list(basis.states) == sorted(basis.states)

    def test_momentum_filter_keeps_exactly_the_sector(self):
        modes = tuple(Momentum((n,)) for n in (-1, 0, 1))
        full = fock_ed.enumerate_basis(modes, n_particles=3)
        k0 = fock_ed.enumerate_basis(
            modes, n_particles=3, momentum_sector=zero_momentum(1)
        )
        expected = [s for s in full.states if full.total_momentum(s) == (0,)]
        assert list(k0.states) == expected
        assert all(k0.total_momentum(s) == (0,) for s in k0.states)

    def test_index_maps_state_to_position(self):
        basis = one_pair_k0_basis(4)
        for i, s in enumerate(basis.states):
            assert basis.index[s] == i

    def test_exactly_one_sector_choice(self):
        modes = (Momentum((1,)), Momentum((-1,)))
        with pytest.raises(ValueError, match="exactly one"):
            fock_ed.enumerate_basis(modes)
        with pytest.raises(ValueError, match="exactly one"):
            fock_ed.enumerate_basis(modes, n_particles=2, excitation_cutoff=2)

    def test_budget_guard_fires_before_materialization(self):
        modes = tuple(Momentum((n,)) for n in range(-6, 7))
        with pytest.raises(ResourceLimitError):
            fock_ed.enumerate_basis(modes, n_particles=40, max_states=10_000)

    def test_excitation_counts(self):
        basis = one_pair_k0_basis(3)
        counts = basis.excitation_counts()
        for c, s in zip(counts, basis.states):
            assert c == sum(s) - s[basis.zero_position]

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            fock_ed.enumerate_basis((Momentum((1,)), Momentum((1,))), n_particles=1)


class TestBuildHamiltonian:
    def test_two_particle_block_golden(self):
        # K = 0, N = 2, modes {0, +-2pi}, lambda = 1, basis {(0,2,0), (1,0,1)}:
        # the condensate couples to the excited pair with amplitude
        # 2 * (lambda/2) * w * sqrt(2) (two transfer directions l = +-2pi), so
        # the block is [[0, sqrt(2)], [sqrt(2), 2(2pi)^2]] and the ground value
        # is (T - sqrt(T^2 + 8))/2 with T = 2(2pi)^2.
        model = make_one_pair_model(N=2, lam=1.0)
        basis = one_pair_k0_basis(2)
        ham = fock_ed.build_hamiltonian(model, basis).toarray()
        assert list(basis.states) == [(0, 2, 0), (1, 0, 1)]
        expected = np.array([[0.0, math.sqrt(2.0)], [math.sqrt(2.0), T_KIN]])
        assert np.allclose(ham, expected, atol=1e-14)
        ground = (T_KIN - math.sqrt(T_KIN * T_KIN + 8.0)) / 2.0
        result = fock_ed.lowest_eigenpairs(fock_ed.build_hamiltonian(model, basis))
        assert result.ground_energy == pytest.approx(ground, rel=1e-14)

    def test_against_brute_force_three_modes(self):
        # Independent reference: build H by applying the normal-ordered
        # operator sum to every basis vector with explicit ladder arithmetic.
        model = make_one_pair_model(N=3, lam=0.7)
        modes = model.mode_set()
        basis = fock_ed.enumerate_basis(modes, n_particles=3)
        dim = basis.size
        ref = np.zeros((dim, dim))
        lam = model.lam
        for j, s in enumerate(basis.states):
            ref[j, j] += sum(p.norm2 * c for p, c in zip(modes, s))
            n = sum(s)
            ref[j, j] += lam * model.potential.w_zero * n * (n - 1) / 2.0
            for lvec in model.potential.nonzero_momenta():
                wl = model.w_hat(lvec)
                for ip, p in enumerate(modes):
                    for iq, qv in enumerate(modes):
                        pt = Momentum(a - b for a, b in zip(p, lvec))
                        qt = Momentum(a + b for a, b in zip(qv, lvec))
                        if pt not in basis.modes or qt not in basis.modes:
                            continue
                        ipt = modes.index(pt)
                        iqt = modes.index(qt)
                        state = list(s)
                        amp = 1.0
                        # a_q, a_p, a*_{q+l}, a*_{p-l} with exact factors
                        if state[iq] == 0:
                            continue
                        amp *= math.sqrt(state[iq]); state[iq] -= 1
                        if state[ip] == 0:
                            continue
                        amp *= math.sqrt(state[ip]); state[ip] -= 1
                        state[iqt] += 1; amp *= math.sqrt(state[iqt])
                        state[ipt] += 1; amp *= math.sqrt(state[ipt])
                        i = basis.index[tuple(state)]
                        ref[i, j] += 0.5 * lam * wl * amp
        ham = fock_ed.build_hamiltonian(model, basis).toarray()
        assert np.allclose(ham, ref, atol=1e-13)

    def test_hermiticity_random_vectors(self, two_band_model):
        basis = fock_ed.enumerate_basis(
            two_band_model.mode_set(), n_particles=4, momentum_sector=zero_momentum(1)
        )
        ham = fock_ed.build_hamiltonian(two_band_model, basis)
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = rng.standard_normal(basis.size)
            v = rng.standard_normal(basis.size)
            lhs = u @ (ham @ v)
            rhs = (ham @ u) @ v
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v)

    def test_momentum_block_diagonal(self, two_band_model):
        basis = fock_ed.enumerate_basis(two_band_model.mode_set(), n_particles=3)
        ham = fock_ed.build_hamiltonian(two_band_model, basis).tocoo()
        sectors = [basis.total_momentum(s) for s in basis.states]
        for i, j, v in zip(ham.row, ham.col, ham.data):
            if v != 0.0:
                assert sectors[i] == sectors[j]

    def test_zero_mode_only_potential_is_diagonal(self):
        spec = PotentialSpec.from_table({(0,): 2.0})
        model = TorusModel(d=1, N=3, potential=spec, mode_cutoff=7.0, lam=0.3)
        basis = fock_ed.enumerate_basis(model.mode_set(), n_particles=3)
        ham = fock_ed.build_hamiltonian(model, basis).toarray()
        assert np.allclose(ham, np.diag(np.diag(ham)))
        constant = 0.3 * 2.0 * 3 * 2 / 2.0
        kinetic = [
            sum(p.norm2 * c for p, c in zip(basis.modes, s)) for s in basis.states
        ]
        assert np.allclose(np.diag(ham), np.asarray(kinetic) + constant)

    def test_rejects_wrong_basis(self, one_pair_model):
        pair_basis = fock_ed.enumerate_basis(
            one_pair_model.nonzero_modes(), excitation_cutoff=2
        )
        with pytest.raises(ValueError, match="fixed-particle-number"):
            fock_ed.build_hamiltonian(one_pair_model, pair_basis)
        other = fock_ed.enumerate_basis(
            tuple(Momentum((n,)) for n in (-2, -1, 0, 1, 2)), n_particles=8
        )
        with pytest.raises(ValueError, match="mode set"):
            fock_ed.build_hamiltonian(one_pair_model, other)


class TestPairHamiltonian:
    def test_basis_dimension(self):
        modes = (Momentum((-1,)), Momentum((1,)))
        potential = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        for m in (2, 4, 8):
            basis, ham = fock_ed.build_bogoliubov_hamiltonian(modes, m, potential)
            assert basis.size == math.comb(m + 2, 2)
            assert ham.shape == (basis.size, basis.size)

    def test_matrix_against_closed_form(self):
        # Two modes +-p: diagonal (|p|^2 + w)(n_+ + n_-), off-diagonal
        # w * sqrt((n_+ + 1)(n_- + 1)) on the pair-creation step (summed over
        # both p and -p, i.e. coefficient w, not w/2).
        modes = (Momentum((-1,)), Momentum((1,)))
        potential = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        basis, ham = fock_ed.build_bogoliubov_hamiltonian(modes, 4, potential)
        dense = ham.toarray()
        p2 = Momentum((1,)).norm2
        for j, s in enumerate(basis.states):
            assert dense[j, j] == pytest.approx((p2 + 1.0) * sum(s), rel=1e-15)
            up = (s[0] + 1, s[1] + 1)
            if up in basis.index:
                i = basis.index[up]
                assert dense[i, j] == pytest.approx(
                    math.sqrt(up[0] * up[1]), rel=1e-15
                )

    def test_ground_energy_golden(self):
        modes = (Momentum((-1,)), Momentum((1,)))
        potential = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        hb = fock_ed.converged_bogoliubov_ground(modes, potential)
        assert hb.converged
        assert hb.result.ground_energy == pytest.approx(
            -0.012354146779134168, abs=1e-12
        )

    def test_requires_negation_closed_nonzero_modes(self):
        potential = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        with pytest.raises(ValueError, match="negation"):
            fock_ed.build_bogoliubov_hamiltonian((Momentum((1,)),), 2, potential)
        with pytest.raises(ValueError, match="nonzero"):
            fock_ed.build_bogoliubov_hamiltonian(
                (Momentum((0,)), Momentum((1,)), Momentum((-1,))), 2, potential
            )

    def test_non_convergence_reported(self):
        modes = (Momentum((-1,)), Momentum((1,)))
        potential = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        hb = fock_ed.converged_bogoliubov_ground(
            modes, potential, start_cutoff=2, max_cutoff=4, cutoff_delta=1e-14
        )
        assert not hb.converged
        assert hb.cutoff_used == 4
        assert math.isfinite(hb.delta_achieved)

    def test_min_cutoff_respected(self):
        modes = (Momentum((-1,)), Momentum((1,)))
        potential = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        hb = fock_ed.converged_bogoliubov_ground(modes, potential, min_cutoff=12)
        assert hb.basis.excitation_cutoff >= 12


class TestLowestEigenpairs:
    def test_dense_path_small_matrix(self):
        import scipy.sparse as sp

        mat = sp.csr_matrix(np.diag([3.0, 1.0, 2.0]))
        result = fock_ed.lowest_eigenpairs(mat, fock_ed.EDSettings(k=2))
        assert result.method == "dense"
        assert result.eigenvalues[0] == pytest.approx(1.0)
        assert result.eigenvalues[1] == pytest.approx(2.0)
        assert result.converged
        assert result.residual_norm <= 1e-12

    def test_iterative_path_agrees_with_dense(self, one_pair_model):
        basis = one_pair_k0_basis(12)
        ham = fock_ed.build_hamiltonian(make_one_pair_model(N=12), basis)
        dense = fock_ed.lowest_eigenpairs(ham, fock_ed.EDSettings(dense_threshold=10**9))
        lanczos = fock_ed.lowest_eigenpairs(ham, fock_ed.EDSettings(dense_threshold=0))
        assert dense.method == "dense"
        assert lanczos.method == "lanczos"
        assert lanczos.converged
        assert abs(dense.ground_energy - lanczos.ground_energy) <= 1e-9

    def test_deterministic_given_seed(self):
        basis = one_pair_k0_basis(10)
        ham = fock_ed.build_hamiltonian(make_one_pair_model(N=10), basis)
        lanczos = fock_ed.EDSettings(dense_threshold=0, seed=5)
        a = fock_ed.lowest_eigenpairs(ham, lanczos)
        b = fock_ed.lowest_eigenpairs(ham, lanczos)
        assert a.eigenvalues == b.eigenvalues
        assert np.array_equal(a.ground_vector, b.ground_vector)

    def test_non_convergence_flagged(self):
        basis = one_pair_k0_basis(24)
        ham = fock_ed.build_hamiltonian(make_one_pair_model(N=24), basis)
        result = fock_ed.lowest_eigenpairs(
            ham, fock_ed.EDSettings(dense_threshold=0, max_iter=3)
        )
        assert not result.converged
        assert result.residual_norm > 1e-9

    def test_eigenvalues_sorted_and_k_honored(self):
        basis = one_pair_k0_basis(8)
        ham = fock_ed.build_hamiltonian(make_one_pair_model(N=8), basis)
        result = fock_ed.lowest_eigenpairs(ham, fock_ed.EDSettings(k=4))
        assert len(result.eigenvalues) == 4
        assert list(result.eigenvalues) == sorted(result.eigenvalues)

    def test_phase_fix_largest_component_positive(self):
        basis = one_pair_k0_basis(6)
        ham = fock_ed.build_hamiltonian(make_one_pair_model(N=6), basis)
        for threshold in (0, 10**9):
            result = fock_ed.lowest_eigenpairs(
                ham, fock_ed.EDSettings(dense_threshold=threshold)
            )
            v = result.ground_vector
            assert v[int(np.argmax(np.abs(v)))] > 0.0

    def test_degenerate_ground_is_flagged_unreliable(self):
        import scipy.sparse as sp

        mat = sp.csr_matrix(np.diag([1.0, 1.0, 2.0]))
        result = fock_ed.lowest_eigenpairs(mat, fock_ed.EDSettings(k=2))
        assert result.gap <= 1e-8
        assert not result.vector_reliable

    def test_residual_is_true_matrix_residual(self):
        basis = one_pair_k0_basis(9)
        ham = fock_ed.build_hamiltonian(make_one_pair_model(N=9), basis)
        result = fock_ed.lowest_eigenpairs(ham)
        v = result.ground_vector
        res = np.linalg.norm(ham @ v - result.ground_energy * v)
        assert result.residual_norm == pytest.approx(res, abs=1e-14)


class TestObservables:
    def test_nplus_and_occupations_by_hand(self):
        basis = one_pair_k0_basis(3)
        # States: (0,3,0), (1,1,1) -> indices via lex order.
        vec = np.zeros(basis.size)
        i_all0 = basis.index[(0, 3, 0)]
        i_exc = basis.index[(1, 1, 1)]
        vec[i_all0] = math.sqrt(0.2)
        vec[i_exc] = math.sqrt(0.8)
        assert fock_ed.expect_nplus(vec, basis) == pytest.approx(0.8 * 2.0)
        assert fock_ed.expect_nplus2(vec, basis) == pytest.approx(0.8 * 4.0)
        assert fock_ed.expect_mode_occupation(
            vec, basis, Momentum((1,))
        ) == pytest.approx(0.8)
        assert fock_ed.expect_total_momentum(vec, basis) == pytest.approx((0.0,))

    def test_pairing_by_hand(self):
        modes = (Momentum((-1,)), Momentum((1,)))
        potential = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        basis, _ = fock_ed.build_bogoliubov_hamiltonian(modes, 2, potential)
        # <v, a_p a_-p v> couples (n+1, n+1) to (n, n).
        vec = np.zeros(basis.size)
        vec[basis.index[(0, 0)]] = 0.8
        vec[basis.index[(1, 1)]] = 0.6
        assert fock_ed.expect_pairing(vec, basis, Momentum((1,))) == pytest.approx(
            0.8 * 0.6 * 1.0
        )

    def test_vector_shape_mismatch(self):
        basis = one_pair_k0_basis(3)
        with pytest.raises(ValueError, match="basis mismatch"):
            fock_ed.expect_nplus(np.zeros(basis.size + 1), basis)

    def test_unknown_mode_rejected(self):
        basis = one_pair_k0_basis(3)
        with pytest.raises(ValueError, match="basis mismatch"):
            fock_ed.expect_mode_occupation(np.zeros(basis.size), basis, Momentum((9,)))

    def test_observable_dispatch_and_reliability(self):
        model = make_one_pair_model(N=4)
        basis = one_pair_k0_basis(4)
        ham = fock_ed.build_hamiltonian(model, basis)
        result = fock_ed.lowest_eigenpairs(ham)
        assert result.vector_reliable
        nplus = fock_ed.observable_expectation(result, basis, "Nplus")
        assert nplus == pytest.approx(fock_ed.expect_nplus(result.ground_vector, basis))
        assert fock_ed.observable_expectation(result, basis, "momentum") == pytest.approx((0.0,))
        occ = fock_ed.observable_expectation(result, basis, ("n_p", Momentum((1,))))
        assert occ >= 0.0
        with pytest.raises(ValueError, match="unknown observable"):
            fock_ed.observable_expectation(result, basis, "bogus")

    def test_unreliable_vector_raises_unless_allowed(self):
        import scipy.sparse as sp

        mat = sp.csr_matrix(np.diag([1.0, 1.0, 2.0]))
        result = fock_ed.lowest_eigenpairs(mat, fock_ed.EDSettings(k=2))
        modes = (Momentum((-1,)), Momentum((0,)), Momentum((1,)))
        basis = fock_ed.enumerate_basis(modes, n_particles=1)
        assert basis.size == 3
        with pytest.raises(ValueError, match="unreliable"):
            fock_ed.observable_expectation(result, basis, "Nplus")
        value = fock_ed.observable_expectation(
            result, basis, "Nplus", allow_unreliable=True
        )
        assert math.isfinite(value)


class TestExcitationMap:
    def test_maps_condensate_to_vacuum(self):
        basis_n = fock_ed.enumerate_basis(
            tuple(Momentum((n,)) for n in (-1, 0, 1)), n_particles=4
        )
        basis_exc = fock_ed.enumerate_basis(
            (Momentum((-1,)), Momentum((1,))), excitation_cutoff=4
        )
        vec = np.zeros(basis_n.size)
        vec[basis_n.index[(0, 4, 0)]] = 1.0
        out = fock_ed.excitation_map(vec, basis_n, basis_exc)
        assert out[basis_exc.index[(0, 0)]] == 1.0
        assert np.count_nonzero(out) == 1

    @given(st.integers(0, 10))
    @settings(max_examples=10, deadline=None)
    def test_unitary_on_random_states(self, seed):
        basis_n = fock_ed.enumerate_basis(
            tuple(Momentum((n,)) for n in (-1, 0, 1)), n_particles=5
        )
        basis_exc = fock_ed.enumerate_basis(
            (Momentum((-1,)), Momentum((1,))), excitation_cutoff=5
        )
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(basis_n.size)
        vec /= np.linalg.norm(vec)
        out = fock_ed.excitation_map(vec, basis_n, basis_exc)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
        # Coefficients carry over unchanged, state by state.
        zp = basis_n.zero_position
        for c, s in zip(vec, basis_n.states):
            stripped = tuple(v for i, v in enumerate(s) if i != zp)
            assert out[basis_exc.index[stripped]] == c

    def test_cutoff_too_small_rejected(self):
        basis_n = fock_ed.enumerate_basis(
            tuple(Momentum((n,)) for n in (-1, 0, 1)), n_particles=5
        )
        basis_exc = fock_ed.enumerate_basis(
            (Momentum((-1,)), Momentum((1,))), excitation_cutoff=3
        )
        vec = np.zeros(basis_n.size)
        vec[0] = 1.0
        with pytest.raises(ValueError, match="cutoff"):
            fock_ed.excitation_map(vec, basis_n, basis_exc)


class TestZeroModeAnnihilation:
    def test_matrix_elements_are_sqrt_n0(self):
        modes = tuple(Momentum((n,)) for n in (-1, 0, 1))
        b3 = fock_ed.enumerate_basis(modes, n_particles=3)
        b2 = fock_ed.enumerate_basis(modes, n_particles=2)
        a0 = fock_ed.zero_mode_annihilation(b3, b2)
        for j, s in enumerate(b3.states):
            col = a0[:, j].toarray().ravel()
            n0 = s[b3.zero_position]
            if n0 == 0:
                assert not col.any()
            else:
                target = list(s)
                target[b3.zero_position] -= 1
                i = b2.index[tuple(target)]
                assert col[i] == pytest.approx(math.sqrt(n0))
                assert np.count_nonzero(col) == 1

    def test_norm_identity_operatorwise(self):
        # ||a_0 psi||^2 = <psi, n_0 psi> = N - <N+> for any N-particle psi.
        modes = tuple(Momentum((n,)) for n in (-1, 0, 1))
        b4 = fock_ed.enumerate_basis(modes, n_particles=4)
        b3 = fock_ed.enumerate_basis(modes, n_particles=3)
        a0 = fock_ed.zero_mode_annihilation(b4, b3)
        rng = np.random.default_rng(11)
        for _ in range(5):
            psi = rng.standard_normal(b4.size)
            psi /= np.linalg.norm(psi)
            image = a0 @ psi
            expected = 4.0 - fock_ed.expect_nplus(psi, b4)
            assert float(image @ image) == pytest.approx(expected, abs=1e-12)

    def test_sector_mismatch_rejected(self):
        modes = tuple(Momentum((n,)) for n in (-1, 0, 1))
        b4 = fock_ed.enumerate_basis(modes, n_particles=4)
        b2 = fock_ed.enumerate_basis(modes, n_particles=2)
        with pytest.raises(ValueError, match="n-1"):
            fock_ed.zero_mode_annihilation(b4, b2)


class TestOperatorIdentities:
    def test_one_pair_residuals(self):
        model = make_one_pair_model(N=3, lam=0.7)
        res = fock_ed.operator_identity_residuals(model)
        assert res.residual_a < 1e-12
        assert res.residual_b < 1e-10

    def test_two_band_residuals(self):
        model = make_two_band_model(N=3)
        res = fock_ed.operator_identity_residuals(model)
        assert res.residual_a < 1e-12
        assert res.residual_b < 1e-10

    def test_zero_mode_required(self):
        spec = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        model = TorusModel(
            d=1, N=3, potential=spec, mode_cutoff=7.0, include_zero_mode=False
        )
        with pytest.raises(ValueError, match="zero mode"):
            fock_ed.operator_identity_residuals(model)

    def test_budget_guard(self):
        model = make_two_band_model(N=8)
        with pytest.raises(ResourceLimitError):
            fock_ed.operator_identity_residuals(model, max_dim=50)


class TestBindingFromED:
    def test_one_pair_goldens(self):
        model = make_one_pair_model(N=8)
        binding = fock_ed.binding_from_ed(model)
        assert binding.converged
        assert binding.k0_is_global
        assert binding.E_N == pytest.approx(GOLD_E8, abs=1e-11)
        assert binding.E_Nm1 == pytest.approx(GOLD_E7, abs=1e-11)
        assert binding.delta_E == pytest.approx(GOLD_DE8, abs=1e-11)

    def test_needs_two_particles(self):
        model = make_one_pair_model(N=1)
        with pytest.raises(ValueError, match="N >= 2"):
            fock_ed.binding_from_ed(model)

    def test_global_check_optional(self):
        model = make_one_pair_model(N=4)
        with_check = fock_ed.binding_from_ed(model, check_global=True)
        without = fock_ed.binding_from_ed(model, check_global=False)
        assert with_check.k0_is_global is True
        assert without.k0_is_global is None
        assert with_check.E_N == pytest.approx(without.E_N, abs=1e-12)


class TestVariationalSandwich:
    def test_bracket_and_norm_identities(self):
        model = make_one_pair_model(N=8)
        sw = fock_ed.variational_sandwich(fock_ed.binding_from_ed(model, check_global=False))
        assert sw.lower - 1e-9 <= sw.delta_E <= sw.upper + 1e-9
        assert sw.norm_identity_dev_N <= 1e-10
        assert sw.norm_identity_dev_Nm1 <= 1e-10
        assert sw.converged

    def test_n16_golden(self):
        model = make_one_pair_model(N=16)
        sw = fock_ed.variational_sandwich(fock_ed.binding_from_ed(model, check_global=False))
        lower, de, upper = GOLD_SW16
        assert sw.lower == pytest.approx(lower, abs=1e-9)
        assert sw.delta_E == pytest.approx(de, abs=1e-9)
        assert sw.upper == pytest.approx(upper, abs=1e-9)

    def test_reuses_precomputed_binding(self, monkeypatch):
        model = make_one_pair_model(N=6)
        binding = fock_ed.binding_from_ed(model, check_global=False)

        def no_rebuild(*args, **kwargs):
            raise AssertionError("the sandwich must reuse the binding's operators")

        monkeypatch.setattr(fock_ed, "build_hamiltonian", no_rebuild)
        sw = fock_ed.variational_sandwich(binding)
        assert sw.delta_E == binding.delta_E
