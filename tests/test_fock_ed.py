"""Exact diagonalization on truncated Fock spaces: bases, matrices, eigensolver,
observables, operator identities, variational bounds.

Dense 2x2 and brute-force references here are written directly against the
second-quantized matrix elements, independent of the assembly code.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbog import bogoliubov, checks, fock_ed
from torusbog.model import (
    Momentum,
    PotentialSpec,
    ResourceLimitError,
    TorusModel,
    build_mode_set,
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


def k0_hamiltonian(model: TorusModel):
    basis = fock_ed.enumerate_basis(
        model.mode_set(), n_particles=model.N, momentum_sector=zero_momentum(model.d)
    )
    return fock_ed.build_hamiltonian(model, basis)


def one_pair_hb(m: int):
    """The pair Hamiltonian of the one-pair model on its M = m space."""
    model = make_one_pair_model(N=8)
    return fock_ed.build_bogoliubov_hamiltonian(model.nonzero_modes(), m, model.potential)[1]


def reranked_hamiltonian(model: TorusModel, basis: fock_ed.FockBasis):
    """H assembled by copying each move's rows, editing their occupations and
    ranking every edited row again through find(): the assembly that rank
    arithmetic replaced, kept as its byte-for-byte reference."""
    modes, states, lam = basis.modes, basis.states, model.lam
    n_total = states.sum(axis=1)
    diag = lam * model.potential.w_zero * n_total * (n_total - 1) / 2.0
    for i, p in enumerate(modes):
        diag += p.norm2 * states[:, i]
    index = np.arange(basis.size)
    rows, cols, vals = [index], [index], [diag]
    pos = {p: i for i, p in enumerate(modes)}
    table = [
        (
            model.w_hat(ell),
            [pos.get(tuple(a - b for a, b in zip(p, ell)), -1) for p in modes],
            [pos.get(tuple(a + b for a, b in zip(p, ell)), -1) for p in modes],
        )
        for ell in model.potential.nonzero_momenta()
    ]
    for iq in range(len(modes)):
        for ip in range(len(modes)):
            moves = [
                (wl, minus[ip], plus[iq])
                for wl, minus, plus in table
                if minus[ip] >= 0 and plus[iq] >= 0
            ]
            if not moves:
                continue
            n_p = states[:, ip] - (ip == iq)
            sel = np.flatnonzero((states[:, iq] > 0) & (n_p > 0))
            f2 = np.sqrt(states[sel, iq]) * np.sqrt(n_p[sel])
            s1 = states[sel]
            s1[:, iq] -= 1
            s1[:, ip] -= 1
            for wl, i1, i2 in moves:
                s3 = s1.copy()
                f3 = f2 * np.sqrt(s3[:, i2] + 1)
                s3[:, i2] += 1
                f4 = f3 * np.sqrt(s3[:, i1] + 1)
                s3[:, i1] += 1
                target = basis.find(s3)
                assert (target >= 0).all()
                rows.append(target)
                cols.append(sel)
                vals.append(0.5 * lam * wl * f4)
    return fock_ed._assemble(rows, cols, vals, basis.size)


def reranked_bogoliubov_hamiltonian(modes, excitation_cutoff: int, potential: PotentialSpec):
    """HB by re-ranking every pair-moved row through find(), as reranked_hamiltonian."""
    modes = tuple(modes)
    pos = {p: i for i, p in enumerate(modes)}
    basis = fock_ed.enumerate_basis(
        modes + (zero_momentum(modes[0].d),), n_particles=excitation_cutoff
    )
    states = basis.states
    diag = np.zeros(basis.size)
    for i, p in enumerate(modes):
        diag += (p.norm2 + potential.w_hat(p)) * states[:, i]
    index = np.arange(basis.size)
    rows, cols, vals = [index], [index], [diag]
    for i, p in enumerate(modes):
        w = potential.w_hat(p)
        if w == 0.0:
            continue
        im = pos[-p]
        up = states.copy()
        up[:, im] += 1
        up[:, i] += 1
        up[:, -1] -= 2
        target = basis.find(up)
        sel = np.flatnonzero(target >= 0)
        rows.append(target[sel])
        cols.append(sel)
        vals.append(0.5 * w * np.sqrt((states[sel, i] + 1) * (states[sel, im] + 1)))
        sel = np.flatnonzero((states[:, i] >= 1) & (states[:, im] >= 1))
        down = states[sel]
        down[:, im] -= 1
        down[:, i] -= 1
        down[:, -1] += 2
        rows.append(basis.find(down))
        cols.append(sel)
        vals.append(0.5 * w * np.sqrt(states[sel, i] * states[sel, im]))
    return basis, fock_ed._assemble(rows, cols, vals, basis.size)


def assert_same_csr(mine, theirs) -> None:
    for name in ("indptr", "indices", "data"):
        a, b = getattr(mine, name), getattr(theirs, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestEnumerateBasis:
    def test_fixed_n_count_is_stars_and_bars(self):
        modes = tuple(Momentum((n,)) for n in (-1, 0, 1))
        for n in (0, 1, 2, 3, 5):
            basis = fock_ed.enumerate_basis(modes, n_particles=n)
            assert basis.size == math.comb(n + 2, 2)
            assert all(sum(s) == n for s in basis.states)

    def test_cutoff_count_is_stars_and_bars(self):
        # <= M excitations over two modes: the M sector with the zero mode added.
        modes = tuple(Momentum((n,)) for n in (-1, 1, 0))
        for m in (0, 1, 2, 4, 7):
            basis = fock_ed.enumerate_basis(modes, n_particles=m)
            assert basis.size == math.comb(m + 2, 2)
            assert (basis.excitation_counts() <= m).all()

    def test_lexicographic_state_order(self):
        modes = tuple(Momentum((n,)) for n in (-1, 0, 1))
        basis = fock_ed.enumerate_basis(modes, n_particles=2)
        rows = basis.states.tolist()
        assert rows == sorted(rows)

    def test_momentum_filter_keeps_exactly_the_sector(self):
        modes = tuple(Momentum((n,)) for n in (-1, 0, 1))
        full = fock_ed.enumerate_basis(modes, n_particles=3)
        k0 = fock_ed.enumerate_basis(
            modes, n_particles=3, momentum_sector=zero_momentum(1)
        )
        expected = [
            s for s, k in zip(full.states.tolist(), full.momenta().tolist()) if k == [0]
        ]
        assert k0.states.tolist() == expected
        assert k0.momenta().tolist() == [[0]] * k0.size

    def test_index_maps_state_to_position(self):
        basis = one_pair_k0_basis(4)
        assert basis.find(basis.states).tolist() == list(range(basis.size))

    def test_find_agrees_with_a_dict_over_the_rows(self):
        # Modes -2..2; a full sector, its K = 0 block and a <= M excitation
        # basis (the nonzero modes and the zero mode last), each asked for
        # every row of a larger set in shuffled order.
        model = make_two_band_model(N=5)
        full = fock_ed.enumerate_basis(model.mode_set(), n_particles=5)
        block = fock_ed.enumerate_basis(
            model.mode_set(), n_particles=5, momentum_sector=zero_momentum(1)
        )
        excitation_modes = model.nonzero_modes() + (zero_momentum(1),)
        below = fock_ed.enumerate_basis(excitation_modes, n_particles=4)
        wider = fock_ed.enumerate_basis(excitation_modes, n_particles=6)
        negative = [[-1, 2, 2, 1, 1], [3, -1, 0, 2, 1]]
        # The <= 6 rows with 2 fewer zero-mode quanta: those with more than 4
        # excitations go negative there.
        shifted = (wider.states - [0, 0, 0, 0, 2]).tolist()
        cases = (
            (full, full.states.tolist() + negative + [[1, 1, 1, 1, 0]]),
            (block, full.states.tolist() + negative),
            (below, shifted + [[-1, 1, 1, 1, 2], [2, -2, 1, 0, 3]]),
        )
        rng = np.random.default_rng(0)
        for basis, queries in cases:
            index = {tuple(s): i for i, s in enumerate(basis.states.tolist())}
            queries = [queries[i] for i in rng.permutation(len(queries))]
            expected = [index.get(tuple(q), -1) for q in queries]
            assert basis.find(queries).tolist() == expected
            assert sorted(set(expected)) == [-1] + list(range(basis.size))
        assert full.find([[0, 0, 4, 1, 0]])[0] >= 0
        assert block.find([[0, 0, 4, 1, 0]]).tolist() == [-1]  # K = 1
        assert below.find([[1, 1, 1, 2, -1]]).tolist() == [-1]  # 5 > M
        assert full.find([[-1, 2, 2, 1, 1]]).tolist() == [-1]
        with pytest.raises(ValueError, match="basis mismatch"):
            full.find([[1, 1, 1, 2]])

    def test_rows_must_be_sorted_sector_rows(self):
        modes = (Momentum((-1,)), Momentum((1,)))
        for rows in ([[1, 0], [0, 1]], [[0, 1], [0, 1]], [[0, 1], [1, 1]]):
            with pytest.raises(ValueError, match="lexicographic"):
                fock_ed.FockBasis(modes, np.array(rows), 1, None)

    def test_sector_too_large_to_rank_is_refused(self):
        # 25 modes: C(48 + 24, 24) fits in int64, C(49 + 24, 24) does not.
        modes = tuple(Momentum((n,)) for n in range(-12, 13))
        for n in (49, 60):
            with pytest.raises(ValueError, match=f"holds {math.comb(n + 24, 24)} states"):
                fock_ed.FockBasis(modes, np.eye(25, dtype=np.int64)[:1] * n, n, None)
        # The first and the last row of the largest sector that fits.
        rows = np.zeros((2, 25), dtype=np.int64)
        rows[0, -1] = rows[1, 0] = 48
        basis = fock_ed.FockBasis(modes, rows, 48, None)
        assert basis.find(rows[::-1]).tolist() == [1, 0]

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


# Whole N sectors on both solver paths: dense, Lanczos at dim 4,845, and
# Lanczos at dim 3,003 on the d = 2 modes with |p| <= 2*pi*sqrt(2).
FULL_SECTOR_MODELS = (
    make_one_pair_model(N=48),
    make_two_band_model(N=16),
    TorusModel(
        d=2,
        N=6,
        potential=PotentialSpec.band(d=2, radius=9.0, value=1.0),
        mode_cutoff=9.0,
    ),
)
FULL_SECTORS = pytest.mark.parametrize(
    "model", FULL_SECTOR_MODELS, ids=["one-pair-N48", "two-band-N16", "square-9-modes-N6"]
)


class TestMomentumBlocks:
    @FULL_SECTORS
    def test_blocks_partition_the_sector(self, model):
        full = fock_ed.enumerate_basis(model.mode_set(), n_particles=model.N)
        blocks = full.momentum_blocks()
        rows = np.concatenate(list(blocks.values()))
        assert sorted(rows.tolist()) == list(range(full.size))
        momenta = full.momenta()
        for k, block in blocks.items():
            assert (momenta[block] == k).all()
            assert (np.diff(block) > 0).all()
        assert list(blocks) == sorted(blocks)

    @FULL_SECTORS
    def test_least_block_minimum_matches_full_solve(self, model):
        settings = fock_ed.EDSettings(k=3)
        full = fock_ed.enumerate_basis(model.mode_set(), n_particles=model.N)
        # The reference solve pins the solver routing so it does not move
        # with the dense_threshold default.
        whole = fock_ed.lowest_eigenpairs(
            fock_ed.build_hamiltonian(model, full), replace(settings, dense_threshold=2000)
        )
        assert whole.converged
        assert whole.method == ("dense" if full.size <= 2000 else "lanczos")
        binding = fock_ed.binding_from_ed(model)
        scale = max(1.0, abs(whole.ground_energy))
        assert abs(binding.sector_minimum - whole.ground_energy) <= 1e-12 * scale
        assert binding.sector_minimum <= binding.E_N
        assert binding.k0_is_global == (
            abs(binding.sector_minimum - binding.E_N) <= 1e-10 * scale
        )
        # The merged whole-sector result at k = 3 against the full solve.
        solved = fock_ed.solve_sector(model, full, settings)
        merged = solved.merged
        assert solved.basis.size == full.size
        assert merged.converged and merged.residual_norm <= settings.tol
        assert merged.method == "dense"
        assert len(merged.eigenvalues) == len(whole.eigenvalues) == 3
        for mine, theirs in zip(merged.eigenvalues, whole.eigenvalues):
            assert abs(mine - theirs) <= 1e-12 * scale
        assert abs(merged.gap - whole.gap) <= 1e-12 * scale
        assert merged.vector_reliable and whole.vector_reliable
        for observable in (fock_ed.expect_nplus, fock_ed.expect_nplus2):
            assert abs(
                observable(merged.ground_vector, full) - observable(whole.ground_vector, full)
            ) <= 1e-12
        assert np.allclose(
            fock_ed.expect_total_momentum(merged.ground_vector, full),
            fock_ed.expect_total_momentum(whole.ground_vector, full),
            rtol=0.0,
            atol=1e-12,
        )

    @FULL_SECTORS
    @pytest.mark.parametrize(
        "k, dense_threshold", [(1, 500), (3, 500), (1, 10)], ids=["k1", "k3", "k1-threshold-10"]
    )
    def test_blocks_match_their_sparse_slices(self, model, k, dense_threshold):
        # Each block is solved from a dense array filled from the sector's
        # entries; the reference solves the same block as a sparse slice.
        # Blocks above the threshold keep the sparse route to Lanczos.
        settings = fock_ed.EDSettings(k=k, dense_threshold=dense_threshold)
        full = fock_ed.enumerate_basis(model.mode_set(), n_particles=model.N)
        solved = fock_ed.solve_sector(model, full, settings)
        ham = fock_ed.build_hamiltonian(model, full)
        scale = float(abs(ham).sum(axis=1).max())
        methods = set()
        for momentum, block in solved.rows.items():
            mine = solved.results[momentum]
            theirs = fock_ed.lowest_eigenpairs(
                ham[block][:, block], replace(settings, k=max(k, 2))
            )
            methods.add(theirs.method)
            assert (mine.method, mine.iterations) == (theirs.method, theirs.iterations)
            assert mine.eigenvalues == theirs.eigenvalues
            assert mine.gap == theirs.gap
            assert np.array_equal(mine.ground_vector, theirs.ground_vector)
            assert (mine.converged, mine.vector_reliable) == (
                theirs.converged,
                theirs.vector_reliable,
            )
            # A dense product and a sparse one round differently.
            assert abs(mine.residual_norm - theirs.residual_norm) <= 1e-14 * scale
        assert methods == ({"dense"} if dense_threshold == 500 else {"dense", "lanczos"})


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
        assert basis.states.tolist() == [[0, 2, 0], [1, 0, 1]]
        expected = np.array([[0.0, math.sqrt(2.0)], [math.sqrt(2.0), T_KIN]])
        assert np.allclose(ham, expected, atol=1e-14)
        ground = (T_KIN - math.sqrt(T_KIN * T_KIN + 8.0)) / 2.0
        result = fock_ed.lowest_eigenpairs(fock_ed.build_hamiltonian(model, basis))
        assert result.ground_energy == pytest.approx(ground, rel=1e-14)

    @pytest.mark.parametrize(
        "model, sector",
        [
            (make_one_pair_model(N=3, lam=0.7), None),
            (make_two_band_model(N=6), zero_momentum(1)),
            (
                TorusModel(
                    d=2,
                    N=4,
                    potential=PotentialSpec.from_table(
                        {
                            (1, 0): 1.0, (-1, 0): 1.0,
                            (0, 1): 0.8, (0, -1): 0.8,
                            (1, 1): 0.5, (-1, -1): 0.5,
                        }
                    ),
                    mode_cutoff=1.5 * TWO_PI,  # 9 modes, |n|_inf <= 1
                ),
                zero_momentum(2),
            ),
        ],
        ids=["one-pair-N3-full", "two-band-N6-K0", "square-N4-K0"],
    )
    def test_against_brute_force_three_modes(self, model, sector):
        # Independent reference: build H by applying the normal-ordered
        # operator sum to every basis vector with explicit ladder arithmetic.
        modes = model.mode_set()
        basis = fock_ed.enumerate_basis(
            modes, n_particles=model.N, momentum_sector=sector
        )
        index = {tuple(s): i for i, s in enumerate(basis.states.tolist())}
        dim = basis.size
        ref = np.zeros((dim, dim))
        lam = model.lam
        for j, s in enumerate(basis.states.tolist()):
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
                        i = index[tuple(state)]
                        ref[i, j] += 0.5 * lam * wl * amp
        ham = fock_ed.build_hamiltonian(model, basis)
        assert np.allclose(ham.toarray(), ref, atol=1e-13)
        # Rank arithmetic emits the same entries in the same order as
        # re-ranking every moved row.
        assert_same_csr(ham, reranked_hamiltonian(model, basis))

    def test_hermiticity_random_vectors(self, two_band_model):
        basis = fock_ed.enumerate_basis(
            two_band_model.mode_set(), n_particles=4, momentum_sector=zero_momentum(1)
        )
        ham = fock_ed.build_hamiltonian(two_band_model, basis)
        asymmetry, _ = checks.random_vector_bounds(
            two_band_model, basis, ham, seed=3, samples=10
        )
        assert asymmetry <= 1e-10

    def test_momentum_block_diagonal(self, two_band_model):
        basis = fock_ed.enumerate_basis(two_band_model.mode_set(), n_particles=3)
        ham = fock_ed.build_hamiltonian(two_band_model, basis)
        assert checks.off_block_entries(ham, basis.momentum_blocks()) == 0

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
        # The pair-Hamiltonian basis puts the zero mode last, not in mode-set order.
        pair_basis, _ = fock_ed.build_bogoliubov_hamiltonian(
            one_pair_model.nonzero_modes(), 2, one_pair_model.potential
        )
        with pytest.raises(ValueError, match="mode set"):
            fock_ed.build_hamiltonian(one_pair_model, pair_basis)
        other = fock_ed.enumerate_basis(
            tuple(Momentum((n,)) for n in (-2, -1, 0, 1, 2)), n_particles=8
        )
        with pytest.raises(ValueError, match="mode set"):
            fock_ed.build_hamiltonian(one_pair_model, other)


# Mode sets of the shifted() property test: five modes on a line and the
# nine square-lattice modes with |n|_inf <= 1.
SHIFT_MODE_SETS = (
    tuple(Momentum((n,)) for n in range(-2, 3)),
    build_mode_set(2, 1.5 * TWO_PI),
)


class TestRankArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_shifted_matches_find_of_the_moved_rows(self, data):
        # A whole sector or a K != 0 block, any rows of it (repeats too) and
        # any particle-conserving change: the results include rows that go
        # negative and rows that leave a filtered block, both -1.
        modes = data.draw(st.sampled_from(SHIFT_MODE_SETS))
        n = data.draw(st.integers(1, 6 if len(modes) < 9 else 4))
        sector = data.draw(st.sampled_from([None] + [p for p in modes if not p.is_zero]))
        basis = fock_ed.enumerate_basis(modes, n_particles=n, momentum_sector=sector)
        rows = np.array(
            data.draw(st.lists(st.integers(0, basis.size - 1), max_size=40)), dtype=np.int64
        )
        delta = np.array(
            data.draw(st.lists(st.integers(-2, 2), min_size=len(modes), max_size=len(modes)))
        )
        delta[data.draw(st.integers(0, len(modes) - 1))] -= delta.sum()
        expected = basis.find(basis.states[rows] + delta)
        assert basis.shifted(rows, delta).tolist() == expected.tolist()

    def test_shifted_edge_cases(self):
        model = make_two_band_model(N=4)
        full = fock_ed.enumerate_basis(model.mode_set(), n_particles=4)
        block = fock_ed.enumerate_basis(
            model.mode_set(), n_particles=4, momentum_sector=zero_momentum(1)
        )
        # Modes -2..2; (0, 1, 2, 1, 0) has K = 0.
        at = block.find([[0, 1, 2, 1, 0]])
        assert block.shifted(at, [0, 0, 1, -1, 0]).tolist() == [-1]  # K = -1
        assert full.shifted(full.find([[0, 1, 2, 1, 0]]), [0, 0, 1, -1, 0]).tolist() == (
            full.find([[0, 1, 3, 0, 0]]).tolist()
        )
        assert block.shifted(at, [1, -2, 0, 0, 1]).tolist() == [-1]  # n_-1 < 0
        assert block.shifted(at, [0, 0, 0, 0, 0]).tolist() == at.tolist()
        # Another particle number lies outside the sector.
        assert full.shifted(np.arange(3), [0, 0, 1, 0, 0]).tolist() == [-1] * 3
        assert full.shifted([], [0, 1, -1, 0, 0]).tolist() == []
        with pytest.raises(ValueError, match="basis mismatch"):
            full.shifted([0], [0, 1, -1, 0])
        for rows in ([-1], [full.size]):
            with pytest.raises(IndexError, match="positions"):
                full.shifted(rows, [0, 1, -1, 0, 0])

    def test_pair_hamiltonian_matches_reranked_rows(self):
        # The nine square modes with |n|^2 <= 2 at M = 6, the pair
        # Hamiltonian of the square-pair-M6 job.
        model = FULL_SECTOR_MODELS[2]
        basis, ham = fock_ed.build_bogoliubov_hamiltonian(
            model.nonzero_modes(), 6, model.potential
        )
        reference_basis, reference = reranked_bogoliubov_hamiltonian(
            model.nonzero_modes(), 6, model.potential
        )
        assert len(basis.modes) == 9 and basis.size == 3003
        assert np.array_equal(basis.states, reference_basis.states)
        assert_same_csr(ham, reference)

    def test_assembly_and_pairing_never_rerank_rows(self, monkeypatch):
        def refuse(self, occupations):
            raise AssertionError("FockBasis.find called")

        monkeypatch.setattr(fock_ed.FockBasis, "find", refuse)
        model = make_two_band_model(N=6)
        basis = fock_ed.enumerate_basis(
            model.mode_set(), n_particles=6, momentum_sector=zero_momentum(1)
        )
        ground = fock_ed.lowest_eigenpairs(fock_ed.build_hamiltonian(model, basis))
        p = Momentum((1,))
        assert abs(fock_ed.expect_pairing(ground.ground_vector, basis, p)) > 0.0
        pair_basis, hb = fock_ed.build_bogoliubov_hamiltonian(
            model.nonzero_modes(), 4, model.potential
        )
        pair_ground = fock_ed.lowest_eigenpairs(hb)
        assert abs(fock_ed.expect_pairing(pair_ground.ground_vector, pair_basis, p)) > 0.0


class TestPairHamiltonian:
    def test_basis_dimension(self):
        modes = (Momentum((-1,)), Momentum((1,)))
        potential = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        for m in (2, 4, 8):
            basis, ham = fock_ed.build_bogoliubov_hamiltonian(modes, m, potential)
            assert basis.size == math.comb(m + 2, 2)
            assert ham.shape == (basis.size, basis.size)

    def test_zero_mode_is_the_last_slot(self, two_band_model):
        # Rows (n_-2, n_-1, n_1, n_2, n_0): the <= M rows over the nonzero
        # modes in lexicographic order, the zero mode holding M - N+.
        modes = two_band_model.nonzero_modes()
        for m in (0, 1, 5):
            basis, _ = fock_ed.build_bogoliubov_hamiltonian(modes, m, two_band_model.potential)
            assert basis.modes == modes + (zero_momentum(1),)
            assert basis.n_particles == m
            assert basis.states[:, -1].tolist() == (m - basis.excitation_counts()).tolist()
            excitations = basis.states[:, :-1].tolist()
            assert excitations == sorted(excitations)
            assert basis.size == math.comb(m + len(modes), m)

    def test_matrix_against_closed_form(self):
        # Two modes +-p and the zero mode: diagonal (|p|^2 + w)(n_+ + n_-),
        # off-diagonal w * sqrt((n_+ + 1)(n_- + 1)) on the pair-creation step
        # (summed over both p and -p, i.e. coefficient w, not w/2), which takes
        # two zero-mode quanta with factor 1.
        modes = (Momentum((-1,)), Momentum((1,)))
        potential = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        basis, ham = fock_ed.build_bogoliubov_hamiltonian(modes, 4, potential)
        dense = ham.toarray()
        p2 = Momentum((1,)).norm2
        index = {tuple(s): i for i, s in enumerate(basis.states.tolist())}
        for j, s in enumerate(basis.states.tolist()):
            assert dense[j, j] == pytest.approx((p2 + 1.0) * (s[0] + s[1]), rel=1e-15)
            up = (s[0] + 1, s[1] + 1, s[2] - 2)
            assert (up in index) == (s[2] >= 2)
            if up in index:
                i = index[up]
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
            modes,
            potential,
            fock_ed.HBSettings(start_cutoff=2, max_cutoff=4, cutoff_delta=1e-14),
        )
        assert not hb.converged
        assert hb.cutoff_used == 4
        assert math.isfinite(hb.delta_achieved)

    def test_settings_range_checked(self):
        with pytest.raises(ValueError, match="max_cutoff"):
            fock_ed.HBSettings(start_cutoff=8, max_cutoff=6)
        with pytest.raises(ValueError, match="start_cutoff"):
            fock_ed.HBSettings(start_cutoff=-1)
        for delta in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="cutoff_delta"):
                fock_ed.HBSettings(cutoff_delta=delta)


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

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[-0.75]]),
            np.array([[1.0, 0.5], [0.5, -2.0]]),
            np.diag([1.0, 1.0, 2.0]),
            fock_ed.build_hamiltonian(make_one_pair_model(N=12), one_pair_k0_basis(12)),
            fock_ed.build_hamiltonian(
                make_two_band_model(N=8),
                fock_ed.enumerate_basis(
                    make_two_band_model(N=8).mode_set(),
                    n_particles=8,
                    momentum_sector=zero_momentum(1),
                ),
            ),
        ],
        ids=["dim1", "dim2", "degenerate", "one-pair-N12-K0", "two-band-N8-K0"],
    )
    def test_dense_path_matches_full_spectrum(self, matrix, k):
        import scipy.sparse as sp

        op = sp.csr_matrix(matrix)
        dense = op.toarray()
        result = fock_ed.lowest_eigenpairs(op, fock_ed.EDSettings(k=k))
        assert result.method == "dense"
        # Oracle: every eigenpair from a different LAPACK driver.
        full, vecs = np.linalg.eigh(dense)
        assert len(result.eigenvalues) == min(k, len(full))
        for got, want in zip(result.eigenvalues, full):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        if len(full) == 1:
            assert result.gap == math.inf
        else:
            # Two drivers agree on the gap to the eigenvalue tolerance.
            assert abs(result.gap - (full[1] - full[0])) <= 1e-12 * max(
                1.0, abs(full[1])
            )
        expect_reliable = len(full) == 1 or full[1] - full[0] > fock_ed.DEGENERACY_GAP
        assert result.vector_reliable == expect_reliable
        if expect_reliable:
            want = fock_ed._phase_fixed(vecs[:, 0])
            assert np.linalg.norm(result.ground_vector - want) <= 1e-12

    def test_dense_path_never_solves_the_full_spectrum(self, monkeypatch):
        import scipy.linalg.lapack

        real_syevr = scipy.linalg.lapack.dsyevr
        calls = []

        def recording(a, **kwargs):
            calls.append((kwargs["range"], kwargs["il"], kwargs["iu"]))
            return real_syevr(a, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", recording)
        ham = fock_ed.build_hamiltonian(make_one_pair_model(N=10), one_pair_k0_basis(10))
        for op in (ham, ham.toarray()):
            for k in (1, 3):
                fock_ed.lowest_eigenpairs(op, fock_ed.EDSettings(k=k))
        # k_int = max(k, 2) lowest pairs by index, on either kind of operator.
        assert calls == [("I", 1, 2), ("I", 1, 3)] * 2

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: k0_hamiltonian(make_one_pair_model(N=12)),
            lambda: k0_hamiltonian(make_two_band_model(N=16)),
            lambda: one_pair_hb(12),
        ],
        ids=["one-pair-N12-K0", "two-band-N16-K0", "pair-M12"],
    )
    def test_dense_array_matches_sparse_operator(self, build, k):
        ham = build()
        # Fortran order, which LAPACK could overwrite without a copy.
        array = np.asfortranarray(ham.toarray())
        settings = fock_ed.EDSettings(k=k)
        sparse = fock_ed.lowest_eigenpairs(ham, settings)
        dense = fock_ed.lowest_eigenpairs(array, settings)
        assert sparse.method == dense.method == "dense"
        assert dense.eigenvalues == sparse.eigenvalues
        assert dense.gap == sparse.gap
        assert np.array_equal(dense.ground_vector, sparse.ground_vector)
        # The caller's array is only read.
        assert np.array_equal(array, ham.toarray())

    def test_lapack_failure_raises(self, monkeypatch):
        import scipy.linalg.lapack

        real_syevr = scipy.linalg.lapack.dsyevr

        def failing(a, **kwargs):
            *out, _ = real_syevr(a, **kwargs)
            return (*out, 1)

        monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", failing)
        ham = k0_hamiltonian(make_one_pair_model(N=8))
        for op in (ham, ham.toarray()):
            with pytest.raises(np.linalg.LinAlgError, match="info = 1"):
                fock_ed.lowest_eigenpairs(op)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_tridiagonal_pairs_match_scipy(self, k):
        # The Lanczos convergence check calls dstebz and dstein directly;
        # eigh_tridiagonal(select="i") is the reference, bit for bit.
        rng = np.random.default_rng(k)
        for n in (max(k, 2), k + 2, 40, 84):
            alphas = rng.standard_normal(n).tolist()
            betas = np.abs(rng.standard_normal(n - 1)).tolist()
            _, reference = scipy.linalg.eigh_tridiagonal(
                alphas, betas, select="i", select_range=(0, k - 1)
            )
            mine = fock_ed._lowest_tridiagonal_vectors(alphas, betas, k)
            assert mine.shape == reference.shape == (n, k)
            assert mine.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("routine", ["dstebz", "dstein"])
    def test_tridiagonal_failure_raises(self, monkeypatch, routine):
        import scipy.linalg.lapack

        real = getattr(scipy.linalg.lapack, routine)

        def failing(*args):
            *out, _ = real(*args)
            return (*out, 1)

        monkeypatch.setattr(scipy.linalg.lapack, routine, failing)
        ham = k0_hamiltonian(make_one_pair_model(N=16))
        with pytest.raises(np.linalg.LinAlgError, match=f"{routine} failed, info = 1"):
            fock_ed.lowest_eigenpairs(ham, fock_ed.EDSettings(dense_threshold=0))

    @pytest.mark.parametrize(
        "build, dim",
        [
            (lambda: k0_hamiltonian(make_two_band_model(N=34)), 1353),
            (lambda: one_pair_hb(48), 1225),
            (lambda: k0_hamiltonian(replace(FULL_SECTOR_MODELS[2], N=10)), 538),
        ],
        ids=["two-band-N34-K0", "pair-M48", "square-N10-K0"],
    )
    def test_default_lanczos_matches_dense(self, build, dim):
        # Above the default dense_threshold a ground-plus-gap solve runs
        # Lanczos; it must match a forced dense solve to the rounding of
        # either solver, about eps * ||H||.
        ham = build()
        fast = fock_ed.lowest_eigenpairs(ham)
        slow = fock_ed.lowest_eigenpairs(ham, fock_ed.EDSettings(dense_threshold=10**9))
        assert ham.shape[0] == dim
        assert fast.method == "lanczos" and slow.method == "dense"
        assert fast.converged
        bound = 1e-15 * float(abs(ham).sum(axis=1).max())
        assert abs(fast.ground_energy - slow.ground_energy) <= bound
        assert abs(fast.gap - slow.gap) <= bound

    def test_degenerate_levels_kept_at_default_settings(self):
        # One pair, M = 48 (1,225 states): the second level is doubly
        # degenerate. Lanczos from one start vector would report it once, so
        # a k >= 3 request of this size stays dense.
        ham = one_pair_hb(48)
        result = fock_ed.lowest_eigenpairs(ham, fock_ed.EDSettings(k=4))
        dense = fock_ed.lowest_eigenpairs(ham, fock_ed.EDSettings(k=4, dense_threshold=10**9))
        assert result.method == "dense"
        assert result.eigenvalues == dense.eigenvalues
        assert abs(result.eigenvalues[1] - result.eigenvalues[2]) <= 1e-9


class TestObservables:
    def test_nplus_and_occupations_by_hand(self):
        basis = one_pair_k0_basis(3)
        # States: (0,3,0), (1,1,1) -> indices via lex order.
        vec = np.zeros(basis.size)
        i_all0, i_exc = basis.find([(0, 3, 0), (1, 1, 1)])
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
        # <v, a_p a_-p v> couples (n+1, n+1, n_0 - 2) to (n, n, n_0).
        vec = np.zeros(basis.size)
        vec[basis.find([(0, 0, 2), (1, 1, 0)])] = [0.8, 0.6]
        assert fock_ed.expect_pairing(vec, basis, Momentum((1,))) == pytest.approx(
            0.8 * 0.6 * 1.0
        )
        no_zero = fock_ed.enumerate_basis(modes, n_particles=2)
        with pytest.raises(ValueError, match="zero mode"):
            fock_ed.expect_pairing(np.ones(no_zero.size), no_zero, Momentum((1,)))

    @pytest.mark.parametrize("n", [8, 16, 48])
    def test_pairing_on_the_particle_sector(self, n):
        # The K = 0 ground of the N sector approaches the quasi-free pairing
        # m_p at rate 1/N.
        model = make_one_pair_model(N=n)
        basis = one_pair_k0_basis(n)
        ground = fock_ed.lowest_eigenpairs(fock_ed.build_hamiltonian(model, basis))
        p = Momentum((1,))
        m_p = bogoliubov.mode_quantities(p, model.w_hat(p)).m_p
        pairing = fock_ed.expect_pairing(ground.ground_vector, basis, p)
        assert abs(pairing - m_p) <= 0.01 / n

    def test_vector_shape_mismatch(self):
        basis = one_pair_k0_basis(3)
        with pytest.raises(ValueError, match="basis mismatch"):
            fock_ed.expect_nplus(np.zeros(basis.size + 1), basis)

    def test_unknown_mode_rejected(self):
        basis = one_pair_k0_basis(3)
        with pytest.raises(ValueError, match="basis mismatch"):
            fock_ed.expect_mode_occupation(np.zeros(basis.size), basis, Momentum((9,)))


class TestZeroModeAnnihilation:
    def test_matrix_elements_are_sqrt_n0(self):
        modes = tuple(Momentum((n,)) for n in (-1, 0, 1))
        b3 = fock_ed.enumerate_basis(modes, n_particles=3)
        b2 = fock_ed.enumerate_basis(modes, n_particles=2)
        a0 = fock_ed.zero_mode_annihilation(b3, b2)
        index = {tuple(s): i for i, s in enumerate(b2.states.tolist())}
        for j, s in enumerate(b3.states.tolist()):
            col = a0[:, j].toarray().ravel()
            n0 = s[b3.zero_position]
            if n0 == 0:
                assert not col.any()
            else:
                target = list(s)
                target[b3.zero_position] -= 1
                i = index[tuple(target)]
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

    def test_given_n_sector_operator_is_used_as_built(self, monkeypatch):
        model = make_two_band_model(N=3)
        fresh = fock_ed.operator_identity_residuals(model)
        full = fock_ed.enumerate_basis(model.mode_set(), n_particles=3)
        ham = fock_ed.build_hamiltonian(model, full)
        build = fock_ed.build_hamiltonian
        built = []

        def counting(model, basis):
            built.append(basis.n_particles)
            return build(model, basis)

        monkeypatch.setattr(fock_ed, "build_hamiltonian", counting)
        assert fock_ed.operator_identity_residuals(model, ham_n=ham) == fresh
        assert sorted(built) == [2, 4]


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

    def test_k0_not_global_is_reported(self):
        # Modes +-1, +-2 and only w_hat(+-2) = 1: at N = 4 the K = 0 block
        # does not hold the sector minimum, so the binding is not converged.
        model = TorusModel(
            d=1,
            N=4,
            potential=PotentialSpec.from_table({(2,): 1.0, (-2,): 1.0}),
            mode_cutoff=2.5 * TWO_PI,
            include_zero_mode=False,
        )
        binding = fock_ed.binding_from_ed(model)
        assert binding.k0_is_global is False
        assert binding.converged is False

    def test_unconverged_global_block_fails_the_binding(self, monkeypatch):
        # The first block solved, K = -8 of the whole N = 8 sector, holds one
        # state and not the ground: the K = 0 ground still attains the sector
        # minimum, but the global check did not converge.
        solve = fock_ed.lowest_eigenpairs
        calls = []

        def failing_first(op, *args, **kwargs):
            result = solve(op, *args, **kwargs)
            calls.append(op.shape[0])
            return replace(result, converged=False) if len(calls) == 1 else result

        monkeypatch.setattr(fock_ed, "lowest_eigenpairs", failing_first)
        binding = fock_ed.binding_from_ed(make_one_pair_model(N=8))
        assert calls[0] == 1
        assert binding.k0_is_global is True
        assert binding.result_N.converged and binding.result_Nm1.converged
        assert binding.converged is False

    @pytest.mark.parametrize("check_global", [True, False])
    def test_empty_k0_sector_is_named(self, check_global):
        # Modes +-1 and no zero mode: an odd particle count has no K = 0 state.
        model = TorusModel(
            d=1,
            N=3,
            potential=PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0}),
            mode_cutoff=7.0,
            include_zero_mode=False,
        )
        with pytest.raises(ValueError, match="K = 0 sector of 3 particles holds no state"):
            fock_ed.binding_from_ed(model, check_global=check_global)

    @FULL_SECTORS
    @pytest.mark.parametrize("check_global", [True, False])
    @pytest.mark.parametrize("dense_threshold", [500, 10], ids=["dense", "lanczos"])
    def test_matches_standalone_k0_solves(self, model, check_global, dense_threshold):
        # The oracle enumerates, assembles and solves each K = 0 sector on
        # its own; binding_from_ed takes the same block from solve_sector.
        # A threshold of 10 sends every K = 0 block to Lanczos.
        settings = fock_ed.EDSettings(dense_threshold=dense_threshold)
        k0 = zero_momentum(model.d)
        bases, hams, results = {}, {}, {}
        for n in (model.N, model.N - 1):
            bases[n] = fock_ed.enumerate_basis(model.mode_set(), n, momentum_sector=k0)
            hams[n] = fock_ed.build_hamiltonian(model, bases[n])
            results[n] = fock_ed.lowest_eigenpairs(hams[n], settings)
        binding = fock_ed.binding_from_ed(model, settings, check_global)
        assert binding.E_N == results[model.N].ground_energy
        assert binding.E_Nm1 == results[model.N - 1].ground_energy
        mine = {
            model.N: (binding.result_N, binding.basis_N, binding.ham_N),
            model.N - 1: (binding.result_Nm1, binding.basis_Nm1, binding.ham_Nm1),
        }
        for n, (result, basis, ham) in mine.items():
            assert np.array_equal(result.ground_vector, results[n].ground_vector)
            assert np.array_equal(basis.states, bases[n].states)
            assert basis.momentum_sector == k0
            assert np.array_equal(ham.toarray(), hams[n].toarray())
            # The block's residual is measured on a dense array, the oracle's
            # on the sparse operator; the two products round differently.
            scale = float(abs(hams[n]).sum(axis=1).max())
            assert abs(result.residual_norm - results[n].residual_norm) <= 1e-14 * scale
        oracle = fock_ed.BindingResult(
            E_N=results[model.N].ground_energy,
            E_Nm1=results[model.N - 1].ground_energy,
            delta_E=results[model.N].ground_energy - results[model.N - 1].ground_energy,
            result_N=results[model.N],
            result_Nm1=results[model.N - 1],
            basis_N=bases[model.N],
            basis_Nm1=bases[model.N - 1],
            ham_N=hams[model.N],
            ham_Nm1=hams[model.N - 1],
            sector_minimum=None,
            k0_is_global=None,
            converged=True,
        )
        ours, theirs = fock_ed.variational_sandwich(binding), fock_ed.variational_sandwich(oracle)
        assert (ours.lower, ours.upper) == (theirs.lower, theirs.upper)


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
