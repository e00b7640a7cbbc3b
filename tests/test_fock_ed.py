"""Exact diagonalization on truncated Fock spaces: bases, matrices, eigensolver,
observables, operator identities, variational bounds.

Dense 2x2 and brute-force references here are written directly against the
second-quantized matrix elements, independent of the assembly code.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
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


def free_two_band_model(n: int) -> TorusModel:
    """The two-band mode set with w_hat = 0: H is the kinetic diagonal, and
    its ground is the condensate, at energy 0."""
    table = {(1,): 0.0, (-1,): 0.0, (2,): 0.0, (-2,): 0.0}
    return TorusModel(
        d=1, N=n, potential=PotentialSpec.from_table(table), mode_cutoff=2.0 * TWO_PI + 0.1
    )


def one_pair_hb(m: int):
    """The pair Hamiltonian of the one-pair model on its M = m space."""
    model = make_one_pair_model(N=8)
    return fock_ed.build_bogoliubov_hamiltonian(model.nonzero_modes(), m, model.potential)[1]


def filtered_rows(modes, n: int, sector: Momentum) -> np.ndarray:
    """The momentum block by enumerating the whole n sector and filtering it:
    the reference of the direct block enumeration."""
    rows = np.zeros((1, 0), dtype=np.int64)
    remaining = np.array([n], dtype=np.int64)
    for _ in range(len(modes) - 1):
        counts = remaining + 1
        parent = np.repeat(np.arange(len(rows)), counts)
        value = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([rows[parent], value])
        remaining = remaining[parent] - value
    rows = np.column_stack([rows, remaining])
    momenta = rows @ np.array(modes, dtype=np.int64)
    return rows[(momenta == np.array(sector)).all(axis=1)]


def ordered_assemble(rows, cols, vals, size: int):
    """CSR matrix from blocks of entries that may repeat a (row, column): a
    stable sort by column puts the entries in the order a loop over states,
    then terms, emits them, so repeats are summed left to right in term
    order."""
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    order = np.argsort(cols, kind="stable")
    mat = scipy.sparse.coo_matrix(
        (vals[order], (rows[order], cols[order])), shape=(size, size)
    )
    return mat.tocsr()


def reranked_hamiltonian(model: TorusModel, basis: fock_ed.FockBasis):
    """H assembled one term at a time by copying the term's rows, editing
    their occupations and ranking every edited row again through find(),
    its repeated entries summed by ordered_assemble: the byte-for-byte
    reference of the assembly by occupation change."""
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
    return ordered_assemble(rows, cols, vals, basis.size)


def by_change_hamiltonian(model: TorusModel, basis: fock_ed.FockBasis):
    """H assembled one occupation change of model.transfers at a time: the
    rows that hold the change's lowered modes, the change's terms summed on
    them in table order, and the moved rows of the nonzero sums located by
    one FockBasis.shifted call. The byte-for-byte reference of
    build_hamiltonian, which evaluates every term on every row at once."""
    states = basis.states
    n_total = states.sum(axis=1)
    diag = model.lam * model.potential.w_zero * n_total * (n_total - 1) / 2.0
    for i, p in enumerate(basis.modes):
        diag += p.norm2 * states[:, i]
    index = np.arange(basis.size)
    rows, cols, vals = [index], [index], [diag]
    holders = [np.flatnonzero(column) for column in states.T]
    for change, terms in model.transfers:
        down = [(i, -amount) for i, amount in change if amount < 0]
        moving = len(down) > 0
        sel = holders[down[0][0]] if moving else index
        for i, taken in down:
            sel = sel[states[sel, i] >= taken]
        # The exchange terms sum onto the diagonal in place.
        total = np.zeros(len(sel)) if moving else diag
        for wl, iq, ip, i1, i2 in terms:
            f = np.sqrt(states[sel, iq])
            f = f * np.sqrt(np.maximum(states[sel, ip] - (ip == iq), 0))
            f = f * np.sqrt(np.maximum(states[sel, i2] + (1 - (i2 == iq) - (i2 == ip)), 0))
            f = f * np.sqrt(
                np.maximum(states[sel, i1] + (1 - (i1 == iq) - (i1 == ip) + (i1 == i2)), 0)
            )
            total += 0.5 * model.lam * wl * f
        if moving:
            kept = np.flatnonzero(total)
            delta = np.zeros(len(basis.modes), dtype=np.int64)
            for i, amount in change:
                delta[i] = amount
            target = basis.shifted(sel[kept], delta)
            assert (target >= 0).all()
            rows.append(target)
            cols.append(sel[kept])
            vals.append(total[kept])
    return fock_ed._assemble(rows, cols, vals, (basis.size, basis.size))


def reranked_bogoliubov_hamiltonian(modes, excitation_cutoff: int, potential: PotentialSpec):
    """HB by re-ranking every pair-moved row through find(), each pair {p, -p}
    visited from both of its modes at w_hat/2, as reranked_hamiltonian."""
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
    return basis, ordered_assemble(rows, cols, vals, basis.size)


def assert_same_csr(mine, theirs) -> None:
    for name in ("indptr", "indices", "data"):
        a, b = getattr(mine, name), getattr(theirs, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_mirrors(ham, reference, model: TorusModel, basis: fock_ed.FockBasis) -> None:
    """ham is exactly symmetric, and is reference, which evaluates every
    occupation change, with the entries of half the changes mirrored: of each
    adjoint pair {c, -c} of moving changes, build_hamiltonian evaluates the
    one model.transfers lists first, and its entries must keep reference's
    bytes. Every entry lies within 4 ulp of max |H_ij| of reference's."""
    kept, evaluated = set(), set()
    for change, _ in model.transfers:
        if change and tuple((i, -amount) for i, amount in change) not in kept:
            kept.add(change)
            delta = np.zeros(len(basis.modes), dtype=np.int64)
            delta[[i for i, _ in change]] = [amount for _, amount in change]
            evaluated.add(delta.tobytes())
    entries = reference.tocoo()
    moved = basis.states[entries.row] - basis.states[entries.col]
    own = np.array(
        [r == c or m.tobytes() in evaluated for r, c, m in zip(entries.row, entries.col, moved)],
        dtype=bool,
    )
    mirrored = np.asarray(reference[entries.col, entries.row]).ravel()
    expected = scipy.sparse.csr_matrix(
        (np.where(own, entries.data, mirrored), reference.indices, reference.indptr),
        shape=reference.shape,
    )
    assert_same_csr(ham, expected)
    assert (ham != ham.T).nnz == 0
    assert abs(ham - reference).max() <= 4 * np.spacing(abs(ham).max())


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

    def test_sector_dimension_mismatch_refused_before_materialization(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sector rows built")

        monkeypatch.setattr(fock_ed, "_sector_rows", refuse)
        modes = tuple(Momentum((n,)) for n in (-1, 0, 1))
        with pytest.raises(ValueError, match="momentum sector dimension mismatch"):
            fock_ed.enumerate_basis(modes, n_particles=3, momentum_sector=zero_momentum(2))

    def test_budget_guard_fires_before_materialization(self):
        modes = tuple(Momentum((n,)) for n in range(-6, 7))
        with pytest.raises(ResourceLimitError):
            fock_ed.enumerate_basis(modes, n_particles=40, max_states=10_000)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_block_matches_the_filtered_sector(self, data):
        # Mode sets in d = 1 and d = 2, in any order and with gaps, and any
        # target momentum, reachable or not: the block built directly is the
        # filtered whole sector, row for row.
        d = data.draw(st.sampled_from([1, 2]))
        box = [Momentum(p) for p in itertools.product(range(-3, 4), repeat=d)]
        modes = tuple(
            data.draw(st.lists(st.sampled_from(box), min_size=1, max_size=6, unique=True))
        )
        n = data.draw(st.integers(0, 8 if d == 1 else 5))
        reach = 3 * n + 1
        sector = Momentum(data.draw(st.lists(st.integers(-reach, reach), min_size=d, max_size=d)))
        expected = filtered_rows(modes, n, sector)
        basis = fock_ed.enumerate_basis(modes, n_particles=n, momentum_sector=sector)
        assert basis.states.shape == (len(expected), len(modes))
        assert np.array_equal(basis.states, expected)

    def test_block_with_gaps_and_unreachable_momenta(self):
        modes = tuple(Momentum((n,)) for n in (-3, -1, 0, 1, 3))
        for sector in range(-16, 17):
            k = Momentum((sector,))
            basis = fock_ed.enumerate_basis(modes, n_particles=5, momentum_sector=k)
            assert np.array_equal(basis.states, filtered_rows(modes, 5, k))
            # 14 lies inside the bounds 5 * (-3) .. 5 * 3 but no five of the
            # modes sum to it; 16 lies outside them.
            assert (basis.size == 0) == (abs(sector) in (14, 16))

    def test_block_budget_bounds_the_rows_built(self):
        # The d = 2, 9-mode K = 0 block at N = 16 holds 4,283 states, of an
        # unfiltered sector of 735,471. Each step builds only the
        # occupations that can still reach K = 0, and the largest step, at
        # mode 6, builds as many candidates as the block holds: a budget of
        # 4,283 admits it, and one of 4,282 is refused at that step's
        # candidate count, before the step allocates, so the peak stays
        # below what the budget's rows take.
        modes = build_mode_set(2, 1.5 * TWO_PI)
        k0 = zero_momentum(2)
        admitted = fock_ed.enumerate_basis(
            modes, n_particles=16, momentum_sector=k0, max_states=4283
        )
        assert admitted.size == 4283
        tracemalloc.start()
        try:
            with pytest.raises(
                ResourceLimitError, match="builds 4283 candidate rows at mode 6, budget is 4282"
            ):
                fock_ed.enumerate_basis(
                    modes, n_particles=16, momentum_sector=k0, max_states=4282
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4282 * len(modes) * 8

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_sector_rows_match_a_brute_force_filter(self, data):
        # Mode sets in d = 1, 2 and 3, in any order and with gaps, N from 0,
        # and a target reachable or not, or the whole sector as the block
        # over no coordinates: the rows are those of the whole sector, made
        # by itertools, whose momentum is the target, in lexicographic order.
        d = data.draw(st.sampled_from([1, 2, 3]))
        box = list(itertools.product(range(-2, 3), repeat=d))
        modes = data.draw(st.lists(st.sampled_from(box), min_size=1, max_size=6, unique=True))
        n = data.draw(st.integers(0, {1: 8, 2: 6, 3: 4}[d]))
        reach = 2 * n + 2
        target = data.draw(
            st.one_of(st.just([]), st.lists(st.integers(-reach, reach), min_size=d, max_size=d))
        )
        expected = []
        for chosen in itertools.combinations_with_replacement(range(len(modes)), n):
            momentum = [sum(modes[i][c] for i in chosen) for c in range(len(target))]
            if momentum == target:
                expected.append([chosen.count(i) for i in range(len(modes))])
        expected.sort()
        rows = fock_ed._sector_rows(
            np.array(modes, dtype=np.int64)[:, : len(target)],
            n,
            np.array(target, dtype=np.int64),
            math.comb(n + len(modes) - 1, n),
        )
        assert rows.shape == (len(expected), len(modes))
        assert rows.tolist() == expected

    def test_excitation_counts(self):
        basis = one_pair_k0_basis(3)
        counts = basis.excitation_counts()
        for c, s in zip(counts, basis.states):
            assert c == sum(s) - s[basis.zero_position]

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            fock_ed.enumerate_basis((Momentum((1,)), Momentum((1,))), n_particles=1)


# Whole N sectors on both solver paths: dense, Davidson at dim 4,845, and
# Davidson at dim 3,003 on the d = 2 modes with |p| <= 2*pi*sqrt(2).
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
def all_blocks_merged(basis: fock_ed.FockBasis, ham, ed: fock_ed.EDSettings):
    """The max(k, 2) lowest eigenvalues, gap, ground block and its result
    that solving K = 0 and one block of each pair {K, -K} of an assembled
    space gives, each block gathered by ham[rows][:, rows] and none skipped
    by a bound: the oracle of the block loop."""
    rows = basis.momentum_blocks()
    results, levels = {}, []
    for p in rows:
        if p >= -p:
            results[p] = fock_ed.lowest_eigenpairs(ham[rows[p]][:, rows[p]], ed)
            levels += list(results[p].eigenvalues) * (1 if p.is_zero else 2)
    levels.sort()
    ground_at = min(results, key=lambda p: (results[p].ground_energy, p))
    gap = levels[1] - levels[0] if len(levels) > 1 else math.inf
    return tuple(levels[: max(ed.k, 2)]), gap, ground_at, results[ground_at]


def spy_block_solves(monkeypatch) -> dict:
    """Record, by momentum, the operator momentum_block builds and the
    lowest_eigenpairs result on it, for every block a loop solves."""
    build, solve = fock_ed.momentum_block, fock_ed.lowest_eigenpairs
    built, solved = {}, {}

    def building(model, particles, momentum, settings=fock_ed.EDSettings()):
        basis, op = build(model, particles, momentum, settings)
        built[id(op)] = momentum
        return basis, op

    def solving(op, *args, **kwargs):
        result = solve(op, *args, **kwargs)
        solved[built[id(op)]] = op, result
        return result

    monkeypatch.setattr(fock_ed, "momentum_block", building)
    monkeypatch.setattr(fock_ed, "lowest_eigenpairs", solving)
    return solved


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
        assert whole.method == ("dense" if full.size <= 2000 else "davidson")
        binding = fock_ed.binding_from_ed(model)
        scale = max(1.0, abs(whole.ground_energy))
        assert abs(binding.sector_minimum - whole.ground_energy) <= 1e-12 * scale
        assert binding.sector_minimum <= binding.E_N
        assert binding.k0_is_global == (
            abs(binding.sector_minimum - binding.E_N) <= 1e-10 * scale
        )
        # The sector solved block by block at k = 3 against the full solve.
        sector = fock_ed.solve_particle_sector(model, settings)
        merged = sector.merged
        assert sector.dimension == full.size
        assert merged.converged and merged.residual_norm <= settings.tol
        assert merged.method == "dense"
        assert len(merged.eigenvalues) == len(whole.eigenvalues) == 3
        for mine, theirs in zip(merged.eigenvalues, whole.eigenvalues):
            assert abs(mine - theirs) <= 1e-12 * scale
        assert abs(merged.gap - whole.gap) <= 1e-12 * scale
        assert merged.vector_reliable and whole.vector_reliable
        for observable in (fock_ed.expect_nplus, fock_ed.expect_nplus2):
            assert abs(
                observable(merged.ground_vector, sector.basis)
                - observable(whole.ground_vector, full)
            ) <= 1e-12
        assert np.allclose(
            fock_ed.expect_total_momentum(merged.ground_vector, sector.basis),
            fock_ed.expect_total_momentum(whole.ground_vector, full),
            rtol=0.0,
            atol=1e-12,
        )

    @FULL_SECTORS
    @pytest.mark.parametrize(
        "k, dense_threshold", [(1, 500), (3, 500), (1, 10)], ids=["k1", "k3", "k1-threshold-10"]
    )
    def test_blocks_match_their_sparse_slices(self, model, k, dense_threshold, monkeypatch):
        # Each block the loop solves is built alone, and is the slice of the
        # sector's operator, so its solve and the reference's solve of that
        # slice agree in every bit, the residual too. Blocks above the
        # threshold run Davidson. Of each pair {K, -K} at most the greater is
        # solved, and a direct solve of the other gives the levels counted
        # for it. A block the bound skipped has no level below the
        # max(k, 2)-th level reported.
        settings = fock_ed.EDSettings(k=k, dense_threshold=dense_threshold)
        full = fock_ed.enumerate_basis(model.mode_set(), n_particles=model.N)
        ham = fock_ed.build_hamiltonian(model, full)
        solve = fock_ed.lowest_eigenpairs
        with monkeypatch.context() as patch:
            solved = spy_block_solves(patch)
            merged = fock_ed.solve_particle_sector(model, settings).merged
        assert zero_momentum(model.d) in solved
        rows = full.momentum_blocks()
        assert set(solved) < {p for p in rows if p >= -p}
        last = merged.eigenvalues[-1]
        methods = set()
        for momentum, block in rows.items():
            theirs = solve(ham[block][:, block], settings)
            methods.add(theirs.method)
            if momentum not in solved and -momentum not in solved:
                assert theirs.ground_energy >= last
                continue
            if momentum not in solved:
                counted = solved[-momentum][1].eigenvalues
                assert len(counted) == len(theirs.eigenvalues)
                for e, direct in zip(counted, theirs.eigenvalues):
                    assert abs(e - direct) <= 1e-12 * max(1.0, abs(direct))
                continue
            op, mine = solved[momentum]
            assert_same_csr(op, ham[block][:, block])
            assert (mine.method, mine.iterations) == (theirs.method, theirs.iterations)
            assert mine.eigenvalues == theirs.eigenvalues
            assert mine.gap == theirs.gap
            assert np.array_equal(mine.ground_vector, theirs.ground_vector)
            assert (mine.converged, mine.vector_reliable) == (
                theirs.converged,
                theirs.vector_reliable,
            )
            assert mine.residual_norm == theirs.residual_norm
        assert methods == ({"dense"} if dense_threshold == 500 else {"dense", "davidson"})

    @pytest.mark.parametrize(
        "model, sector",
        [
            (make_one_pair_model(N=48), Momentum((0,))),
            (FULL_SECTOR_MODELS[2], Momentum((0, 0))),
            (make_one_pair_model(N=1), Momentum((3,))),
        ],
        ids=["one-pair-N48-K0", "square-K0", "empty-block"],
    )
    def test_filtered_basis_is_one_block(self, model, sector):
        # A filtered basis is its own block, all its rows in order, or no
        # block when empty.
        basis = fock_ed.enumerate_basis(model.mode_set(), model.N, momentum_sector=sector)
        blocks = basis.momentum_blocks()
        assert list(blocks) == ([sector] if basis.size else [])
        for rows in blocks.values():
            assert rows.dtype == np.int64 and np.array_equal(rows, np.arange(basis.size))

    def test_blocks_found_once_per_basis(self, monkeypatch):
        # The selfcheck asks for the blocks of its whole sector more than
        # once: each later call reuses the first's read-only rows, and a
        # caller that edits its dict does not change the next one's.
        model = FULL_SECTOR_MODELS[1]
        full = fock_ed.enumerate_basis(model.mode_set(), n_particles=model.N)
        first = full.momentum_blocks()
        first.pop(zero_momentum(1))

        def no_momenta(self):
            raise AssertionError("the blocks were found again")

        monkeypatch.setattr(fock_ed.FockBasis, "momenta", no_momenta)
        second = full.momentum_blocks()
        assert zero_momentum(1) in second and len(second) == len(first) + 1
        for rows in second.values():
            assert not rows.flags.writeable

    @pytest.mark.parametrize("dense_threshold", [500, 10], ids=["dense", "lanczos"])
    def test_one_block_solve_uses_ham_as_it_is(self, dense_threshold, monkeypatch):
        # A K = 0 block is solved by lowest_eigenpairs on the operator
        # momentum_block builds for it, with no permutation and no slice:
        # the binding's K = 0 solve is the direct solve, bit for bit.
        model = make_one_pair_model(N=48)
        k0 = Momentum((0,))
        basis = fock_ed.enumerate_basis(model.mode_set(), 48, momentum_sector=k0)
        ham = fock_ed.build_hamiltonian(model, basis)
        settings = fock_ed.EDSettings(dense_threshold=dense_threshold)
        block_settings = replace(settings, k=2)
        theirs = fock_ed.lowest_eigenpairs(ham, block_settings)
        assert theirs.method == ("dense" if dense_threshold == 500 else "davidson")

        def no_indexing(self, key):
            raise AssertionError("a one-block solve indexed its operator")

        monkeypatch.setattr(scipy.sparse.csr_matrix, "__getitem__", no_indexing)
        mine_basis, op = fock_ed.momentum_block(model, 48, k0, block_settings)
        assert np.array_equal(mine_basis.states, basis.states)
        assert_same_csr(op, ham)
        binding = fock_ed.binding_from_ed(model, settings)
        mine = binding.result_N
        assert (mine.method, mine.iterations, mine.converged) == (
            theirs.method,
            theirs.iterations,
            theirs.converged,
        )
        assert mine.eigenvalues == theirs.eigenvalues and mine.gap == theirs.gap
        assert np.array_equal(mine.ground_vector, theirs.ground_vector)
        assert mine.residual_norm == theirs.residual_norm == float(
            np.linalg.norm(ham @ theirs.ground_vector - theirs.ground_energy * theirs.ground_vector)
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pruned_solve_matches_every_block_solved(self, data):
        # Random even tables on the five modes of a line or the nine of a
        # square, lambda N up to 150 or lambda = 0 (exact ties between
        # blocks), both routes: the binding's one-level loop, which solves
        # blocks only until the next bound lies above the least level found,
        # reports the least level of every block of the N and the N - 1
        # sector, bit for bit.
        model = draw_even_model(data, st.just(0.0))
        lam_n = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 150.0)))
        model = replace(model, N=max(model.N, 2), lam=lam_n / max(model.N, 2))
        ed = fock_ed.EDSettings(dense_threshold=data.draw(st.sampled_from([0, 10, 500])))
        binding = fock_ed.binding_from_ed(model, ed)
        k0_ground = {model.N: binding.E_N, model.N - 1: binding.E_Nm1}
        for n, minimum in ((model.N, binding.sector_minimum),
                           (model.N - 1, binding.sector_minimum_Nm1)):
            basis = fock_ed.enumerate_basis(model.mode_set(), n_particles=n)
            ham = fock_ed.build_hamiltonian(model, basis)
            _, _, _, ground = all_blocks_merged(basis, ham, ed)
            assert minimum == ground.ground_energy
            assert minimum <= k0_ground[n]
        at_minimum = all(
            abs(m - k0_ground[n]) <= 1e-10 * max(1.0, abs(m))
            for n, m in ((model.N, binding.sector_minimum),
                         (model.N - 1, binding.sector_minimum_Nm1))
        )
        assert binding.k0_is_global is at_minimum

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_block_by_block_sector_matches_the_assembled_sector(self, data):
        # Random even tables on the five modes of a line or the nine of a
        # square, lambda N up to 150 (where the energy bound prunes nothing)
        # or lambda = 0 (exact ties between blocks), k = 1 or 3, both
        # routes: the sector solved block by block, each block enumerated
        # and assembled alone, reports the levels, gap, dimension, ground
        # block, ground vector and residual that solving every block of the
        # assembled sector gives, bit for bit.
        model = draw_even_model(data, st.just(0.0))
        lam_n = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 150.0)))
        model = replace(model, lam=lam_n / model.N)
        ed = fock_ed.EDSettings(
            k=data.draw(st.sampled_from([1, 3])),
            dense_threshold=data.draw(st.sampled_from([0, 10, 500])),
        )
        basis = fock_ed.enumerate_basis(model.mode_set(), n_particles=model.N)
        eigenvalues, gap, ground_at, ground = all_blocks_merged(
            basis, fock_ed.build_hamiltonian(model, basis), ed
        )
        sector = fock_ed.solve_particle_sector(model, ed)
        mine = sector.merged
        assert mine.eigenvalues == eigenvalues
        assert mine.gap == gap
        assert sector.dimension == basis.size
        assert sector.basis.momentum_sector == ground_at
        rows = basis.momentum_blocks()[ground_at]
        assert np.array_equal(sector.basis.states, basis.states[rows])
        assert np.array_equal(mine.ground_vector, ground.ground_vector)
        assert mine.residual_norm == ground.residual_norm

    def test_mode_set_not_closed_under_negation_refused(self):
        # Over modes 0 and 1 block -K is not the mirror of block K.
        model = make_one_pair_model(N=2)
        model.__dict__["_modes"] = (Momentum((0,)), Momentum((1,)))
        with pytest.raises(ValueError, match="not closed under negation"):
            fock_ed.solve_particle_sector(model)

    def test_mirrored_levels_keep_their_multiplicity(self):
        # Two bands, N = 16: above the K = 0 ground, the lowest level lies in
        # K = +1 and K = -1 alike, and the merged list holds it twice with
        # the same bits, as block K = +1 gives it.
        model = make_two_band_model(N=16)
        settings = fock_ed.EDSettings(k=3)
        sector = fock_ed.solve_particle_sector(model, settings)
        k0, k1 = (
            fock_ed.lowest_eigenpairs(
                fock_ed.momentum_block(model, 16, Momentum((x,)))[1], settings
            )
            for x in (0, 1)
        )
        ground, first, second = sector.merged.eigenvalues
        assert ground == k0.ground_energy
        assert first == second == k1.ground_energy
        assert sector.merged.gap == first - ground


# Mode sets of the property tests: five modes on a line and the
# nine square-lattice modes with |n|_inf <= 1.
SHIFT_MODE_SETS = (
    tuple(Momentum((n,)) for n in range(-2, 3)),
    build_mode_set(2, 1.5 * TWO_PI),
)


def draw_even_model(data, coupling) -> TorusModel:
    """A model over one of SHIFT_MODE_SETS with an even table of unequal
    coefficients, some of them 0, over its transfers, and lambda drawn from
    coupling."""
    modes = data.draw(st.sampled_from(SHIFT_MODE_SETS))
    d = modes[0].d
    coefficient = st.one_of(st.just(0.0), st.floats(0.01, 4.0))
    table = {(0,) * d: data.draw(coefficient)}
    for ell in build_mode_set(d, 2.0 * TWO_PI * math.sqrt(d)):
        if ell > -ell:
            table[tuple(ell)] = table[tuple(-ell)] = data.draw(coefficient)
    model = TorusModel(
        d=d,
        N=data.draw(st.integers(1, 6 if d == 1 else 4)),
        potential=PotentialSpec.from_table(table),
        mode_cutoff=(2.5 if d == 1 else 1.5) * TWO_PI,
        lam=data.draw(coupling),
    )
    assert model.mode_set() == modes
    return model


# The brute-force cases: a whole one-pair sector, and the K = 0 blocks of
# the two-band model and of a d = 2 table with unequal coefficients.
THREE_MODE_MODELS = (
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
)
THREE_MODE_CASES = pytest.mark.parametrize(
    "model, sector", THREE_MODE_MODELS, ids=["one-pair-N3-full", "two-band-N6-K0", "square-N4-K0"]
)


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

    @THREE_MODE_CASES
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
        # Summing by occupation change gives the bytes of re-ranking every
        # term and summing repeated entries in term order, on the half of
        # the entries that is evaluated.
        assert_mirrors(ham, reranked_hamiltonian(model, basis), model, basis)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_tables_match_reranked_terms(self, data):
        # On a whole sector or a K != 0 block: the sum of each element keeps
        # the order of its terms.
        model = draw_even_model(data, st.floats(0.01, 2.0))
        modes = model.mode_set()
        sector = data.draw(st.sampled_from([None] + [p for p in modes if not p.is_zero]))
        basis = fock_ed.enumerate_basis(modes, n_particles=model.N, momentum_sector=sector)
        ham = fock_ed.build_hamiltonian(model, basis)
        assert_mirrors(ham, reranked_hamiltonian(model, basis), model, basis)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_tables_match_the_change_by_change_builder(self, data):
        # On a whole sector or any momentum block, at lambda = 0 or lambda >
        # 0, with the rows in one chunk or in chunks of one or a few rows.
        model = draw_even_model(data, st.one_of(st.just(0.0), st.floats(0.01, 2.0)))
        modes = model.mode_set()
        sector = data.draw(st.sampled_from([None, *modes]))
        basis = fock_ed.enumerate_basis(modes, n_particles=model.N, momentum_sector=sector)
        budget = data.draw(st.sampled_from([fock_ed.ASSEMBLY_CHUNK_ELEMENTS, 1, 1000]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fock_ed, "ASSEMBLY_CHUNK_ELEMENTS", budget)
            ham = fock_ed.build_hamiltonian(model, basis)
        assert_mirrors(ham, by_change_hamiltonian(model, basis), model, basis)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_tables_give_exactly_symmetric_operators(self, data):
        # Tables drawn as in the test above: H and the pair Hamiltonian on
        # the model's nonzero modes, each on a whole space or any block.
        model = draw_even_model(data, st.one_of(st.just(0.0), st.floats(0.01, 2.0)))
        modes = model.mode_set()
        sector = data.draw(st.sampled_from([None, *modes]))
        basis = fock_ed.enumerate_basis(modes, n_particles=model.N, momentum_sector=sector)
        ham = fock_ed.build_hamiltonian(model, basis)
        assert (ham != ham.T).nnz == 0
        _, hb = fock_ed.build_bogoliubov_hamiltonian(
            model.nonzero_modes(), data.draw(st.integers(0, 4)), model.potential, sector
        )
        assert (hb != hb.T).nnz == 0

    @pytest.mark.parametrize(
        "model, sector",
        [
            (FULL_SECTOR_MODELS[2], Momentum((1, 0))),
            # Unequal coefficients on which the diagonal's bytes depend on
            # the order in which the exchange terms are added.
            (
                TorusModel(
                    d=1,
                    N=6,
                    potential=PotentialSpec.from_table(
                        {(1,): 3.0, (-1,): 3.0, (2,): 1.5, (-2,): 1.5}
                    ),
                    mode_cutoff=2.5 * TWO_PI,
                    lam=0.7,
                ),
                None,
            ),
        ],
        ids=["square-9-modes-K10", "two-band-unequal-N6"],
    )
    def test_one_row_chunks_give_the_same_bytes(self, model, sector, monkeypatch):
        basis = fock_ed.enumerate_basis(model.mode_set(), model.N, momentum_sector=sector)
        whole = fock_ed.build_hamiltonian(model, basis)
        monkeypatch.setattr(fock_ed, "ASSEMBLY_CHUNK_ELEMENTS", 1)
        chunked = fock_ed.build_hamiltonian(model, basis)
        assert basis.size > 1 and whole.nnz > basis.size
        assert_same_csr(chunked, whole)
        assert_mirrors(chunked, by_change_hamiltonian(model, basis), model, basis)

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

    def test_target_outside_the_basis_raises(self, monkeypatch):
        def nowhere(self, ranks):
            return np.zeros(len(ranks), dtype=np.int64), np.zeros(len(ranks), dtype=bool)

        monkeypatch.setattr(fock_ed.FockBasis, "_locate", nowhere)
        with pytest.raises(RuntimeError, match="left the basis"):
            fock_ed.build_hamiltonian(make_one_pair_model(N=2), one_pair_k0_basis(2))

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


class TestAssemble:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_coo_conversion(self, data):
        # Unique (row, column) pairs in any order, split into blocks, on a
        # square or rectangular shape: empty rows, empty blocks, explicit
        # zero values and no entry at all included.
        shape = (data.draw(st.integers(0, 9)), data.draw(st.integers(0, 9)))
        cells = shape[0] * shape[1]
        flat = np.array(
            data.draw(st.lists(st.integers(0, max(cells - 1, 0)), unique=True, max_size=cells)),
            dtype=np.int64,
        )
        vals = np.array(
            data.draw(
                st.lists(
                    st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
                    min_size=len(flat),
                    max_size=len(flat),
                )
            )
        )
        cuts = sorted(data.draw(st.lists(st.integers(0, len(flat)), max_size=3)))
        rows, cols = flat // max(shape[1], 1), flat % max(shape[1], 1)
        mine = fock_ed._assemble(
            np.split(rows, cuts), np.split(cols, cuts), np.split(vals, cuts), shape
        )
        theirs = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
        assert mine.shape == theirs.shape
        assert_same_csr(mine, theirs)
        assert mine.has_canonical_format and theirs.has_canonical_format


class TestAssemblyByChange:
    """Each matrix entry is made once. H evaluates one change of each
    adjoint pair and locates the entries it moves in one _locate pass; HB
    locates each pair's creation by one FockBasis.shifted call. Both store
    each located entry with its mirror."""

    @staticmethod
    def entries_once(monkeypatch) -> list[int]:
        """Make _assemble refuse a repeated (row, column); return the entry
        count of every call."""
        assemble = fock_ed._assemble
        counts = []

        def once(rows, cols, vals, shape):
            pairs = np.concatenate(rows) * shape[1] + np.concatenate(cols)
            assert len(np.unique(pairs)) == len(pairs), "an entry made twice"
            counts.append(len(pairs))
            return assemble(rows, cols, vals, shape)

        monkeypatch.setattr(fock_ed, "_assemble", once)
        return counts

    @staticmethod
    def shifted_calls(monkeypatch) -> list[tuple[int, ...]]:
        """Record the occupation change of every FockBasis.shifted call."""
        shifted = fock_ed.FockBasis.shifted
        calls = []

        def counting(self, rows, delta):
            calls.append(tuple(np.asarray(delta).tolist()))
            return shifted(self, rows, delta)

        monkeypatch.setattr(fock_ed.FockBasis, "shifted", counting)
        return calls

    @THREE_MODE_CASES
    def test_each_entry_made_once(self, model, sector, monkeypatch):
        counts = self.entries_once(monkeypatch)
        basis = fock_ed.enumerate_basis(
            model.mode_set(), n_particles=model.N, momentum_sector=sector
        )
        ham = fock_ed.build_hamiltonian(model, basis)
        assert counts == [ham.nnz]

    def test_each_pair_entry_made_once(self, monkeypatch):
        counts = self.entries_once(monkeypatch)
        model = FULL_SECTOR_MODELS[2]
        basis, ham = fock_ed.build_bogoliubov_hamiltonian(
            model.nonzero_modes(), 6, model.potential
        )
        assert len(basis.modes) == 9 and counts == [ham.nnz]

    def test_moved_entries_located_in_one_pass(self, monkeypatch):
        model = make_two_band_model(N=6)
        basis = fock_ed.enumerate_basis(model.mode_set(), n_particles=6)
        # 50 terms make 15 occupation changes, one of them the exchange
        # terms' empty change. Each change is keyed by its (position,
        # amount) pairs.
        assert sum(len(terms) for _, terms in model.transfers) == 50
        moving = [change for change, _ in model.transfers if change]
        assert len(moving) == 14
        for change in moving:
            positions = [i for i, _ in change]
            assert positions == sorted(set(positions))
            assert all(amount for _, amount in change)
            assert sum(amount for _, amount in change) == 0
            assert tuple((i, -amount) for i, amount in change) in moving
        # The term table holds the 14 exchange terms and the 18 terms of one
        # change of each of the 7 adjoint pairs, then the padding term.
        table = fock_ed._term_table(model)
        assert (table.n_exchange, table.slots.shape[0], len(table.wl)) == (14, 7, 33)
        # Every entry the 7 changes move is ranked by rank arithmetic and
        # located by one _locate call, with no shifted call per change; its
        # mirror is the other half of the moved entries.
        calls = self.shifted_calls(monkeypatch)
        locate = fock_ed.FockBasis._locate
        located = []

        def recording(self, ranks):
            located.append(len(ranks))
            return locate(self, ranks)

        monkeypatch.setattr(fock_ed.FockBasis, "_locate", recording)
        ham = fock_ed.build_hamiltonian(model, basis)
        assert calls == [] and located == [(ham.nnz - basis.size) // 2]
        # Rows taken in chunks: one _locate call per chunk, each evaluated
        # entry located once.
        monkeypatch.setattr(fock_ed, "ASSEMBLY_CHUNK_ELEMENTS", 4000)
        located.clear()
        fock_ed.build_hamiltonian(model, basis)
        assert len(located) > 1 and 2 * sum(located) == ham.nnz - basis.size

    @pytest.mark.parametrize(
        "model, pairs",
        [(FULL_SECTOR_MODELS[2], 4), (make_one_pair_model(N=4, cutoff=13.0), 1)],
        ids=["square-9-modes", "one-pair-5-modes"],
    )
    def test_each_pair_located_once(self, model, pairs, monkeypatch):
        # One creation change per pair {p, -p} with w_hat(p) != 0, whose
        # mirror is the annihilation; the one-pair table leaves the pair +-2
        # at 0.
        calls = self.shifted_calls(monkeypatch)
        modes = model.nonzero_modes()
        assert len({frozenset((p, -p)) for p in modes if model.w_hat(p) != 0.0}) == pairs
        fock_ed.build_bogoliubov_hamiltonian(modes, 4, model.potential)
        assert len(calls) == pairs
        assert len(set(calls)) == len(calls)
        assert all(sorted(delta)[0] == -2 for delta in calls)

    def test_zero_coupling_stores_the_diagonal_only(self):
        model = make_two_band_model(N=6, lam=0.0)
        basis = fock_ed.enumerate_basis(model.mode_set(), n_particles=6)
        ham = fock_ed.build_hamiltonian(model, basis)
        assert ham.nnz == basis.size
        assert np.array_equal(ham.indices, np.arange(basis.size))
        kinetic = sum(p.norm2 * basis.states[:, i] for i, p in enumerate(basis.modes))
        assert np.array_equal(ham.diagonal(), kinetic)


# sha256 of the CSR arrays (dtype and bytes of indptr, indices, data) of every
# H that the study-sweep and ed-dense benchmark workloads assemble at seed 0,
# where every coefficient is 1, with one change of each adjoint pair
# evaluated and its entries mirrored.
OPERATOR_DIGESTS = {
    "study-N8-K0": "b6a535649ec5b9279403fb4cbcf4f374ca1232f7cff99088a47476c37ac8653b",
    "study-N8-K0-minus-1": "e7602a8b04ccf759ab673aa62bb85e7e6e8117842b30a6a6799eb1fe9eb82656",
    "study-N16-K0": "65f0f2a0e078c7b30c21c08ab84c8265ce3d71022620c41e96bc4030f5c9046a",
    "study-N16-K0-minus-1": "7796559f8c346e94de6ae87e657d0f2ece55ccf9f797c4600717e79a051b7a44",
    "study-N24-K0": "64738cc7c2188d3894df15b7d9555a72ebab0137a95a1fd1c1f721102e2e1f1a",
    "study-N24-K0-minus-1": "2b1dcaa7d07b0d1d6786b93bc084a0b1a85884d006725ddb2c6f9903bda47d43",
    "study-N32-K0": "4622bfe5e17bb5cd5207bddce63b7693440de59ec3072a38f18a9ea9052f486e",
    "study-N32-K0-minus-1": "d2f8dd026865c9db3eb0544971c076aece2a75466d9a7871f7d9697be9db7cff",
    "study-N48-K0": "b568598d690f1b1310b5f8c89904b739ea53a6cad544a360b48799686f8191da",
    "study-N48-K0-minus-1": "a786aa50a9ec4f9cdb1144f71983191da38ac6d00e0b0f5e4c4b298a099b54cc",
    "two-band-N34-K0": "8792acdbeed6064a01aa82c06f19c8c58b3856a9f69811ab0ef2f900425ec184",
    "three-mode-N56": "0cac0c1272997a2125dace8a64eea46720a4f1880bb4ad75d4185d99b4f7afb1",
}


def benchmark_operators():
    """(model, particles, momentum sector) of each H in OPERATOR_DIGESTS, by
    name: the K = 0 blocks of N and N - 1 of each study record (lambda =
    1/N), the two-band N = 34 K = 0 block and the whole three-mode N = 56
    sector."""
    pair = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
    band = PotentialSpec.from_table({(n,): 1.0 for n in (-2, -1, 1, 2)})
    k0 = zero_momentum(1)
    cases = {}
    for n in (8, 16, 24, 32, 48):
        model = TorusModel(d=1, N=n, potential=pair, mode_cutoff=7.0, lam=1.0 / n)
        cases[f"study-N{n}-K0"] = (model, n, k0)
        cases[f"study-N{n}-K0-minus-1"] = (model, n - 1, k0)
    model = TorusModel(d=1, N=34, potential=band, mode_cutoff=2.5 * TWO_PI)
    cases["two-band-N34-K0"] = (model, 34, k0)
    model = TorusModel(d=1, N=56, potential=pair, mode_cutoff=1.5 * TWO_PI)
    cases["three-mode-N56"] = (model, 56, None)
    return cases


class TestOperatorDigests:
    @pytest.mark.parametrize("name", OPERATOR_DIGESTS)
    def test_benchmark_operators_keep_their_bytes(self, name):
        model, particles, sector = benchmark_operators()[name]
        basis = fock_ed.enumerate_basis(model.mode_set(), particles, momentum_sector=sector)
        ham = fock_ed.build_hamiltonian(model, basis)
        digest = hashlib.sha256()
        for array in (ham.indptr, ham.indices, ham.data):
            digest.update(array.dtype.str.encode())
            digest.update(array.tobytes())
        assert digest.hexdigest() == OPERATOR_DIGESTS[name]
        assert (ham != ham.T).nnz == 0
        assert_mirrors(ham, by_change_hamiltonian(model, basis), model, basis)


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

    @staticmethod
    def nearest_neighbour_square() -> TorusModel:
        """w_hat = 1 on the four nearest neighbours of the zero mode, over the
        eight modes with |n|^2 <= 2: one quasiparticle of each of four
        momenta shares the lowest excitation, e_p = 40.47."""
        table = {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0}
        return TorusModel(d=2, N=4, potential=PotentialSpec.from_table(table), mode_cutoff=9.0)

    def test_degenerate_levels_merged_over_blocks(self, monkeypatch):
        # The M = 6 space holds 3,003 states; one solve of it at k = 5 drops a
        # level of the fourfold e_B + e_p and reports the next one, 78.93.
        dims, built = [], []
        solve = fock_ed.lowest_eigenpairs
        build = fock_ed.build_bogoliubov_hamiltonian

        def recording(op, *args, **kwargs):
            dims.append(op.shape[0])
            return solve(op, *args, **kwargs)

        def building(
            modes, excitation_cutoff, potential, momentum_sector=None, settings=fock_ed.EDSettings()
        ):
            built.append((excitation_cutoff, momentum_sector))
            return build(modes, excitation_cutoff, potential, momentum_sector, settings)

        monkeypatch.setattr(fock_ed, "lowest_eigenpairs", recording)
        monkeypatch.setattr(fock_ed, "build_bogoliubov_hamiltonian", building)
        model = self.nearest_neighbour_square()
        hb = fock_ed.converged_bogoliubov_ground(
            model.nonzero_modes(),
            model.potential,
            fock_ed.HBSettings(start_cutoff=4, max_cutoff=6),
            fock_ed.EDSettings(k=5),
        )
        assert hb.dimension == 3003 and hb.cutoff_used == 6
        excited = hb.result.eigenvalues[1:]
        assert len(excited) == 4 and max(excited) - min(excited) <= 1e-9
        assert hb.result.gap == pytest.approx(40.466063466, abs=1e-8)
        # Each rung builds and solves its K = 0 block alone, at the loop's
        # five levels, so the last rung stands in for K = 0. At the last rung
        # the loop then builds the greater of each pair of shell 1 alone,
        # which holds the fourfold level twice.
        k0 = zero_momentum(2)
        assert built == [(4, k0), (6, k0), (6, Momentum((0, 1))), (6, Momentum((1, 0)))]
        assert hb.basis.momentum_sector == k0
        assert dims == [23, 79, 69, 69] and max(dims) == hb.basis.size

    @staticmethod
    def pair_space(case: str):
        """The model and cutoff of a pair space: one pair, two bands, and the
        eight square modes with w_hat on the four nearest neighbours or on
        all eight."""
        table = {(x, y): 1.0 for x in (-1, 0, 1) for y in (-1, 0, 1) if (x, y) != (0, 0)}
        return {
            "one-pair-M48": (make_one_pair_model(N=8), 48),
            "two-band-M12": (make_two_band_model(N=8), 12),
            "square-nn-M6": (TestPairHamiltonian.nearest_neighbour_square(), 6),
            "square-all-M6": (
                TorusModel(d=2, N=4, potential=PotentialSpec.from_table(table), mode_cutoff=9.0),
                6,
            ),
        }[case]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize(
        "case", ["one-pair-M48", "two-band-M12", "square-nn-M6", "square-all-M6"]
    )
    def test_block_by_block_pair_space_matches_the_assembled_space(self, case, k):
        # The <= M space solved block by block, each block built alone and
        # visited in order of e_B + c |K|_1, reports the levels and gap that
        # solving every block of the assembled space gives, bit for bit, and
        # the ground on the same block. Every block's lowest level lies at or
        # above its bound, up to the loop's 1e-10 tolerance.
        model, m = self.pair_space(case)
        modes = model.nonzero_modes()
        ed = fock_ed.EDSettings(k=k)
        hb = fock_ed.converged_bogoliubov_ground(
            modes, model.potential, fock_ed.HBSettings(start_cutoff=m, max_cutoff=m), ed
        )
        basis, ham = fock_ed.build_bogoliubov_hamiltonian(modes, m, model.potential)
        eigenvalues, gap, ground_at, ground = all_blocks_merged(basis, ham, ed)
        assert hb.result.eigenvalues == eigenvalues
        assert hb.result.gap == gap
        assert (hb.dimension, hb.cutoff_used) == (basis.size, m)
        assert hb.basis.momentum_sector == ground_at
        rows = basis.momentum_blocks()
        assert np.array_equal(hb.basis.states, basis.states[rows[ground_at]])
        assert np.array_equal(hb.result.ground_vector, ground.ground_vector)
        quantities = bogoliubov.solve(model).modes
        e_b = bogoliubov.solve(model).e_B
        rate = min(q.e_p / sum(abs(x) for x in q.p) for q in quantities)
        for momentum, block in rows.items():
            least = fock_ed.lowest_eigenpairs(ham[block][:, block]).ground_energy
            bound = e_b + rate * sum(abs(x) for x in momentum)
            assert least >= bound - 1e-10 * max(1.0, abs(least))

    @pytest.mark.parametrize("case", ["square-M6", "two-band-M8"])
    def test_momentum_block_is_the_sliced_operator(self, case):
        model, m = {
            "square-M6": (self.nearest_neighbour_square(), 6),
            "two-band-M8": (make_two_band_model(N=8), 8),
        }[case]
        k0 = zero_momentum(model.d)
        modes = model.nonzero_modes()
        whole_basis, whole = fock_ed.build_bogoliubov_hamiltonian(modes, m, model.potential)
        basis, ham = fock_ed.build_bogoliubov_hamiltonian(
            modes, m, model.potential, momentum_sector=k0
        )
        rows = whole_basis.momentum_blocks()[k0]
        assert basis.momentum_sector == k0 and 1 < basis.size < whole_basis.size
        assert np.array_equal(basis.states, whole_basis.states[rows])
        assert_same_csr(ham, whole[rows][:, rows])

    def test_block_over_the_budget_refused_before_assembly(self, monkeypatch):
        # With the budget at 2 states, the first rung's K = 0 block (4 states
        # of the one-pair M = 6 space) is over it on the dense route: it is
        # refused once enumerated, before anything is assembled.
        assemble, assembled = fock_ed._assemble, []

        def recording(*args):
            assembled.append(args[-1])
            return assemble(*args)

        monkeypatch.setattr(fock_ed, "MAX_DENSE_STATES", 2)
        monkeypatch.setattr(fock_ed, "_assemble", recording)
        model = make_one_pair_model(N=8)
        with pytest.raises(ResourceLimitError, match="dense solve of 4 states"):
            fock_ed.converged_bogoliubov_ground(
                model.nonzero_modes(), model.potential, fock_ed.HBSettings(6, 8)
            )
        assert assembled == []

    def test_empty_mode_set_refused(self):
        potential = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
        with pytest.raises(ValueError, match="empty"):
            fock_ed.converged_bogoliubov_ground((), potential)

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
        assert lanczos.method == "davidson"
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
        # 177 states: one Davidson iteration, a Rayleigh-Ritz step on the
        # start block, cannot solve it exactly.
        ham = k0_hamiltonian(make_two_band_model(N=16))
        result = fock_ed.lowest_eigenpairs(
            ham, fock_ed.EDSettings(dense_threshold=0, max_iter=1)
        )
        assert ham.shape[0] == 177
        assert result.method == "davidson"
        assert not result.converged
        assert result.residual_norm > 1e-9

    def test_stopping_early_keeps_the_best_vectors(self):
        # One pair, N = 48, K = 0 (25 states): Davidson converges both pairs
        # in 5 iterations. Stopped after fewer, it reports the Rayleigh
        # quotients of its last Ritz vectors, never raises, and flags the
        # solve unconverged, even at 4 iterations, where the ground's
        # residual already meets tol.
        ham = fock_ed.build_hamiltonian(make_one_pair_model(N=48), one_pair_k0_basis(48))
        exact = fock_ed.lowest_eigenpairs(ham, fock_ed.EDSettings(dense_threshold=10**9))
        grounds = []
        for max_iter in (1, 2, 3, 4):
            result = fock_ed.lowest_eigenpairs(
                ham, fock_ed.EDSettings(dense_threshold=0, max_iter=max_iter)
            )
            assert result.method == "davidson" and not result.converged
            vector = result.ground_vector
            assert result.ground_energy == pytest.approx(vector @ (ham @ vector), abs=1e-12)
            assert result.ground_energy >= exact.ground_energy - 1e-12
            grounds.append(result.ground_energy)
        # Each iteration's space holds the one before, so no ground rises.
        assert all(b <= a + 1e-12 for a, b in zip(grounds, grounds[1:]))
        assert result.residual_norm <= 1e-9
        finished = fock_ed.lowest_eigenpairs(ham, fock_ed.EDSettings(dense_threshold=0))
        assert finished.converged and finished.iterations > result.iterations

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
        # Oracle: every eigenpair from a different LAPACK driver. The solve
        # keeps the max(k, 2) lowest levels it computes.
        full, vecs = np.linalg.eigh(dense)
        assert len(result.eigenvalues) == min(max(k, 2), len(full))
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
        for k in (1, 3):
            fock_ed.lowest_eigenpairs(ham, fock_ed.EDSettings(k=k))
        # k_int = max(k, 2) lowest pairs by index.
        assert calls == [("I", 1, 2), ("I", 1, 3)]

    def test_dense_solve_holds_one_array(self, monkeypatch):
        # dsyevr is given op.toarray().T, Fortran-ordered and equal to op,
        # and overwrites it in place: a dense solve of 1,540 states holds one
        # dim**2 array of doubles, not that array and a copy for LAPACK.
        import scipy.linalg.lapack

        ham = one_pair_hb(54)
        dim = ham.shape[0]
        syevr = scipy.linalg.lapack.dsyevr
        given = []

        def recording(a, **kwargs):
            given.append((a.flags.f_contiguous, kwargs["overwrite_a"]))
            return syevr(a, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", recording)
        settings = fock_ed.EDSettings(dense_threshold=2000)
        tracemalloc.start()
        try:
            result = fock_ed.lowest_eigenpairs(ham, settings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (dim, result.method, given) == (1540, "dense", [(True, 1)])
        assert result.converged
        assert peak < 1.25 * 8 * dim**2

    def test_lapack_failure_raises(self, monkeypatch):
        import scipy.linalg.lapack

        real_syevr = scipy.linalg.lapack.dsyevr

        def failing(a, **kwargs):
            *out, _ = real_syevr(a, **kwargs)
            return (*out, 1)

        monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", failing)
        ham = k0_hamiltonian(make_one_pair_model(N=8))
        with pytest.raises(np.linalg.LinAlgError, match="info = 1"):
            fock_ed.lowest_eigenpairs(ham)

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
        # Davidson; it must match a forced dense solve to the rounding of
        # either solver, about eps * ||H||.
        ham = build()
        fast = fock_ed.lowest_eigenpairs(ham)
        slow = fock_ed.lowest_eigenpairs(ham, fock_ed.EDSettings(dense_threshold=10**9))
        assert ham.shape[0] == dim
        assert fast.method == "davidson" and slow.method == "dense"
        assert fast.converged
        bound = 1e-15 * float(abs(ham).sum(axis=1).max())
        assert abs(fast.ground_energy - slow.ground_energy) <= bound
        assert abs(fast.gap - slow.gap) <= bound

    @pytest.mark.parametrize(
        "build, second",
        [
            (lambda: scipy.sparse.diags(np.arange(1353.0), format="csr"), 1.0),
            # The same diagonal from a dense array, whose 0 is not stored:
            # row 0 of the CSR matrix holds no entry.
            (lambda: scipy.sparse.csr_matrix(np.diag(np.arange(1353.0))), 1.0),
            (lambda: k0_hamiltonian(free_two_band_model(34)), 2.0 * TWO_PI**2),
        ],
        ids=["diag-0-to-1352", "dense-diag-0-to-1352", "two-band-N34-K0-free"],
    )
    def test_zero_ground_is_found(self, build, second):
        # A ground at exactly 0, the free condensate, is found, and the
        # level above it.
        op = build()
        result = fock_ed.lowest_eigenpairs(op)
        assert (op.shape[0], result.method) == (1353, "davidson")
        assert result.converged
        assert abs(result.ground_energy) <= 1e-12
        assert result.gap == pytest.approx(second, abs=1e-9)

    def test_start_vector_weighted_by_the_diagonal(self, monkeypatch):
        # The two-band N = 34 K = 0 block: its diagonal climbs to about 5,400
        # in steps of (2 pi)^2, its radii are at most about 28. From unit
        # vectors on the lowest diagonal rows plus a Gaussian scaled by
        # exp(-(d_i - min d) / r_max), Davidson needs at most 30 operator
        # applications.
        result = fock_ed.lowest_eigenpairs(k0_hamiltonian(make_two_band_model(N=34)))
        assert result.method == "davidson" and result.converged
        assert result.iterations <= 30
        # Radii of 1e-3 against diagonal steps of 1,000 would scale the start
        # below the least double: the exponent is capped, no entry is 0.
        starts = []
        start = fock_ed._davidson_start

        def recording(*args):
            starts.append(start(*args))
            return starts[-1]

        monkeypatch.setattr(fock_ed, "_davidson_start", recording)
        steep = scipy.sparse.diags(
            [np.full(599, 1e-3), 1e3 * np.arange(600.0), np.full(599, 1e-3)],
            [-1, 0, 1],
            format="csr",
        )
        result = fock_ed.lowest_eigenpairs(steep)
        assert result.method == "davidson" and result.converged
        assert abs(result.ground_energy) <= 1e-8
        assert len(starts) == 1 and np.all(starts[0] != 0.0)
        # Subnormal radii, as a coupling of 1e-308 gives: the exponent is
        # capped before the division, which would overflow (a warning, and
        # so an error here).
        tiny = scipy.sparse.diags(
            [np.full(599, 1e-310), np.arange(600.0), np.full(599, 1e-310)], [-1, 0, 1], format="csr"
        )
        result = fock_ed.lowest_eigenpairs(tiny)
        assert result.method == "davidson" and result.converged
        assert (result.ground_energy, result.gap) == (0.0, 1.0)
        assert len(starts) == 2 and np.all(starts[1] != 0.0)

    def test_default_iterative_solve_memory_is_bounded(self):
        # Davidson keeps a search space of DAVIDSON_WIDTH + 2 vectors, so a
        # default iterative solve allocates a few tens of vectors whatever
        # max_iter allows.
        ham = k0_hamiltonian(make_two_band_model(N=34))
        dim = ham.shape[0]
        tracemalloc.start()
        try:
            result = fock_ed.lowest_eigenpairs(ham)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (dim, result.method) == (1353, "davidson")
        assert result.converged
        assert peak < 50 * dim * 8

    @pytest.mark.parametrize(
        "settings",
        [fock_ed.EDSettings(dense_threshold=100_000), fock_ed.EDSettings(k=40_000)],
        ids=["dense-threshold", "k"],
    )
    def test_oversized_dense_solve_refused_before_allocating(self, monkeypatch, settings):
        # The d = 2, 9-mode K = 0 block at N = 24 holds 30,936 states, whose
        # dense array would take 7.7 GB. Either entry point refuses the dense
        # route before such an array exists or a solve starts, and
        # momentum_block before the block is assembled.
        import scipy.linalg.lapack

        def refuse(*args, **kwargs):
            raise AssertionError("an oversized dense solve was started")

        model = TorusModel(
            d=2,
            N=24,
            potential=PotentialSpec.from_table({(1, 0): 1.0, (-1, 0): 1.0}),
            mode_cutoff=1.5 * TWO_PI,
        )
        basis = fock_ed.enumerate_basis(
            model.mode_set(), n_particles=24, momentum_sector=zero_momentum(2)
        )
        dim = basis.size
        op = scipy.sparse.identity(dim, format="csr")
        solve = fock_ed.lowest_eigenpairs
        monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", refuse)
        monkeypatch.setattr(fock_ed, "lowest_eigenpairs", refuse)
        monkeypatch.setattr(fock_ed, "build_hamiltonian", refuse)
        with pytest.raises(ResourceLimitError, match="dense solve of 30936 states"):
            fock_ed.momentum_block(model, 24, zero_momentum(2), settings)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="budget is 10000"):
                solve(op, settings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dim == 30936 > fock_ed.MAX_DENSE_STATES
        assert peak < dim**2 * 8 / 1000

    def test_oversized_davidson_solve_refused_before_allocating(self, monkeypatch):
        # With the budget patched to 1,000**2 doubles, 60 Davidson vectors on
        # the two-band K = 0 block of N = 48 (3,581 states) would hold
        # (2 (12 + 60) + 180) 3,581 doubles, over it. Either entry point
        # refuses the route before the block is assembled or any solver
        # array exists, and two levels stay within it.
        model = make_two_band_model(N=48)
        op = scipy.sparse.identity(3581, format="csr")
        settings = fock_ed.EDSettings(k=60)
        solve = fock_ed.lowest_eigenpairs

        def refuse(*args, **kwargs):
            raise AssertionError("an oversized Davidson solve was started")

        monkeypatch.setattr(fock_ed, "MAX_DENSE_STATES", 1000)
        monkeypatch.setattr(fock_ed, "lowest_eigenpairs", refuse)
        monkeypatch.setattr(fock_ed, "build_hamiltonian", refuse)
        monkeypatch.setattr(fock_ed, "_davidson_lowest", refuse)
        with pytest.raises(ResourceLimitError, match="davidson solve of 3581 states holds 1160244 doubles"):
            fock_ed.momentum_block(model, 48, zero_momentum(1), settings)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="budget is 1000000"):
                solve(op, settings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3581 * 8
        assert fock_ed._solve_route(3581, fock_ed.EDSettings(k=2)) == "davidson"

    def test_two_levels_never_refused_within_the_state_budget(self):
        # The largest block the state budget lets through fits the memory
        # budget on the Davidson route at k <= 2.
        for k in (1, 2):
            settings = fock_ed.EDSettings(k=k)
            assert fock_ed._solve_route(fock_ed.DEFAULT_MAX_STATES, settings) == "davidson"

    def test_iterative_solve_memory_matches_its_budget(self):
        # The arrays of a Davidson solve on b vectors hold
        # (2 (DAVIDSON_WIDTH + b) + 3 b) dim doubles and a few vectors more,
        # the count the route's budget takes; measured at k = 2 and 13 on
        # the two-band K = 0 block of N = 48 (3,581 states).
        op = k0_hamiltonian(make_two_band_model(N=48))
        dim = op.shape[0]
        for k in (2, 13):
            tracemalloc.start()
            try:
                result = fock_ed.lowest_eigenpairs(op, fock_ed.EDSettings(k=k))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (dim, result.method, result.converged) == (3581, "davidson", True)
            counted = 2 * (fock_ed.DAVIDSON_WIDTH + k) + 3 * k
            assert counted * dim * 8 < peak < (counted + 10) * dim * 8

    @pytest.mark.parametrize(
        "matrix", [[[-0.75]], [[1.0, 0.5], [0.5, -2.0]]], ids=["dim1", "dim2"]
    )
    def test_tiny_operators_go_dense_at_any_threshold(self, matrix):
        # Every solve reports two pairs where it can, so a 1- or 2-state
        # operator is solved dense whatever the threshold.
        import scipy.sparse as sp

        op = sp.csr_matrix(np.array(matrix))
        result = fock_ed.lowest_eigenpairs(op, fock_ed.EDSettings(dense_threshold=0))
        want = np.linalg.eigvalsh(np.array(matrix))
        assert result.method == "dense"
        assert result.converged
        assert result.ground_energy == pytest.approx(want[0], abs=1e-15)

    def test_degenerate_levels_kept_at_default_settings(self):
        # One pair, M = 48 (1,225 states): the second level is doubly
        # degenerate. A k >= 3 request above dense_threshold runs Davidson
        # on k vectors, which reports both copies, as dense does.
        result = TestDavidsonMatchesDense.assert_matches_dense(
            one_pair_hb(48), fock_ed.EDSettings(k=4)
        )
        assert abs(result.eigenvalues[1] - result.eigenvalues[2]) <= 1e-9


def whole_sector(model):
    basis = fock_ed.enumerate_basis(model.mode_set(), n_particles=model.N)
    return basis, fock_ed.build_hamiltonian(model, basis)


def whole_pair_space(model, cutoff):
    return fock_ed.build_bogoliubov_hamiltonian(model.nonzero_modes(), cutoff, model.potential)


class TestDavidsonMatchesDense:
    """The iterative route against dense, to 1e-12 max(1, ||H||_inf) on
    every level it reports and the gap."""

    @staticmethod
    def assert_matches_dense(op, settings):
        iterative = fock_ed.lowest_eigenpairs(op, settings)
        dense = fock_ed.lowest_eigenpairs(op, replace(settings, dense_threshold=10**9))
        bound = 1e-12 * max(1.0, float(abs(op).sum(axis=1).max()))
        assert iterative.method == ("davidson" if op.shape[0] > 2 else "dense")
        assert dense.method == "dense"
        assert iterative.converged
        assert len(iterative.eigenvalues) == len(dense.eigenvalues)
        for mine, theirs in zip(iterative.eigenvalues, dense.eigenvalues):
            assert abs(mine - theirs) <= bound
        assert abs(iterative.gap - dense.gap) <= bound
        return iterative

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: whole_sector(make_one_pair_model(N=48)),
            lambda: whole_sector(make_two_band_model(N=12)),
            lambda: whole_sector(FULL_SECTOR_MODELS[2]),
            lambda: whole_pair_space(make_one_pair_model(N=8), 20),
            lambda: whole_pair_space(make_two_band_model(N=8), 6),
        ],
        ids=["one-pair-N48", "two-band-N12", "square-N6", "one-pair-HB-M20", "two-band-HB-M6"],
    )
    def test_every_solved_block(self, build, k):
        # Every block of more than max(k, 2) states that a block loop may
        # solve, K = 0 and the greater of each pair {K, -K}, gathered from
        # the assembled space; smaller blocks are solved dense on either
        # route.
        settings = fock_ed.EDSettings(k=max(k, 2), dense_threshold=0)
        basis, ham = build()
        methods = set()
        for momentum, rows in basis.momentum_blocks().items():
            if momentum >= -momentum and len(rows) > settings.k:
                result = self.assert_matches_dense(ham[rows][:, rows], settings)
                methods.add(result.method)
        assert "davidson" in methods

    @pytest.mark.parametrize("k", [2, 3])
    def test_repeated_minimum_of_a_diagonal(self, k):
        # The minimum 0 sits on rows 0 and 300: both are start rows, and both
        # copies are reported, with gap 0, so the ground vector is flagged
        # unreliable, as a dense solve flags it.
        op = scipy.sparse.diags(np.arange(600.0) % 300, format="csr")
        result = self.assert_matches_dense(op, fock_ed.EDSettings(k=k, dense_threshold=0))
        assert result.eigenvalues[:2] == (0.0, 0.0) and result.gap == 0.0
        assert not result.vector_reliable

    @pytest.mark.parametrize("k", [2, 3])
    def test_free_two_band_model(self, k):
        # w_hat = 0: H is the kinetic diagonal, 0 on the condensate, and
        # 2 (2 pi)^2 on the pair at +-1, the level above.
        op = k0_hamiltonian(free_two_band_model(34))
        result = self.assert_matches_dense(op, fock_ed.EDSettings(k=k, dense_threshold=0))
        assert result.ground_energy == 0.0
        assert result.gap == pytest.approx(2.0 * TWO_PI**2, abs=1e-9)

    @pytest.mark.parametrize("k", [2, 3])
    def test_whole_sector_operator_unsplit(self, k):
        # The one-pair N = 8 sector's operator as one matrix, its momentum
        # blocks not split apart: some corrections lie in the search space,
        # and the residual is added in their place.
        _, op = whole_sector(make_one_pair_model(N=8))
        self.assert_matches_dense(op, fock_ed.EDSettings(k=k, dense_threshold=0))

    @pytest.mark.parametrize("k", [13, 20])
    def test_more_levels_than_the_search_space_adds(self, k):
        # The two-band K = 0 block of N = 24 (519 states) at default
        # settings: k open pairs are more corrections than the
        # DAVIDSON_WIDTH rows a restart leaves free, so each restart takes
        # the lowest that fit and the rest wait for a later iteration.
        op = k0_hamiltonian(make_two_band_model(N=24))
        assert op.shape[0] == 519 > fock_ed.EDSettings().dense_threshold
        assert k > fock_ed.DAVIDSON_WIDTH
        result = self.assert_matches_dense(op, fock_ed.EDSettings(k=k))
        assert len(result.eigenvalues) == k

    def test_degenerate_pair_levels_counted_twice(self):
        # One pair, M = 48 (1,225 states) at k = 4: dense gives -0.0124,
        # 40.4537, 40.4537 and 80.9198, and the block of four vectors
        # reports the degenerate level twice, as dense does.
        result = self.assert_matches_dense(
            one_pair_hb(48), fock_ed.EDSettings(k=4, dense_threshold=0)
        )
        assert [round(e, 4) for e in result.eigenvalues] == [-0.0124, 40.4537, 40.4537, 80.9198]


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


# Mode sets of the lowering oracle: one pair and two bands on a line, the
# nine square-lattice modes with |n|_inf <= 1 and the seven-mode cross of d = 3.
LOWERING_MODE_SETS = {
    "one-pair": make_one_pair_model(N=2).mode_set(),
    "two-band": make_two_band_model(N=2).mode_set(),
    "square-9": build_mode_set(2, 1.5 * TWO_PI),
    "cross-7": build_mode_set(3, 1.2 * TWO_PI),
}


class TestZeroModeAnnihilation:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", LOWERING_MODE_SETS)
    def test_lowering_is_the_enumerated_n_minus_1_basis(self, name, n):
        # The whole n sector and each of its blocks, those with no n - 1
        # state included: the image is the n - 1 basis enumerated on its
        # own, row for row, and a_0 holds sqrt(n_0) at (image of row j, j)
        # for every row j with a zero-mode particle, and nothing else.
        modes = LOWERING_MODE_SETS[name]
        assert len(modes) == {"one-pair": 3, "two-band": 5, "square-9": 9, "cross-7": 7}[name]
        whole = fock_ed.enumerate_basis(modes, n_particles=n)
        for sector in [None, *whole.momentum_blocks()]:
            basis = fock_ed.enumerate_basis(modes, n, sector)
            image, a0 = fock_ed.zero_mode_annihilation(basis)
            expected = fock_ed.enumerate_basis(modes, n - 1, sector)
            assert (image.n_particles, image.momentum_sector) == (n - 1, sector)
            assert image.modes == modes
            assert np.array_equal(image.states, expected.states)
            zp = basis.zero_position
            held = np.flatnonzero(basis.states[:, zp] > 0)
            lowered = basis.states[held] - np.eye(len(modes), dtype=np.int64)[zp]
            dense = a0.toarray()
            assert dense.shape == (expected.size, basis.size)
            assert np.count_nonzero(dense) == len(held)
            assert (dense[expected.find(lowered), held] == np.sqrt(basis.states[held, zp])).all()

    def test_matrix_elements_are_sqrt_n0(self):
        modes = tuple(Momentum((n,)) for n in (-1, 0, 1))
        b3 = fock_ed.enumerate_basis(modes, n_particles=3)
        b2, a0 = fock_ed.zero_mode_annihilation(b3)
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
        _, a0 = fock_ed.zero_mode_annihilation(b4)
        rng = np.random.default_rng(11)
        for _ in range(5):
            psi = rng.standard_normal(b4.size)
            psi /= np.linalg.norm(psi)
            image = a0 @ psi
            expected = 4.0 - fock_ed.expect_nplus(psi, b4)
            assert float(image @ image) == pytest.approx(expected, abs=1e-12)

    def test_no_zero_mode_or_particle_rejected(self):
        no_zero = tuple(Momentum((n,)) for n in (-1, 1))
        with pytest.raises(ValueError, match="no zero mode"):
            fock_ed.zero_mode_annihilation(fock_ed.enumerate_basis(no_zero, n_particles=4))
        modes = tuple(Momentum((n,)) for n in (-1, 0, 1))
        with pytest.raises(ValueError, match="at least one particle"):
            fock_ed.zero_mode_annihilation(fock_ed.enumerate_basis(modes, n_particles=0))


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
        solved = fock_ed.solve_particle_sector(model)
        ground = np.zeros(full.size)
        ground[full.find(solved.basis.states)] = solved.merged.ground_vector
        sector = (
            full,
            fock_ed.build_hamiltonian(model, full),
            solved.merged.ground_energy,
            ground,
        )
        build = fock_ed.build_hamiltonian
        built = []

        def counting(model, basis):
            built.append(basis.n_particles)
            return build(model, basis)

        def no_solve(*args, **kwargs):
            raise AssertionError("the given sector is solved already")

        monkeypatch.setattr(fock_ed, "build_hamiltonian", counting)
        monkeypatch.setattr(fock_ed, "lowest_eigenpairs", no_solve)
        assert fock_ed.operator_identity_residuals(model, sector=sector) == fresh
        assert sorted(built) == [2, 4]

    def test_momentum_block_sector_refused(self):
        model = make_two_band_model(N=3)
        block, ham = fock_ed.momentum_block(model, 3, zero_momentum(1))
        result = fock_ed.lowest_eigenpairs(ham)
        sector = (block, ham, result.ground_energy, result.ground_vector)
        with pytest.raises(ValueError, match="whole N sector"):
            fock_ed.operator_identity_residuals(model, sector=sector)


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

    def test_ground_bound_value(self):
        # B = (2 pi)^2 + lambda n (n-1) w(0)/2 - lambda n sum_{l!=0} w(l)/2
        # on the sector of n particles, at |K|_1 = 1.
        one_pair = make_one_pair_model(N=8)
        assert fock_ed.block_energy_bound(one_pair, 8, 1) == pytest.approx(TWO_PI**2 - 1.0)
        assert fock_ed.block_energy_bound(one_pair, 7, 1) == pytest.approx(TWO_PI**2 - 0.875)
        table = {(-1,): 1.0, (0,): 2.0, (1,): 1.0}
        model = TorusModel(d=1, N=4, potential=PotentialSpec.from_table(table), mode_cutoff=7.0)
        expected = TWO_PI**2 + 0.25 * 4 * 3 * 2.0 / 2 - 0.25 * 4 * 2.0 / 2
        assert fock_ed.block_energy_bound(model, 4, 1) == pytest.approx(expected)
        assert fock_ed.block_energy_bound(model, 4, 3) == pytest.approx(expected + 2 * TWO_PI**2)

    def test_certified_binding_solves_no_whole_sector(self, monkeypatch):
        # The bound certifies the one-pair model at N = 8 and N = 7, so only
        # N's K = 0 block is built and enumerated; a_0 lowers it to N - 1's,
        # with no rank search.
        enumerate_basis, block = fock_ed.enumerate_basis, fock_ed.momentum_block
        sectors, blocks = [], []

        def spy(modes, n_particles, momentum_sector=None, **kwargs):
            sectors.append(momentum_sector)
            return enumerate_basis(modes, n_particles, momentum_sector, **kwargs)

        def spy_block(model, particles, momentum, *args, **kwargs):
            blocks.append((particles, momentum))
            return block(model, particles, momentum, *args, **kwargs)

        def no_find(self, occupations):
            raise AssertionError("a_0 searched for its targets")

        monkeypatch.setattr(fock_ed, "enumerate_basis", spy)
        monkeypatch.setattr(fock_ed, "momentum_block", spy_block)
        monkeypatch.setattr(fock_ed.FockBasis, "find", no_find)
        model = make_one_pair_model(N=8)
        binding = fock_ed.binding_from_ed(model)
        assert binding.E_N < fock_ed.block_energy_bound(model, 8, 1)
        assert binding.E_Nm1 < fock_ed.block_energy_bound(model, 7, 1)
        assert sectors == [zero_momentum(1)]
        assert blocks == [(8, zero_momentum(1))]
        assert binding.basis_Nm1.n_particles == 7
        assert binding.sector_minimum == binding.E_N
        assert binding.sector_minimum_Nm1 == binding.E_Nm1
        assert binding.k0_is_global is True and binding.converged

    def test_uncertified_binding_falls_back_to_the_whole_sector(self):
        # lambda N = 120 puts B = (2 pi)^2 - 120 below the K = 0 ground: more
        # blocks of each sector are solved, and the minima are those that
        # solving every block gives.
        model = make_one_pair_model(N=8, lam=15.0)
        binding = fock_ed.binding_from_ed(model)
        assert fock_ed.block_energy_bound(model, 8, 1) <= binding.E_N
        at_minimum = True
        for n, minimum, k0_ground in ((8, binding.sector_minimum, binding.E_N),
                                      (7, binding.sector_minimum_Nm1, binding.E_Nm1)):
            basis = fock_ed.enumerate_basis(model.mode_set(), n_particles=n)
            ham = fock_ed.build_hamiltonian(model, basis)
            _, _, _, ground = all_blocks_merged(basis, ham, fock_ed.EDSettings())
            assert minimum == ground.ground_energy
            rows = basis.momentum_blocks()[zero_momentum(1)]
            direct = fock_ed.lowest_eigenpairs(ham[rows][:, rows], fock_ed.EDSettings(k=2))
            assert k0_ground == direct.ground_energy
            at_minimum = at_minimum and abs(minimum - k0_ground) <= 1e-10 * max(1.0, abs(minimum))
        assert binding.k0_is_global is at_minimum
        assert binding.converged is (
            binding.result_N.converged and binding.result_Nm1.converged and at_minimum
        )

    def test_k0_not_global_is_reported(self, monkeypatch):
        # The nine square modes with only w_hat(+-(2, 0)) = 4 at lambda N =
        # 60: at N = 2 the K = 0 block does not hold the sector minimum, so
        # the binding is not converged. The bound does not certify, so the
        # loop goes on past K = 0 in both sectors: momentum_block builds N's
        # K = 0 block once, and blocks of N - 1 only past its K = 0.
        block = fock_ed.momentum_block
        blocks = []

        def spy_block(model, particles, momentum, *args, **kwargs):
            blocks.append((particles, momentum))
            return block(model, particles, momentum, *args, **kwargs)

        monkeypatch.setattr(fock_ed, "momentum_block", spy_block)
        model = TorusModel(
            d=2,
            N=2,
            potential=PotentialSpec.from_table({(2, 0): 4.0, (-2, 0): 4.0}),
            mode_cutoff=1.5 * TWO_PI,
            lam=30.0,
        )
        binding = fock_ed.binding_from_ed(model)
        assert fock_ed.block_energy_bound(model, 2, 1) <= binding.E_N
        assert binding.sector_minimum < binding.E_N
        assert binding.k0_is_global is False
        assert binding.converged is False
        k0 = zero_momentum(2)
        assert blocks[0] == (2, k0) and blocks.count((2, k0)) == 1
        assert (1, k0) not in blocks and any(n == 1 for n, _ in blocks)

    @pytest.mark.parametrize("case", ["one-pair-N8", "square-N4"])
    def test_nm1_sector_is_certified_too(self, case, monkeypatch):
        # With the bound patched 1,000 low, the one-level loop of each sector
        # solves its K != 0 blocks too, and reports the least level that
        # solving every block gives, the N - 1 sector's included; the N - 1
        # K = 0 block is the lowering of N's, never enumerated. Over the nine
        # square modes with only w_hat(+-(2, 0)) = 4 at lambda N = 150, the
        # K = 0 ground of N = 4 is the least level, but that of N = 3 is not
        # (0 against about -31.6 in a K != 0 block). So the N - 1 certificate
        # alone fails the binding.
        model = {
            "one-pair-N8": make_one_pair_model(N=8),
            "square-N4": TorusModel(
                d=2,
                N=4,
                potential=PotentialSpec.from_table({(2, 0): 4.0, (-2, 0): 4.0}),
                mode_cutoff=1.5 * TWO_PI,
                lam=150.0 / 4,
            ),
        }[case]
        enumerate_basis, bound = fock_ed.enumerate_basis, fock_ed.block_energy_bound
        sectors = []

        def spy(modes, n_particles, momentum_sector=None, **kwargs):
            sectors.append((n_particles, momentum_sector))
            return enumerate_basis(modes, n_particles, momentum_sector, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(fock_ed, "enumerate_basis", spy)
            patch.setattr(
                fock_ed,
                "block_energy_bound",
                lambda model, particles, shell: bound(model, particles, shell) - 1e3,
            )
            binding = fock_ed.binding_from_ed(model)
        assert any(n == model.N - 1 and not k.is_zero for n, k in sectors)
        assert (model.N - 1, zero_momentum(model.d)) not in sectors
        held = {}
        for n, minimum, k0_ground in ((model.N, binding.sector_minimum, binding.E_N),
                                      (model.N - 1, binding.sector_minimum_Nm1, binding.E_Nm1)):
            basis = fock_ed.enumerate_basis(model.mode_set(), n_particles=n)
            ham = fock_ed.build_hamiltonian(model, basis)
            _, _, _, ground = all_blocks_merged(basis, ham, fock_ed.EDSettings())
            assert minimum == ground.ground_energy
            held[n] = abs(minimum - k0_ground) <= 1e-10 * max(1.0, abs(minimum))
        assert held[model.N]
        assert held[model.N - 1] is (case == "one-pair-N8")
        assert binding.k0_is_global is binding.converged is held[model.N - 1]

    def test_unconverged_global_block_fails_the_binding(self, monkeypatch):
        # At lambda N = 120 the bound does not certify K = 0, so after the
        # K = 0 blocks of N = 8 and 7 the N = 8 loop goes on from the K = 0
        # result: K = +1 first, four states and not the ground. Its failure
        # alone fails the binding, while the K = 0 ground still attains the
        # sector minimum.
        solve = fock_ed.lowest_eigenpairs
        calls = []

        def failing_k1(op, *args, **kwargs):
            result = solve(op, *args, **kwargs)
            calls.append(op.shape[0])
            return replace(result, converged=False) if len(calls) == 3 else result

        monkeypatch.setattr(fock_ed, "lowest_eigenpairs", failing_k1)
        model = make_one_pair_model(N=8, lam=15.0)
        binding = fock_ed.binding_from_ed(model)
        assert fock_ed.block_energy_bound(model, 8, 1) <= binding.E_N
        assert calls[:3] == [5, 4, 4]
        assert binding.k0_is_global is True
        assert binding.result_N.converged and binding.result_Nm1.converged
        assert binding.converged is False

    def test_fallback_solves_the_k0_block_once(self, monkeypatch):
        # Where the bound does not certify (lambda N = 120), each sector's
        # one-level loop goes on from the K = 0 result the binding already
        # holds: each K = 0 block is solved once, N's is the only one built
        # by momentum_block and enumerated, N - 1's is its lowering, and no
        # whole sector is enumerated. The blocks are K = 0 of N = 8 (5
        # states) and N = 7 (4), then K = 1 of N = 8 (4) and of N = 7 (4);
        # each sector's shell-2 bound lies above its K = 0 ground.
        enumerate_basis, block = fock_ed.enumerate_basis, fock_ed.momentum_block
        solve = fock_ed.lowest_eigenpairs
        sectors, blocks, calls = [], [], []

        def spy_enumerate(modes, n_particles, momentum_sector=None, **kwargs):
            sectors.append((n_particles, momentum_sector))
            return enumerate_basis(modes, n_particles, momentum_sector, **kwargs)

        def spy_block(model, particles, momentum, *args, **kwargs):
            blocks.append((particles, momentum))
            return block(model, particles, momentum, *args, **kwargs)

        def spy_solve(op, *args, **kwargs):
            calls.append(op.shape[0])
            return solve(op, *args, **kwargs)

        monkeypatch.setattr(fock_ed, "enumerate_basis", spy_enumerate)
        monkeypatch.setattr(fock_ed, "momentum_block", spy_block)
        monkeypatch.setattr(fock_ed, "lowest_eigenpairs", spy_solve)
        model = make_one_pair_model(N=8, lam=15.0)
        binding = fock_ed.binding_from_ed(model)
        assert binding.E_N >= fock_ed.block_energy_bound(model, 8, 1)
        k0, k1 = Momentum((0,)), Momentum((1,))
        assert sectors == blocks == [(8, k0), (8, k1), (7, k1)]
        assert calls == [5, 4, 4, 4]
        for n, e in ((8, binding.E_N), (7, binding.E_Nm1)):
            assert fock_ed.block_energy_bound(model, n, 2) > e
        assert binding.k0_is_global and binding.converged

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ground_bound_certificate(self, data):
        # Random even nonnegative tables on the five modes of a line or the
        # nine of a square, couplings up to lambda N = 150: B lies below
        # every K != 0 block minimum of the whole sector; where it certifies
        # K = 0, the whole sector agrees; and the K = 0 results are the same
        # bits whether the bound certifies or every block is solved.
        d = data.draw(st.sampled_from([1, 2]))
        coefficient = st.one_of(st.just(0.0), st.floats(0.01, 4.0))
        table = {(0,) * d: data.draw(coefficient)}
        for ell in build_mode_set(d, 2.0 * TWO_PI * math.sqrt(d)):
            if ell > -ell:
                table[tuple(ell)] = table[tuple(-ell)] = data.draw(coefficient)
        n = data.draw(st.integers(2, 6 if d == 1 else 4))
        model = TorusModel(
            d=d,
            N=n,
            potential=PotentialSpec.from_table(table),
            mode_cutoff=(2.5 if d == 1 else 1.5) * TWO_PI,
            # The study's range of lambda N, or any up to 150.
            lam=data.draw(st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 150.0))) / n,
        )
        binding = fock_ed.binding_from_ed(model)
        bound = fock_ed.block_energy_bound(model, n, 1)
        basis = fock_ed.enumerate_basis(model.mode_set(), n_particles=n)
        solves = checks.block_solves(
            basis, fock_ed.build_hamiltonian(model, basis), fock_ed.EDSettings()
        )
        for k, result in solves.items():
            if not k.is_zero:
                energy = result.ground_energy
                assert bound <= energy + 1e-10 * max(1.0, abs(energy))
        minimum = min(r.ground_energy for r in solves.values())
        if binding.E_N < bound - 1e-10 * max(1.0, abs(bound)):
            assert abs(minimum - binding.E_N) <= 1e-10 * max(1.0, abs(minimum))
            assert binding.sector_minimum == binding.E_N
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fock_ed, "block_energy_bound", lambda model, particles, shell: -math.inf)
            fallback = fock_ed.binding_from_ed(model)
        assert fallback.sector_minimum == minimum
        assert (fallback.sector_minimum, fallback.sector_minimum_Nm1) == (
            binding.sector_minimum,
            binding.sector_minimum_Nm1,
        )
        assert (fallback.E_N, fallback.E_Nm1) == (binding.E_N, binding.E_Nm1)
        for mine, theirs in ((binding.result_N, fallback.result_N),
                             (binding.result_Nm1, fallback.result_Nm1)):
            assert np.array_equal(mine.ground_vector, theirs.ground_vector)
        ours, theirs = fock_ed.variational_sandwich(binding), fock_ed.variational_sandwich(fallback)
        assert (ours.lower, ours.upper) == (theirs.lower, theirs.upper)

    @pytest.mark.parametrize(
        "n, cutoff", [(3, 7.0), (4, 2.5 * TWO_PI)], ids=["pair-N3", "two-band-N4"]
    )
    def test_no_zero_mode_raises(self, n, cutoff):
        # Modes +-1 (and +-2) and no zero mode: a_0 has nothing to lower,
        # whether the K = 0 block is empty (three particles on +-1) or not.
        model = TorusModel(
            d=1,
            N=n,
            potential=PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0}),
            mode_cutoff=cutoff,
            include_zero_mode=False,
        )
        with pytest.raises(ValueError, match="no zero mode"):
            fock_ed.binding_from_ed(model)

    @FULL_SECTORS
    @pytest.mark.parametrize("dense_threshold", [500, 10], ids=["dense", "lanczos"])
    def test_matches_standalone_k0_solves(self, model, dense_threshold):
        # The oracle enumerates, assembles and solves each K = 0 sector on
        # its own, and finds a_0's targets by rank search; the binding lowers
        # N's block to N - 1's. A threshold of 10 sends every K = 0 block to
        # Davidson.
        settings = fock_ed.EDSettings(dense_threshold=dense_threshold)
        k0 = zero_momentum(model.d)
        bases, hams, results = {}, {}, {}
        for n in (model.N, model.N - 1):
            bases[n] = fock_ed.enumerate_basis(model.mode_set(), n, momentum_sector=k0)
            hams[n] = fock_ed.build_hamiltonian(model, bases[n])
            results[n] = fock_ed.lowest_eigenpairs(hams[n], settings)
        binding = fock_ed.binding_from_ed(model, settings)
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
        # a_0 by rank search: each row of N's block with a zero-mode
        # particle, lowered and located in the enumerated N - 1 block.
        upper, lower = bases[model.N], bases[model.N - 1]
        zp = upper.zero_position
        cols = np.flatnonzero(upper.states[:, zp] > 0)
        lowered = upper.states[cols] - np.eye(len(upper.modes), dtype=np.int64)[zp]
        a0 = scipy.sparse.coo_matrix(
            (np.sqrt(upper.states[cols, zp]), (lower.find(lowered), cols)),
            shape=(lower.size, upper.size),
        ).tocsr()
        assert_same_csr(binding.a0, a0)
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
            a0=a0,
            sector_minimum=results[model.N].ground_energy,
            sector_minimum_Nm1=results[model.N - 1].ground_energy,
            k0_is_global=True,
            converged=True,
        )
        ours, theirs = fock_ed.variational_sandwich(binding), fock_ed.variational_sandwich(oracle)
        assert (ours.lower, ours.upper) == (theirs.lower, theirs.upper)


class TestVariationalSandwich:
    def test_no_trial_state_gives_the_vacuous_lower_bound(self):
        # w_hat(+-(2, 1)) = 4 at lambda = 28, N = 2 over the nine square
        # modes: the K = 0 ground holds no zero-mode particle, so a_0 Psi_N
        # = 0 and there is no trial state for the lower bound.
        model = TorusModel(
            d=2,
            N=2,
            potential=PotentialSpec.from_table({(2, 1): 4.0, (-2, -1): 4.0}),
            mode_cutoff=1.5 * TWO_PI,
            lam=28.0,
        )
        binding = fock_ed.binding_from_ed(model)
        zp = binding.basis_N.zero_position
        held = binding.basis_N.states[:, zp] > 0
        assert not binding.result_N.ground_vector[held].any()
        sw = fock_ed.variational_sandwich(binding)
        assert sw.lower == -math.inf
        assert math.isfinite(sw.upper) and sw.delta_E <= sw.upper + 1e-9
        assert sw.norm_identity_dev_N <= 1e-10 and sw.norm_identity_dev_Nm1 <= 1e-10

    def test_bracket_and_norm_identities(self):
        model = make_one_pair_model(N=8)
        sw = fock_ed.variational_sandwich(fock_ed.binding_from_ed(model))
        assert sw.lower - 1e-9 <= sw.delta_E <= sw.upper + 1e-9
        assert sw.norm_identity_dev_N <= 1e-10
        assert sw.norm_identity_dev_Nm1 <= 1e-10
        assert sw.converged

    def test_n16_golden(self):
        model = make_one_pair_model(N=16)
        sw = fock_ed.variational_sandwich(fock_ed.binding_from_ed(model))
        lower, de, upper = GOLD_SW16
        assert sw.lower == pytest.approx(lower, abs=1e-9)
        assert sw.delta_E == pytest.approx(de, abs=1e-9)
        assert sw.upper == pytest.approx(upper, abs=1e-9)

    def test_reuses_precomputed_binding(self, monkeypatch):
        model = make_one_pair_model(N=6)
        binding = fock_ed.binding_from_ed(model)

        def no_rebuild(*args, **kwargs):
            raise AssertionError("the sandwich must reuse the binding's operators")

        monkeypatch.setattr(fock_ed, "build_hamiltonian", no_rebuild)
        sw = fock_ed.variational_sandwich(binding)
        assert sw.delta_E == binding.delta_E
