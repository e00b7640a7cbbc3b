"""The invariant battery: every check passes on valid models, and each check
function reports a violation on a broken input."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from torusbog import bogoliubov, checks, fock_ed
from torusbog.model import (
    Momentum,
    PotentialSpec,
    TorusModel,
    normalize_zero_mode,
    zero_momentum,
)

TWO_PI = 2.0 * math.pi

CHECK_NAMES = [
    "real_space_range",
    "quadratic_relation",
    "pair_identity",
    "alpha_range",
    "eB_summand_bounds",
    "hb_cutoff_converged",
    "hb_ground_matches_eB",
    "quasifree_occupation",
    "quasifree_pairing",
    "double_commutator_identity",
    "number_identity",
    "variational_sandwich",
    "norm_identities",
    "hermiticity",
    "condensation_lower_bound",
    "momentum_block_diagonal",
    "condensate_upper_bound",
    "global_ground_bound",
]


def zero_mode_pair_model() -> TorusModel:
    """One pair with w_hat(0) = 2, the model of the CLI's zero-mode offset case."""
    potential = PotentialSpec.from_table({(-1,): 1.0, (0,): 2.0, (1,): 1.0})
    return TorusModel(d=1, N=4, potential=potential, mode_cutoff=7.0)


def square_model() -> TorusModel:
    """The nine d = 2 modes with |n|_inf <= 1."""
    potential = PotentialSpec.from_table(
        {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 0.8, (0, -1): 0.8, (1, 1): 0.5, (-1, -1): 0.5}
    )
    return TorusModel(d=2, N=4, potential=potential, mode_cutoff=1.5 * TWO_PI)


def far_pair_model() -> TorusModel:
    """w_hat(+-(2, 1)) = 224 at N = 2 over the nine square modes with
    |n|_inf <= 1, lambda = 1/2: the K = 0 ground holds no zero-mode particle
    (a_0 Psi_N = 0), and every K != 0 block lies at (2 pi)^2 or above."""
    potential = PotentialSpec.from_table({(2, 1): 224.0, (-2, -1): 224.0})
    return TorusModel(d=2, N=2, potential=potential, mode_cutoff=1.5 * TWO_PI)


SETTINGS = fock_ed.EDSettings()


def k0_operator(model: TorusModel):
    basis = fock_ed.enumerate_basis(
        model.mode_set(), n_particles=model.N, momentum_sector=zero_momentum(model.d)
    )
    return fock_ed.build_hamiltonian(model, basis)


def whole_sector(model: TorusModel):
    basis = fock_ed.enumerate_basis(model.mode_set(), n_particles=model.N)
    return basis, fock_ed.build_hamiltonian(model, basis)


def single_entry(i: int, j: int, value: float, size: int):
    return scipy.sparse.csr_matrix(([value], ([i], [j])), shape=(size, size))


class TestBattery:
    @pytest.mark.parametrize(
        "model, names",
        [
            (checks.default_selfcheck_model(), CHECK_NAMES),
            (zero_mode_pair_model(), CHECK_NAMES + ["zero_mode_offset_exact"]),
            (square_model(), CHECK_NAMES),
            (far_pair_model(), CHECK_NAMES),
        ],
        ids=["default", "one-pair-w0-2", "square-9-modes", "far-pair-no-condensate"],
    )
    def test_every_check_passes(self, model, names):
        battery = checks.battery(model, SETTINGS, fock_ed.HBSettings())
        assert [c.name for c in battery] == names
        assert [c.name for c in battery if not c.ok] == []
        assert all(type(c.ok) is bool for c in battery)

    def test_default_model_assembles_five_operators(self, monkeypatch):
        # The whole 4-particle sector is assembled once and serves the
        # identities, the block-diagonal check and its K = 0 block; the other
        # four are the 3- and 5-particle sectors and the sandwich's two blocks.
        build = fock_ed.build_hamiltonian
        built = []

        def counting(model, basis):
            built.append((basis.n_particles, basis.momentum_sector))
            return build(model, basis)

        monkeypatch.setattr(fock_ed, "build_hamiltonian", counting)
        battery = checks.battery(checks.default_selfcheck_model(), SETTINGS, fock_ed.HBSettings())
        assert all(c.ok for c in battery)
        k0 = zero_momentum(1)
        assert sorted(built, key=str) == sorted(
            [(3, None), (4, None), (5, None), (6, k0), (5, k0)], key=str
        )

    def test_default_model_solves_its_particle_sector_once(self, monkeypatch):
        # The whole 4-particle sector of the default model holds 15 states;
        # the identities take its ground from the battery's block solve, so
        # no 15-state operator is ever solved whole.
        solve = fock_ed.lowest_eigenpairs
        dims = []

        def recording(op, *args, **kwargs):
            dims.append(op.shape[0])
            return solve(op, *args, **kwargs)

        monkeypatch.setattr(fock_ed, "lowest_eigenpairs", recording)
        model = checks.default_selfcheck_model()
        battery = checks.battery(model, SETTINGS, fock_ed.HBSettings())
        assert all(c.ok for c in battery)
        assert fock_ed.enumerate_basis(model.mode_set(), n_particles=4).size == 15
        assert 15 not in dims

    def test_cli_imports_checks_lazily(self):
        code = "import sys, torusbog.cli; print('torusbog.checks' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(checks.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.strip() == "False"


class TestViolations:
    def test_mode_checks(self):
        mq = bogoliubov.mode_quantities(Momentum((1,)), 1.0)
        assert all(c.ok for c in checks.mode_checks([mq]))
        broken = {
            "quadratic_relation": replace(mq, alpha_p=mq.alpha_p * (1.0 + 1e-9)),
            "alpha_range": replace(mq, alpha_p=1.0),
            # e_p = -|p|^2 makes s_p = w / 2, far above w^2 / (2 |p|^2).
            "eB_summand_bounds": replace(mq, e_p=-mq.p.norm2),
        }
        for name, bad in broken.items():
            failed = {c.name for c in checks.mode_checks([mq, bad]) if not c.ok}
            assert name in failed
        # alpha enters the pair identity 2 s_p = alpha * w, s_p does not.
        failed = {c.name for c in checks.mode_checks([broken["quadratic_relation"]]) if not c.ok}
        assert failed == {"quadratic_relation", "pair_identity"}

    def test_mode_algebra_of_no_coupled_mode(self):
        free = bogoliubov.mode_quantities(Momentum((1,)), 0.0)
        assert checks.mode_algebra([free]) == (0.0,) * 6
        assert all(c.ok for c in checks.mode_checks([free]))

    @staticmethod
    def failed(model, basis, ham) -> set[str]:
        solves = checks.block_solves(basis, ham, SETTINGS)
        return {c.name for c in checks.sector_checks(model, basis, ham, solves, SETTINGS)
                if not c.ok}

    def test_sector_checks(self):
        model = zero_mode_pair_model()
        basis, ham = whole_sector(model)
        solves = checks.block_solves(basis, ham, SETTINGS)
        names = [c.name for c in checks.sector_checks(model, basis, ham, solves, SETTINGS)]
        assert names == CHECK_NAMES[-5:] + ["zero_mode_offset_exact"]
        assert self.failed(model, basis, ham) == set()
        blocks = basis.momentum_blocks()
        k0_rows = blocks[zero_momentum(1)]
        other_rows = next(r for k, r in blocks.items() if not k.is_zero)
        size = basis.size
        # A non-symmetric operator: one entry inside the K = 0 block, not mirrored.
        skew = single_entry(k0_rows[0], k0_rows[1], 1e-3, size)
        assert "hermiticity" in self.failed(model, basis, ham + skew)
        # An entry that crosses momentum blocks.
        cross = single_entry(k0_rows[0], other_rows[0], 0.5, size)
        assert self.failed(model, basis, ham + cross) == {"momentum_block_diagonal"}
        crossing = checks.sector_checks(
            model, basis, ham + cross, checks.block_solves(basis, ham + cross, SETTINGS), SETTINGS
        )
        assert crossing[2].detail == "1 entries cross momentum sectors"
        # An operator pushed below the condensation bound.
        lowered = ham - 1e3 * scipy.sparse.identity(size, format="csr")
        assert "condensation_lower_bound" in self.failed(model, basis, lowered)
        # One K != 0 block's diagonal shifted down, its minimum 1 below the
        # bound that certifies K = 0.
        k = next(k for k in solves if not k.is_zero)
        shift = solves[k].ground_energy - fock_ed.block_energy_bound(model, model.N, 1) + 1.0
        down = scipy.sparse.diags(np.isin(np.arange(size), blocks[k]) * -shift, format="csr")
        assert self.failed(model, basis, ham + down) == {"global_ground_bound"}

    def test_global_ground_bound_is_vacuous_without_k_nonzero_blocks(self):
        # Below 2 pi the mode set is the zero mode alone: only K = 0 exists.
        model = replace(zero_mode_pair_model(), mode_cutoff=1.0)
        basis, ham = whole_sector(model)
        solves = checks.block_solves(basis, ham, SETTINGS)
        assert list(solves) == [zero_momentum(1)]
        check = next(c for c in checks.sector_checks(model, basis, ham, solves, SETTINGS)
                     if c.name == "global_ground_bound")
        assert check.ok

    def test_global_ground_bound_reads_the_blocks_the_solve_skipped(self, monkeypatch):
        # block_solves solves K = 0 and the greater block of each pair, each
        # on its slice of the operator, with no bound to skip any: the least
        # K != 0 level, (2 pi)^2, is read whichever blocks a pruned solve
        # would visit, and a bound B above it fails.
        model = far_pair_model()
        basis, ham = whole_sector(model)
        solves = checks.block_solves(basis, ham, SETTINGS)
        blocks = basis.momentum_blocks()
        assert list(solves) == [k for k in blocks if k >= -k] and len(solves) > 1
        for k, result in solves.items():
            rows = blocks[k]
            direct = fock_ed.lowest_eigenpairs(ham[rows][:, rows], replace(SETTINGS, k=2))
            assert result.ground_energy == direct.ground_energy
        least = min(r.ground_energy for k, r in solves.items() if not k.is_zero)
        assert least == pytest.approx(TWO_PI**2, abs=1e-9)
        assert self.failed(model, basis, ham) == set()
        monkeypatch.setattr(
            fock_ed, "block_energy_bound", lambda model, particles, shell: least + 0.5
        )
        assert self.failed(model, basis, ham) == {"global_ground_bound"}

    def test_zero_mode_offset(self):
        model = zero_mode_pair_model()
        shifted, offset = normalize_zero_mode(model.potential)
        ground, shifted_ground = (
            fock_ed.lowest_eigenpairs(k0_operator(m)).ground_energy
            for m in (model, replace(model, potential=shifted))
        )
        assert checks.zero_mode_offset(ground, shifted_ground, offset(model.lam, 4)).ok
        # The offset of N - 1 particles is off by lambda w(0) (N - 1).
        assert not checks.zero_mode_offset(ground, shifted_ground, offset(model.lam, 3)).ok
