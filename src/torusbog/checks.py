"""The invariant battery: each exact relation the selfcheck verb checks, written once.

battery() runs every check on one model and returns one Check per relation,
in report order. The measurements behind the checks (mode_algebra,
random_vector_bounds, off_block_entries, block_solves) are plain functions,
so the unit tests call the same code and assert their own bounds on its
numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import bogoliubov, fock_ed
from .model import PotentialSpec, TorusModel, normalize_zero_mode, real_space_eval
from .model import zero_momentum


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _at_most(name: str, value: float, bound: float, what: str) -> Check:
    return Check(name, value <= bound, f"{what} {value:.3e}")


def default_selfcheck_model() -> TorusModel:
    potential = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0})
    return TorusModel(d=1, N=6, potential=potential, mode_cutoff=2.0 * math.pi * 1.25)


def mode_algebra(modes: Sequence[bogoliubov.ModeQuantities]) -> tuple[float, ...]:
    """(quadratic, pair, alpha_min, alpha_max, summand_min, summand_ratio) over
    the modes with w_hat != 0, all 0 over none: the largest relative residuals
    of w (1 + alpha^2) = 2 (|p|^2 + w) alpha, which defines alpha_p, and of the
    pair identity 2 s_p = alpha_p w; the range of alpha_p; the least s_p and
    the largest s_p / (w^2 / (2 |p|^2))."""
    rows = []
    for mq in modes:
        if mq.w_hat == 0.0:
            continue
        p2, w, alpha, s = mq.p.norm2, mq.w_hat, mq.alpha_p, mq.eB_summand
        lhs = w * (1.0 + alpha**2)
        quadratic = abs(lhs - 2.0 * (p2 + w) * alpha) / max(abs(lhs), 1e-300)
        pair = abs(2.0 * s - alpha * w) / max(abs(alpha * w), 1e-300)
        rows.append((quadratic, pair, alpha, s, s / (w**2 / (2.0 * p2))))
    if not rows:
        return (0.0,) * 6
    quadratic, pair, alpha, s, ratio = zip(*rows)
    return max(quadratic), max(pair), min(alpha), max(alpha), min(s), max(ratio)


def mode_checks(modes: Sequence[bogoliubov.ModeQuantities]) -> list[Check]:
    quadratic, pair, alpha_min, alpha_max, summand_min, summand_ratio = mode_algebra(modes)
    summand_ok = -1e-15 <= summand_min and summand_ratio <= 1 + 1e-12
    return [
        _at_most("quadratic_relation", quadratic, 1e-12, "max relative residual"),
        _at_most("pair_identity", pair, 1e-12, "max relative residual"),
        Check("alpha_range", 0.0 <= alpha_min and alpha_max < 1.0, "0 <= alpha < 1"),
        Check("eB_summand_bounds", summand_ok, "0 <= s_p <= w^2/(2|p|^2)"),
    ]


def random_vector_bounds(
    model: TorusModel, basis: fock_ed.FockBasis, ham, seed: int, samples: int = 20
) -> tuple[float, float]:
    """Worst asymmetry and worst condensation-bound violation of H over random vectors.

    Each sample draws u and v from one rng stream. The asymmetry is
    |<u, H v> - <H u, v>| / (|u| |v|); the violation is by how much the unit
    vector w = v / |v| goes below (2 pi)^2 <w, N+ w> - lambda n W / 2, with n
    the basis's particle number and W the potential's coefficient sum.
    """
    rng = np.random.default_rng(seed)
    exc = basis.excitation_counts().astype(float)
    offset = model.lam * basis.n_particles * model.potential.coefficient_sum / 2.0
    worst_sym = worst_low = 0.0
    for _ in range(samples):
        u = rng.standard_normal(basis.size)
        v = rng.standard_normal(basis.size)
        sym = abs(u @ (ham @ v) - (ham @ u) @ v)
        worst_sym = max(worst_sym, float(sym / (np.linalg.norm(u) * np.linalg.norm(v))))
        w = v / np.linalg.norm(v)
        bound = (2.0 * math.pi) ** 2 * float((w * w) @ exc) - offset
        worst_low = max(worst_low, bound - float(w @ (ham @ w)))
    return worst_sym, worst_low


def off_block_entries(ham, rows: dict) -> int:
    """Nonzero entries of ham outside the diagonal blocks of rows' index sets."""
    inside = sum(np.count_nonzero(ham[r][:, r].data) for r in rows.values())
    return int(np.count_nonzero(ham.data) - inside)


def block_solves(basis: fock_ed.FockBasis, ham, settings: fock_ed.EDSettings) -> dict:
    """lowest_eigenpairs at settings on K = 0 and one block of each pair
    {K, -K} of basis (the greater, or the one present), each on its own
    operator ham[rows][:, rows], by increasing momentum. No bound skips a
    block, so a check against every block minimum keeps its strength."""
    blocks = basis.momentum_blocks()
    return {
        k: fock_ed.lowest_eigenpairs(ham[rows][:, rows], settings)
        for k, rows in blocks.items()
        if k >= -k or -k not in blocks
    }


def zero_mode_offset(ground: float, shifted_ground: float, offset: float) -> Check:
    """Whether the ground with w_hat(0) zeroed, plus the exact offset, is the ground."""
    dev = abs(shifted_ground + offset - ground) / max(1.0, abs(ground))
    return _at_most("zero_mode_offset_exact", dev, 1e-10, "relative dev")


def sector_checks(
    model: TorusModel,
    basis: fock_ed.FockBasis,
    ham,
    solves: dict,
    settings: fock_ed.EDSettings,
) -> list[Check]:
    """The checks on model's whole N sector, its basis and H on it, with
    solves its block_solves: the K = 0 block's hermiticity, both energy
    bounds and, where w_hat(0) != 0, the exact zero-mode offset, whether the
    operator is block diagonal, and whether the bound that certifies K = 0
    in binding_from_ed, block_energy_bound at |K|_1 = 1, lies below the
    minimum of every K != 0 block (vacuously when there is none)."""
    n, k0 = model.N, zero_momentum(model.d)
    blocks = basis.momentum_blocks()
    block = fock_ed.enumerate_basis(basis.modes, n, k0)
    sym, low = random_vector_bounds(model, block, ham[blocks[k0]][:, blocks[k0]], settings.seed)
    off = off_block_entries(ham, blocks)
    trial = model.lam * model.potential.w_zero * n * (n - 1) / 2.0
    bound = fock_ed.block_energy_bound(model, n, 1)
    ground = solves[k0].ground_energy
    least = min((r.ground_energy for k, r in solves.items() if k != k0), default=math.inf)
    out = [
        _at_most("hermiticity", sym, 1e-10, "max asymmetry"),
        _at_most("condensation_lower_bound", low, 1e-9, "max violation"),
        Check("momentum_block_diagonal", off == 0, f"{off} entries cross momentum sectors"),
        Check("condensate_upper_bound", ground <= trial + 1e-9,
              f"E0 {ground:.6e} <= trial {trial:.6e}"),
        Check("global_ground_bound", bound <= least + 1e-9,
              f"B {bound:.6e} <= least K != 0 level {least:.6e}"),
    ]
    shifted, offset = normalize_zero_mode(model.potential)
    if shifted is not model.potential:
        shifted_ham = fock_ed.build_hamiltonian(replace(model, potential=shifted), block)
        shifted_ground = fock_ed.lowest_eigenpairs(shifted_ham, replace(settings, k=1))
        out.append(zero_mode_offset(ground, shifted_ground.ground_energy, offset(model.lam, n)))
    return out


def battery(
    model: TorusModel, ed_settings: fock_ed.EDSettings, hb_settings: fock_ed.HBSettings
) -> list[Check]:
    """Every invariant on model, which must hold the zero mode, in report order.

    The operator checks run on n = min(N, 4) particles and the variational
    sandwich on min(N, 6). The whole n sector is assembled once, and each
    block of block_solves is solved once on its slice of it: the identities
    read the operator and the least block ground, placed in the whole basis,
    and sector_checks the operator and the block solves.
    """
    bound = model.potential.coefficient_sum
    points = ([(i * 0.0625 + 0.013 * axis) % 1.0 for axis in range(model.d)] for i in range(17))
    worst_eval = max(abs(real_space_eval(model.potential, x)) for x in points)
    solution = bogoliubov.solve(model)
    out = [
        Check("real_space_range", worst_eval <= bound * (1.0 + 1e-12),
              f"max |w(x)| {worst_eval:.6e} vs bound {bound:.6e}"),
        *mode_checks(solution.modes),
    ]

    hb = fock_ed.converged_bogoliubov_ground(
        model.nonzero_modes(), model.potential, hb_settings, ed_settings
    )
    hb_dev = abs(hb.result.ground_energy - solution.e_B)
    out += [
        Check("hb_cutoff_converged", hb.converged,
              f"cutoff {hb.cutoff_used}, delta {hb.delta_achieved:.3e}"),
        Check("hb_ground_matches_eB", hb_dev < 1e-8, f"|ground - e_B| = {hb_dev:.3e}"),
    ]
    if hb.result.vector_reliable:
        vec, paired = hb.result.ground_vector, [mq for mq in solution.modes if mq.w_hat != 0.0]
        occ = max((abs(fock_ed.expect_mode_occupation(vec, hb.basis, mq.p) - mq.n_p)
                   for mq in paired), default=0.0)
        pair = max((abs(fock_ed.expect_pairing(vec, hb.basis, mq.p) - mq.m_p)
                    for mq in paired), default=0.0)
        out += [
            _at_most("quasifree_occupation", occ, 1e-6, "max |n_p dev|"),
            _at_most("quasifree_pairing", pair, 1e-6, "max |m_p dev|"),
        ]

    small = model if model.N <= 4 else replace(model, N=4, lam=model.lam)
    basis = fock_ed.enumerate_basis(model.mode_set(), n_particles=small.N)
    ham = fock_ed.build_hamiltonian(small, basis)
    solves = block_solves(basis, ham, ed_settings)
    ground_at = min(solves, key=lambda k: (solves[k].ground_energy, k))
    ground = np.zeros(basis.size)
    ground[basis.momentum_blocks()[ground_at]] = solves[ground_at].ground_vector
    residuals = fock_ed.operator_identity_residuals(
        small, sector=(basis, ham, solves[ground_at].ground_energy, ground)
    )
    out += [
        _at_most("double_commutator_identity", residuals.residual_a, 1e-10, "residual"),
        _at_most("number_identity", residuals.residual_b, 1e-8, "relative residual"),
    ]

    sandwich = fock_ed.variational_sandwich(fock_ed.binding_from_ed(
        model if model.N <= 6 else replace(model, N=6, lam=model.lam),
        ed_settings,
        check_global=False,
    ))
    devs = (sandwich.norm_identity_dev_N, sandwich.norm_identity_dev_Nm1)
    out += [
        Check("variational_sandwich",
              sandwich.lower - 1e-9 <= sandwich.delta_E <= sandwich.upper + 1e-9,
              f"lower {sandwich.lower:.6e} <= dE {sandwich.delta_E:.6e} "
              f"<= upper {sandwich.upper:.6e}"),
        Check("norm_identities", max(devs) <= 1e-10, "devs {:.3e}, {:.3e}".format(*devs)),
    ]
    return out + sector_checks(small, basis, ham, solves, ed_settings)
