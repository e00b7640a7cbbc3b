"""The N-sweep experiment: residual extraction, extrapolation, quasi-free overlap.

For each N the binding energy deltaE(N) = E(lambda,N) - E(lambda,N-1) is computed
exactly on the truncated lattice, the leading term lambda*(N-1)*w_hat(0) is
subtracted, and the residual r(N) = N*(deltaE - leading) is confronted with the
consistent-truncation prediction e_B - D, both sums running over exactly the mode
set the diagonalization used.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import bogoliubov, fock_ed
from .model import TorusModel


# Fit models of the residual: r_inf plus powers of 1/N, lowest order first.
FIT_MODELS = ("1/N", "1/N+1/N2")


@dataclass(frozen=True)
class SweepConfig:
    """Template model plus the sweep schedule; coupling follows lambda = c/N.

    Range-checked on construction; every message starts with the field it
    names.
    """

    base: TorusModel
    N_values: tuple[int, ...]
    coupling_c: float = 1.0
    fit_model: str = FIT_MODELS[0]
    ed: fock_ed.EDSettings = fock_ed.EDSettings()
    hb: fock_ed.HBSettings = fock_ed.HBSettings()
    with_overlap: bool = True
    check_global: bool = True

    def __post_init__(self) -> None:
        values = tuple(int(v) for v in self.N_values)
        object.__setattr__(self, "N_values", values)
        if not values:
            raise ValueError("N_values is empty")
        if any(v < 2 for v in values):
            raise ValueError(f"N_values must each be at least 2, got {list(values)}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(f"N_values must be strictly increasing, got {list(values)}")
        # Mean-field study regime: lambda*N = c stays within [0.5, 2].
        if not 0.5 <= self.coupling_c <= 2.0:
            raise ValueError(f"coupling_c must lie in [0.5, 2], got {self.coupling_c}")
        if self.fit_model not in FIT_MODELS:
            raise ValueError(
                f"fit_model must name a fit model of {FIT_MODELS}, got {self.fit_model!r}"
            )


@dataclass(frozen=True)
class StudyRecord:
    N: int
    lam: float
    E_N: float
    E_Nm1: float
    delta_E: float
    leading_term: float
    residual_r: float
    converged: bool
    overlap: float | None
    nplus: float
    nplus2: float
    sandwich_lower: float
    sandwich_upper: float
    residual_norm_N: float
    residual_norm_Nm1: float


@dataclass(frozen=True)
class FitResult:
    r_inf: float
    coefficients: tuple[float, ...]
    max_deviation: float
    model: str
    n_used: int
    ok: bool


@dataclass(frozen=True)
class StudyReport:
    records: tuple[StudyRecord, ...]
    prediction: float
    e_B: float
    D: float
    e_B_tail_bound: float
    D_tail_bound: float
    fit: FitResult | None
    hb_cutoff_used: int | None
    hb_cutoff_delta: float | None


def extrapolate_residual(
    points: Sequence[tuple[int, float]], fit_model: str = FIT_MODELS[0]
) -> FitResult:
    """Least-squares fit r(N) = r_inf + a/N (optionally + b/N^2).

    Needs at least 3 points; a rank-deficient system is reported via ok=False,
    with the minimum-norm solution still returned.
    """
    if len(points) < 3:
        raise ValueError(f"need at least 3 converged records, got {len(points)}")
    if fit_model not in FIT_MODELS:
        raise ValueError(f"unknown fit model {fit_model!r}")
    ns = np.asarray([float(n) for n, _ in points])
    rs = np.asarray([float(r) for _, r in points])
    powers = [np.ones_like(ns), 1.0 / ns, 1.0 / (ns * ns)]
    columns = powers[: FIT_MODELS.index(fit_model) + 2]
    design = np.stack(columns, axis=1)
    coef, _, rank, _ = np.linalg.lstsq(design, rs, rcond=None)
    deviation = float(np.max(np.abs(design @ coef - rs)))
    return FitResult(
        r_inf=float(coef[0]),
        coefficients=tuple(float(c) for c in coef),
        max_deviation=deviation,
        model=fit_model,
        n_used=len(points),
        ok=rank == design.shape[1],
    )


def quasifree_overlap(
    psi: np.ndarray,
    basis_n: fock_ed.FockBasis,
    phi: np.ndarray,
    basis_exc: fock_ed.FockBasis,
) -> float:
    """|<U_N Psi_N, Phi>| with Phi truncated to <= N excitations and renormalized.

    The bases may have different excitation cutoffs; states absent from one side
    contribute nothing to the inner product.
    """
    images = fock_ed.strip_zero_mode(basis_n, basis_exc)
    keep = basis_exc.excitation_counts() <= basis_n.n_particles
    phi_kept = np.where(keep, phi, 0.0)
    norm = float(np.linalg.norm(phi_kept))
    if norm == 0.0:
        raise ValueError("quasi-free vector vanishes below the excitation cutoff")
    phi_kept /= norm
    hit = images >= 0
    return abs(float(psi[hit] @ phi_kept[images[hit]]))


def solve_quasifree_reference(config: SweepConfig) -> fock_ed.HBGround | None:
    """One pair-Hamiltonian solve shared by every record of the sweep."""
    if not config.with_overlap:
        return None
    n_max = config.N_values[-1]
    template = replace(config.base, N=n_max, lam=None)
    # The overlap needs every excitation count of an n_max-particle state.
    hb = replace(
        config.hb,
        start_cutoff=max(config.hb.start_cutoff, n_max),
        max_cutoff=max(config.hb.max_cutoff, n_max + 2),
    )
    return fock_ed.converged_bogoliubov_ground(
        template.nonzero_modes(), config.base.potential, hb, config.ed
    )


def binding_record(
    config: SweepConfig, n: int, hb: fock_ed.HBGround | None
) -> StudyRecord:
    """One sweep point: both sector solves, sandwich, residual, overlap."""
    lam = config.coupling_c / n
    model = replace(config.base, N=n, lam=lam)
    binding = fock_ed.binding_from_ed(model, config.ed, config.check_global)
    sandwich = fock_ed.variational_sandwich(binding)
    w0 = config.base.potential.w_zero
    leading = lam * (n - 1) * w0
    residual = n * (binding.delta_E - leading)
    overlap = None
    converged = binding.converged
    if hb is not None:
        converged = converged and hb.converged
        overlap = quasifree_overlap(
            binding.result_N.ground_vector,
            binding.basis_N,
            hb.result.ground_vector,
            hb.basis,
        )
    return StudyRecord(
        N=n,
        lam=lam,
        E_N=binding.E_N,
        E_Nm1=binding.E_Nm1,
        delta_E=binding.delta_E,
        leading_term=leading,
        residual_r=residual,
        converged=converged,
        overlap=overlap,
        nplus=fock_ed.expect_nplus(binding.result_N.ground_vector, binding.basis_N),
        nplus2=fock_ed.expect_nplus2(binding.result_N.ground_vector, binding.basis_N),
        sandwich_lower=sandwich.lower,
        sandwich_upper=sandwich.upper,
        residual_norm_N=binding.result_N.residual_norm,
        residual_norm_Nm1=binding.result_Nm1.residual_norm,
    )


def run_binding_study(config: SweepConfig, record_loader=None) -> StudyReport:
    """Solve every (N, N-1) pair, attach overlaps, fit the converged residuals.

    record_loader, when given, is called as (config, n, hb) in place of
    binding_record; callers use it to interpose a result cache.
    """
    prediction_model = replace(config.base, N=config.N_values[-1], lam=None)
    solution = bogoliubov.solve(prediction_model)
    prediction = solution.e_B - solution.D
    hb = solve_quasifree_reference(config)
    loader = record_loader if record_loader is not None else binding_record
    records = [loader(config, n, hb) for n in config.N_values]
    usable = [(rec.N, rec.residual_r) for rec in records if rec.converged]
    fit = None
    if len(usable) >= 3:
        fit = extrapolate_residual(usable, config.fit_model)
    return StudyReport(
        records=tuple(records),
        prediction=prediction,
        e_B=solution.e_B,
        D=solution.D,
        e_B_tail_bound=solution.e_B_tail_bound,
        D_tail_bound=solution.D_tail_bound,
        fit=fit,
        hb_cutoff_used=hb.cutoff_used if hb is not None else None,
        hb_cutoff_delta=hb.delta_achieved if hb is not None else None,
    )
