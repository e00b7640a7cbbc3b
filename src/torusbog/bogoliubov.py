"""Closed-form quasi-free theory: dispersion, transform coefficients, energy sums.

All formulas are algebraic functions of |p|^2 and w_hat(p). The two headline outputs
are the ground-state energy correction e_B and the binding-energy prediction
lambda*(N-1)*w_hat(0) + (e_B - D)/N, where D is the kinetic-depletion sum.
Every lattice sum is math.fsum over its summands, correctly rounded (Shewchuk,
Discrete Comput. Geom. 18, 305 (1997)), so no summation order is fixed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Momentum, TorusModel


@dataclass(frozen=True)
class ModeQuantities:
    """Per-mode quasi-free data for one nonzero momentum."""

    p: Momentum
    w_hat: float
    e_p: float
    alpha_p: float
    n_p: float
    m_p: float

    @property
    def eB_summand(self) -> float:
        """s_p = (|p|^2 + w_hat - e_p)/2 in the cancellation-free form w^2/(2(A+e))."""
        if self.w_hat == 0.0:
            return 0.0
        return self.w_hat * self.w_hat / (2.0 * (self.p.norm2 + self.w_hat + self.e_p))

    @property
    def d_summand(self) -> float:
        """|p|^2 * alpha^2 / (1 - alpha^2), the kinetic-depletion contribution."""
        return self.p.norm2 * self.n_p


@dataclass(frozen=True)
class BogoliubovSolution:
    modes: tuple[ModeQuantities, ...]
    e_B: float
    e_B_tail_bound: float
    D: float
    D_tail_bound: float


def mode_quantities(p: Momentum, w_hat: float) -> ModeQuantities:
    """Dispersion e_p = sqrt(|p|^4 + 2|p|^2 w), coefficient alpha_p = w/(|p|^2+w+e_p),
    occupation n_p = alpha^2/(1-alpha^2), pairing m_p = -alpha/(1-alpha^2).

    alpha is taken in the w/(A+e) form, never (A-e)/w, so small couplings do not
    cancel catastrophically; 1-alpha^2 = 2e/(A+e) exactly, which the n_p and m_p
    expressions use directly.
    """
    if p.is_zero:
        raise ValueError("zero mode has no quasi-free pair")
    if w_hat < 0.0 or not math.isfinite(w_hat):
        raise ValueError(f"coefficient must be finite and nonnegative, got {w_hat}")
    p2 = p.norm2
    if w_hat == 0.0:
        return ModeQuantities(p, 0.0, p2, 0.0, 0.0, 0.0)
    e_p = math.sqrt(p2 * p2 + 2.0 * p2 * w_hat)
    a_coef = p2 + w_hat
    alpha = w_hat / (a_coef + e_p)
    inv_one_minus_alpha2 = (a_coef + e_p) / (2.0 * e_p)
    n_p = alpha * alpha * inv_one_minus_alpha2
    m_p = -alpha * inv_one_minus_alpha2
    return ModeQuantities(p, w_hat, e_p, alpha, n_p, m_p)


def solve(model: TorusModel) -> BogoliubovSolution:
    """Evaluate every nonzero mode of the model's mode set, in its order, and
    both lattice sums, each correctly rounded by math.fsum."""
    modes = tuple(mode_quantities(p, model.w_hat(p)) for p in model.nonzero_modes())
    e_B = -math.fsum(mq.eB_summand for mq in modes)
    D = math.fsum(mq.d_summand for mq in modes)
    eb_tail, d_tail = tail_bounds(model)
    return BogoliubovSolution(modes, e_B, eb_tail, D, d_tail)


def tail_bounds(model: TorusModel) -> tuple[float, float]:
    """Certified majorants for the potential support outside the mode cutoff.

    e_B tail: s_p <= w^2/(2|p|^2). D tail: alpha <= w/(2|p|^2) and
    1/(1-alpha^2) <= (|p|^2+w)/|p|^2 give w^2 (|p|^2+w)/(4|p|^4) per mode.
    Both are exactly zero once the cutoff covers the (finite) support; each
    sum is correctly rounded by math.fsum.
    """
    omitted = [
        (p, model.w_hat(p))
        for p in model.potential.nonzero_momenta()
        if p.norm > model.mode_cutoff
    ]
    eb_tail = math.fsum(w * w / (2.0 * p.norm2) for p, w in omitted)
    d_tail = math.fsum(
        w * w * (p.norm2 + w) / (4.0 * p.norm2 * p.norm2) for p, w in omitted
    )
    return eb_tail, d_tail


@dataclass(frozen=True)
class Predictions:
    """The two headline numbers; the gse prediction is certified by the
    solution's e_B_tail_bound, the binding prediction by binding_tail_bound."""

    gse: float
    binding: float
    binding_tail_bound: float
    leading_gse: float
    leading_binding: float


def predict_energies(model: TorusModel, solution: BogoliubovSolution) -> Predictions:
    """gse = (lambda/2) N(N-1) w_hat(0) + e_B;
    binding = lambda (N-1) w_hat(0) + (e_B - D)/N, from solution = solve(model)."""
    w0 = model.potential.w_zero
    leading_gse = 0.5 * model.lam * model.N * (model.N - 1) * w0
    leading_binding = model.lam * (model.N - 1) * w0
    gse = leading_gse + solution.e_B
    binding = leading_binding + (solution.e_B - solution.D) / model.N
    return Predictions(
        gse=gse,
        binding=binding,
        binding_tail_bound=(solution.e_B_tail_bound + solution.D_tail_bound) / model.N,
        leading_gse=leading_gse,
        leading_binding=leading_binding,
    )


def hb_lower_bound_constant(model: TorusModel) -> float:
    """C = (1/4) sum_{p!=0} (|p|^2 + 2w - sqrt(|p|^4 + 4|p|^2 w)), via the
    equivalent cancellation-free form sum w^2/(|p|^2 + 2w + sqrt(|p|^4 + 4|p|^2 w)),
    correctly rounded by math.fsum."""
    terms = []
    for p in model.nonzero_modes():
        w = model.w_hat(p)
        if w == 0.0:
            continue
        p2 = p.norm2
        root = math.sqrt(p2 * p2 + 4.0 * p2 * w)
        terms.append(w * w / (p2 + 2.0 * w + root))
    return math.fsum(terms)


def quasifree_vacuum_overlap(solution: BogoliubovSolution) -> float:
    """|<vacuum, quasi-free ground>| = prod_{p!=0} (1 - alpha_p^2)^(1/4)."""
    log_total = math.fsum(
        0.25 * math.log1p(-mq.alpha_p * mq.alpha_p) for mq in solution.modes
    )
    return math.exp(log_total)
