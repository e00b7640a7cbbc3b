"""Quasi-free (quadratic-Hamiltonian) quantities: algebra, sums, tail bounds.

Golden values are frozen from a 50-digit mpmath evaluation of the closed
formulas; agreement is required at float64 precision.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbog import bogoliubov, checks
from torusbog.model import Momentum, PotentialSpec, TorusModel

from conftest import TWO_PI, make_one_pair_model, make_two_band_model

# One-pair mode p = 2*pi, w_hat = 1 (50-digit evaluation, rounded to float64).
GOLD_E_P = 40.466063457578300308
GOLD_ALPHA = 0.012354146779134167796
GOLD_N_P = 1.5264824056935218614e-4
GOLD_M_P = -0.012356032617903738156
GOLD_EB_ONE_PAIR = -0.012354146779134167796
GOLD_D_ONE_PAIR = 0.012052621975534604144
GOLD_EB_MINUS_D = -0.02440676875466877194
GOLD_HB_CONSTANT = 0.024122952963243049314
GOLD_VACUUM_OVERLAP = 0.99992368461666093734
# Two-band model: w_hat = 1 on 0 < |p| <= 4*pi.
GOLD_EB_TWO_BAND = -0.015500540343531949315
GOLD_D_TWO_BAND = 0.015179278056897815491


def q(n: int, w: float) -> bogoliubov.ModeQuantities:
    return bogoliubov.mode_quantities(Momentum((n,)), w)


class TestModeQuantities:
    def test_one_pair_goldens(self):
        mq = q(1, 1.0)
        assert mq.e_p == pytest.approx(GOLD_E_P, rel=1e-15)
        assert mq.alpha_p == pytest.approx(GOLD_ALPHA, rel=1e-15)
        assert mq.n_p == pytest.approx(GOLD_N_P, rel=1e-14)
        assert mq.m_p == pytest.approx(GOLD_M_P, rel=1e-14)

    def test_rejects_zero_mode(self):
        with pytest.raises(ValueError):
            bogoliubov.mode_quantities(Momentum((0,)), 1.0)

    def test_rejects_negative_or_non_finite(self):
        with pytest.raises(ValueError):
            q(1, -1.0)
        with pytest.raises(ValueError):
            q(1, math.inf)

    def test_zero_coupling_short_circuit(self):
        mq = q(2, 0.0)
        assert mq.e_p == mq.p.norm2
        assert mq.alpha_p == 0.0
        assert mq.n_p == 0.0
        assert mq.m_p == 0.0
        assert mq.eB_summand == 0.0
        assert mq.d_summand == 0.0

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=3).filter(any),
        st.floats(1e-12, 10.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_algebraic_relations(self, coords, w):
        mq = bogoliubov.mode_quantities(Momentum(coords), w)
        p2 = mq.p.norm2
        quadratic, pair, alpha_min, alpha_max, s_min, s_ratio = checks.mode_algebra([mq])
        # Dispersion and coefficient ranges.
        assert mq.e_p >= p2
        assert 0.0 <= alpha_min and alpha_max < 1.0
        # Quadratic relation defining alpha.
        assert quadratic <= 1e-12
        # Summand bounds and the pair identity 2 s_p = alpha * w.
        assert 0.0 <= s_min and s_ratio <= 1.0 + 1e-12
        assert pair <= 1e-12
        # |p|^2 alpha^2 <= w^2 (alpha <= w / |p|... via alpha <= w/(2|p|^2) would
        # be stronger; this is the coarse invariant).
        assert p2 * mq.alpha_p**2 <= w * w * (1.0 + 1e-12)
        # Occupation/pairing consistency of a quasi-free state: n(n+1) = m^2.
        assert mq.n_p * (mq.n_p + 1.0) == pytest.approx(mq.m_p**2, rel=1e-12)
        # Pairing closed form m_p = -w / (2 e_p).
        assert mq.m_p == pytest.approx(-w / (2.0 * mq.e_p), rel=1e-12)

    def test_monotone_in_coupling(self):
        alphas = []
        summands = []
        for w in [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]:
            mq = q(1, w)
            alphas.append(mq.alpha_p)
            summands.append(mq.eB_summand)
        assert alphas == sorted(alphas)
        assert summands == sorted(summands)


class TestLatticeSums:
    def test_one_pair_solution_goldens(self):
        model = make_one_pair_model(N=8)
        sol = bogoliubov.solve(model)
        assert sol.e_B == pytest.approx(GOLD_EB_ONE_PAIR, rel=1e-14)
        assert sol.D == pytest.approx(GOLD_D_ONE_PAIR, rel=1e-14)
        assert sol.e_B - sol.D == pytest.approx(GOLD_EB_MINUS_D, rel=1e-13)
        assert sol.e_B_tail_bound == 0.0
        assert sol.D_tail_bound == 0.0
        assert len(sol.modes) == 2

    def test_two_band_solution_goldens(self):
        model = make_two_band_model(N=8)
        sol = bogoliubov.solve(model)
        assert sol.e_B == pytest.approx(GOLD_EB_TWO_BAND, rel=1e-14)
        assert sol.D == pytest.approx(GOLD_D_TWO_BAND, rel=1e-14)

    def test_tail_bound_certifies_truncation(self):
        # Cut the mode set inside the potential support: the dropped summands
        # must be dominated by the reported tail bounds.
        full = make_two_band_model(N=8)
        truncated = TorusModel(
            d=1, N=8, potential=full.potential, mode_cutoff=7.0, lam=full.lam
        )
        sol_full = bogoliubov.solve(full)
        sol_trunc = bogoliubov.solve(truncated)
        assert sol_trunc.e_B_tail_bound > 0.0
        assert sol_trunc.D_tail_bound > 0.0
        assert abs(sol_full.e_B - sol_trunc.e_B) <= sol_trunc.e_B_tail_bound
        assert abs(sol_full.D - sol_trunc.D) <= sol_trunc.D_tail_bound

    def test_tail_zero_once_support_covered(self):
        model = make_one_pair_model(N=8, cutoff=100.0)
        sol = bogoliubov.solve(model)
        assert sol.e_B_tail_bound == 0.0
        assert sol.D_tail_bound == 0.0
        assert sol.e_B == pytest.approx(GOLD_EB_ONE_PAIR, rel=1e-14)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_sums_are_correctly_rounded(self, data):
        # A random even table on the box |n_i| <= r, and a cutoff drawn up to a
        # little past the support, so that many draws leave nonzero tails.
        d = data.draw(st.integers(1, 3), label="d")
        r = data.draw(st.integers(1, 3 - d // 2), label="r")
        weight = st.one_of(st.just(0.0), st.floats(1e-6, 1e3))
        table = {}
        for n in itertools.product(range(-r, r + 1), repeat=d):
            if n > tuple(-c for c in n):
                w = data.draw(weight, label=f"w{n}")
                if w:
                    table[n] = table[tuple(-c for c in n)] = w
        cutoff = data.draw(st.floats(0.0, (r + 1) * TWO_PI * math.sqrt(d)), label="cutoff")
        model = TorusModel(
            d=d, N=4, potential=PotentialSpec.from_table(table), mode_cutoff=cutoff
        )

        def exact(summands):
            return float(sum(map(Fraction, summands)))

        sol = bogoliubov.solve(model)
        assert -sol.e_B == exact(mq.eB_summand for mq in sol.modes)
        assert sol.D == exact(mq.d_summand for mq in sol.modes)
        omitted = [
            (q.norm2, model.w_hat(q))
            for q in model.potential.nonzero_momenta()
            if q.norm > cutoff
        ]
        assert sol.e_B_tail_bound == exact(w * w / (2.0 * p2) for p2, w in omitted)
        assert sol.D_tail_bound == exact(
            w * w * (p2 + w) / (4.0 * p2 * p2) for p2, w in omitted
        )
        hb_terms = []
        for mq in sol.modes:
            p2, w = mq.p.norm2, mq.w_hat
            if w:
                hb_terms.append(w * w / (p2 + 2.0 * w + math.sqrt(p2 * p2 + 4.0 * p2 * w)))
        assert bogoliubov.hb_lower_bound_constant(model) == exact(hb_terms)

    def test_solve_order_independent_of_entry_order(self):
        a = PotentialSpec.from_table({(1,): 1.0, (-1,): 1.0, (2,): 0.5, (-2,): 0.5})
        b = PotentialSpec.from_table({(-2,): 0.5, (2,): 0.5, (-1,): 1.0, (1,): 1.0})
        ma = TorusModel(d=1, N=4, potential=a, mode_cutoff=14.0)
        mb = TorusModel(d=1, N=4, potential=b, mode_cutoff=14.0)
        assert bogoliubov.solve(ma).e_B == bogoliubov.solve(mb).e_B
        assert bogoliubov.solve(ma).D == bogoliubov.solve(mb).D


class TestPredictions:
    def test_formulas_with_zero_mode_coupling(self):
        spec = PotentialSpec.from_table({(0,): 2.0, (1,): 1.0, (-1,): 1.0})
        model = TorusModel(d=1, N=8, potential=spec, mode_cutoff=7.0, lam=0.125)
        sol = bogoliubov.solve(model)
        pred = bogoliubov.predict_energies(model, sol)
        assert pred.leading_gse == pytest.approx(0.5 * 0.125 * 8 * 7 * 2.0, rel=1e-15)
        assert pred.leading_binding == pytest.approx(0.125 * 7 * 2.0, rel=1e-15)
        assert pred.gse == pytest.approx(pred.leading_gse + sol.e_B, rel=1e-14)
        assert pred.binding == pytest.approx(
            pred.leading_binding + (sol.e_B - sol.D) / 8.0, rel=1e-14
        )

    def test_tail_bounds_propagate(self):
        full = make_two_band_model(N=8)
        truncated = TorusModel(
            d=1, N=8, potential=full.potential, mode_cutoff=7.0, lam=full.lam
        )
        sol = bogoliubov.solve(truncated)
        pred = bogoliubov.predict_energies(truncated, sol)
        assert pred.binding_tail_bound == pytest.approx(
            (sol.e_B_tail_bound + sol.D_tail_bound) / truncated.N, rel=1e-15
        )

    def test_hb_lower_bound_constant_golden(self):
        model = make_one_pair_model(N=8)
        value = bogoliubov.hb_lower_bound_constant(model)
        assert value == pytest.approx(GOLD_HB_CONSTANT, rel=1e-14)
        # Cancellation-free form must agree with the direct expression.
        p2 = Momentum((1,)).norm2
        direct = 2 * 0.25 * (p2 + 2.0 - math.sqrt(p2 * p2 + 4.0 * p2))
        assert value == pytest.approx(direct, rel=1e-10)

    def test_vacuum_overlap_golden(self):
        model = make_one_pair_model(N=8)
        sol = bogoliubov.solve(model)
        overlap = bogoliubov.quasifree_vacuum_overlap(sol)
        assert overlap == pytest.approx(GOLD_VACUUM_OVERLAP, rel=1e-14)
        product = math.prod((1.0 - mq.alpha_p**2) ** 0.25 for mq in sol.modes)
        assert overlap == pytest.approx(product, rel=1e-13)
