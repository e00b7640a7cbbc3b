"""Acceptance gate: nine end-to-end checks covering the algebraic layer, the
truncated-quadratic-Hamiltonian oracle, exact operator identities, variational
brackets, the desk-scale binding-energy extrapolation, excitation-moment
boundedness, the zero-mode-only exact case, and dense-vs-iterative solver
equivalence.  Each check prints exactly one PASS/FAIL summary line (with its
runtime) even under `pytest -q`, so the whole gate can be read off the output.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from torusbog import asymptotics, bogoliubov, fock_ed
from torusbog.fock_ed import EDSettings
from torusbog.model import Momentum, PotentialSpec, TorusModel, zero_momentum

from conftest import make_one_pair_model, make_two_band_model

# Frozen one-pair references (d=1, modes {0, +/-2pi}, w_hat(+/-2pi)=1, w_hat(0)=0).
EB_ONE_PAIR = -0.012354146779134168
E_P_ONE_PAIR = 40.466063457578300308
ALPHA_ONE_PAIR = 0.012354146779134167796
N_P_ONE_PAIR = 1.5264824056935218614e-4
M_P_ONE_PAIR = -0.012356032617903738156
PREDICTION_ONE_PAIR = -0.02440676875466877194


def announce(capsys, index: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[acceptance {index}/9] {name}: {verdict} ({detail})", flush=True)


def random_nonzero_momentum(rng) -> Momentum:
    d = int(rng.integers(1, 4))
    while True:
        coords = tuple(int(c) for c in rng.integers(-3, 4, size=d))
        if any(coords):
            return Momentum(coords)


def test_1_mode_algebra_randomized(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)
    max_quad_rel = 0.0
    failures: list[str] = []
    for i in range(200):
        p = random_nonzero_momentum(rng)
        w = 0.0 if i == 0 else float(rng.uniform(0.0, 10.0))
        q = bogoliubov.mode_quantities(p, w)
        p2 = p.norm2
        alpha = q.alpha_p
        lhs = w * (1.0 + alpha * alpha)
        rhs = 2.0 * (p2 + w) * alpha
        scale = max(abs(lhs), abs(rhs))
        rel = abs(lhs - rhs) / scale if scale > 0.0 else 0.0
        max_quad_rel = max(max_quad_rel, rel)
        if rel > 1e-12:
            failures.append(f"quadratic relation rel={rel:g} at p={p} w={w}")
        if not 0.0 <= alpha < 1.0:
            failures.append(f"alpha={alpha} out of [0,1) at p={p} w={w}")
        if p2 * alpha * alpha > w * w:
            failures.append(f"|p|^2 alpha^2 > w^2 at p={p} w={w}")
        summand = q.eB_summand
        if not 0.0 <= summand <= w * w / (2.0 * p2):
            failures.append(f"summand {summand} outside [0, w^2/(2|p|^2)] at p={p}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    announce(
        capsys, 1, "mode-algebra-randomized", ok,
        f"200 modes, max quadratic rel dev {max_quad_rel:.2e}, {elapsed:.2f}s",
    )
    assert not failures, failures[:5]
    assert elapsed < 1.0


def test_2_pair_hamiltonian_spectrum(capsys):
    start = time.perf_counter()
    model = make_one_pair_model(N=8)
    solution = bogoliubov.solve(model)
    assert solution.e_B == pytest.approx(EB_ONE_PAIR, rel=1e-13)
    hb = fock_ed.converged_bogoliubov_ground(
        model.nonzero_modes(), model.potential, settings=EDSettings(k=5)
    )
    ground_diff = abs(hb.result.eigenvalues[0] - solution.e_B)
    e_p = bogoliubov.mode_quantities(Momentum((1,)), 1.0).e_p
    expected = sorted(
        solution.e_B + e_p * (n_plus + n_minus)
        for n_plus in range(3)
        for n_minus in range(3)
    )[:5]
    spectrum_dev = max(
        abs(got - want) for got, want in zip(hb.result.eigenvalues, expected)
    )
    elapsed = time.perf_counter() - start
    ok = hb.converged and ground_diff < 1e-8 and spectrum_dev < 1e-6 and elapsed < 5.0
    announce(
        capsys, 2, "pair-hamiltonian-spectrum", ok,
        f"ground diff {ground_diff:.2e}, 5-level dev {spectrum_dev:.2e}, "
        f"cutoff {hb.cutoff_used}, {elapsed:.2f}s",
    )
    assert hb.converged
    assert ground_diff < 1e-8
    assert spectrum_dev < 1e-6
    assert elapsed < 5.0


def test_3_quasifree_expectations(capsys):
    start = time.perf_counter()
    model = make_one_pair_model(N=8)
    hb = fock_ed.converged_bogoliubov_ground(model.nonzero_modes(), model.potential)
    assert hb.converged and hb.result.vector_reliable
    vec, basis = hb.result.ground_vector, hb.basis
    devs = []
    for coord in (1, -1):
        p = Momentum((coord,))
        devs.append(abs(fock_ed.expect_mode_occupation(vec, basis, p) - N_P_ONE_PAIR))
        devs.append(abs(fock_ed.expect_pairing(vec, basis, p) - M_P_ONE_PAIR))
    elapsed = time.perf_counter() - start
    ok = max(devs) < 1e-6 and elapsed < 5.0
    announce(
        capsys, 3, "quasifree-expectations", ok,
        f"max occupation/pairing dev {max(devs):.2e}, {elapsed:.2f}s",
    )
    assert max(devs) < 1e-6
    assert elapsed < 5.0


def test_4_operator_identities(capsys):
    start = time.perf_counter()
    model = make_one_pair_model(N=3)
    res = fock_ed.operator_identity_residuals(model)
    elapsed = time.perf_counter() - start
    ok = res.residual_a < 1e-12 and res.residual_b < 1e-10 and elapsed < 5.0
    announce(
        capsys, 4, "operator-identities", ok,
        f"residual_a {res.residual_a:.2e}, residual_b {res.residual_b:.2e}, "
        f"{elapsed:.2f}s",
    )
    assert res.residual_a < 1e-12
    assert res.residual_b < 1e-10
    assert elapsed < 5.0


def test_5_variational_sandwich_bracket(capsys):
    start = time.perf_counter()
    worst_slack = math.inf
    for make in (make_one_pair_model, make_two_band_model):
        for n in (4, 8, 16):
            binding = fock_ed.binding_from_ed(make(N=n), check_global=False)
            sandwich = fock_ed.variational_sandwich(binding)
            assert sandwich.converged
            slack = min(
                sandwich.delta_E - sandwich.lower,
                sandwich.upper - sandwich.delta_E,
            )
            worst_slack = min(worst_slack, slack)
    elapsed = time.perf_counter() - start
    ok = worst_slack >= -1e-9 and elapsed < 60.0
    announce(
        capsys, 5, "variational-sandwich-bracket", ok,
        f"worst bracket slack {worst_slack:.2e} over 6 cases, {elapsed:.2f}s",
    )
    assert worst_slack >= -1e-9
    assert elapsed < 60.0


def test_6_binding_residual_extrapolation(capsys):
    start = time.perf_counter()
    n_values = (8, 16, 24, 32, 48)
    config = asymptotics.SweepConfig(
        base=make_one_pair_model(N=max(n_values)), N_values=n_values
    )
    report = asymptotics.run_binding_study(config)
    prediction = report.prediction
    assert prediction == pytest.approx(PREDICTION_ONE_PAIR, rel=1e-13)
    assert prediction == pytest.approx(-0.0244069, abs=5e-7)
    assert all(rec.converged for rec in report.records)
    distances = [abs(rec.residual_r - prediction) for rec in report.records]
    monotone = all(b < a for a, b in zip(distances, distances[1:]))
    fit = report.fit
    fit_err = abs(fit.r_inf - prediction)
    # The same records fitted with a 1/N^2 term too, with no second solve.
    fit2 = asymptotics.extrapolate_residual(
        [(rec.N, rec.residual_r) for rec in report.records], "1/N+1/N2"
    )
    fit2_err = abs(fit2.r_inf - prediction)
    elapsed = time.perf_counter() - start
    # Measured misses: -6.18e-6 for 1/N and +3.04e-8 for 1/N+1/N2; each
    # bound is at least 4 times its miss.
    within = fit_err <= 2.5e-5 and fit2_err <= 1.5e-7
    ok = monotone and fit.ok and fit2.ok and within and elapsed < 300.0
    announce(
        capsys, 6, "binding-residual-extrapolation", ok,
        f"r(48)={report.records[-1].residual_r:.7f}, r_inf={fit.r_inf:.7f}, "
        f"prediction={prediction:.7f}, fit err {fit_err:.2e}, "
        f"1/N+1/N2 fit err {fit2_err:.2e}, {elapsed:.1f}s",
    )
    assert monotone, distances
    assert fit.ok and fit2.ok
    assert fit_err <= 2.5e-5
    assert fit2_err <= 1.5e-7
    assert elapsed < 300.0


def test_7_excitation_moment_boundedness(capsys):
    start = time.perf_counter()
    nplus_seq, nplus2_seq = [], []
    for n in (4, 8, 16, 32):
        model = make_one_pair_model(N=n)
        basis = fock_ed.enumerate_basis(
            model.mode_set(),
            n_particles=n,
            momentum_sector=zero_momentum(model.d),
        )
        result = fock_ed.lowest_eigenpairs(fock_ed.build_hamiltonian(model, basis))
        assert result.converged and result.vector_reliable
        nplus_seq.append(fock_ed.expect_nplus(result.ground_vector, basis))
        nplus2_seq.append(fock_ed.expect_nplus2(result.ground_vector, basis))
    bounded = all(
        seq[-1] <= 1.2 * max(seq[:3]) for seq in (nplus_seq, nplus2_seq)
    )
    elapsed = time.perf_counter() - start
    ok = bounded and elapsed < 120.0
    announce(
        capsys, 7, "excitation-moment-boundedness", ok,
        f"<N+> {nplus_seq[0]:.2e}->{nplus_seq[-1]:.2e}, "
        f"<N+^2> {nplus2_seq[0]:.2e}->{nplus2_seq[-1]:.2e}, {elapsed:.1f}s",
    )
    assert bounded, (nplus_seq, nplus2_seq)
    assert elapsed < 120.0


def test_8_zero_mode_only_exactness(capsys):
    start = time.perf_counter()
    w0 = 2.0
    potential = PotentialSpec.from_table({(0,): w0})
    max_dev = 0.0
    for n in range(2, 11):
        model = TorusModel(d=1, N=n, potential=potential, mode_cutoff=7.0)
        binding = fock_ed.binding_from_ed(model)
        assert binding.converged
        max_dev = max(max_dev, abs(binding.delta_E - model.lam * (n - 1) * w0))
    elapsed = time.perf_counter() - start
    ok = max_dev < 1e-10 and elapsed < 10.0
    announce(
        capsys, 8, "zero-mode-only-exactness", ok,
        f"max |deltaE - lambda(N-1)w(0)| = {max_dev:.2e} over N=2..10, {elapsed:.2f}s",
    )
    assert max_dev < 1e-10
    assert elapsed < 10.0


def test_9_solver_oracle_equivalence(capsys):
    start = time.perf_counter()
    cases: list[tuple[str, object]] = []
    for n in (8, 16, 32, 48):
        model = make_one_pair_model(N=n)
        basis = fock_ed.enumerate_basis(
            model.mode_set(), n_particles=n, momentum_sector=zero_momentum(1)
        )
        cases.append((f"one-pair K=0 N={n}", fock_ed.build_hamiltonian(model, basis)))
    model = make_one_pair_model(N=8)
    basis = fock_ed.enumerate_basis(model.mode_set(), n_particles=8)
    cases.append(("one-pair full N=8", fock_ed.build_hamiltonian(model, basis)))
    band = make_two_band_model(N=8)
    basis = fock_ed.enumerate_basis(
        band.mode_set(), n_particles=8, momentum_sector=zero_momentum(1)
    )
    cases.append(("two-band K=0 N=8", fock_ed.build_hamiltonian(band, basis)))
    _, matrix = fock_ed.build_bogoliubov_hamiltonian(
        model.nonzero_modes(), 20, model.potential
    )
    cases.append(("one-pair pair-H M=20", matrix))
    _, matrix = fock_ed.build_bogoliubov_hamiltonian(
        band.nonzero_modes(), 6, band.potential
    )
    cases.append(("two-band pair-H M=6", matrix))

    worst = 0.0
    for label, op in cases:
        assert op.shape[0] <= 2000, label
        dense = fock_ed.lowest_eigenpairs(op, EDSettings(dense_threshold=10**9))
        iterative = fock_ed.lowest_eigenpairs(op, EDSettings(dense_threshold=0))
        assert dense.method == "dense" and iterative.method == "davidson", label
        assert dense.converged and iterative.converged, label
        worst = max(worst, abs(dense.eigenvalues[0] - iterative.eigenvalues[0]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    announce(
        capsys, 9, "solver-oracle-equivalence", ok,
        f"max |dense - iterative| = {worst:.2e} over {len(cases)} bases, "
        f"{elapsed:.1f}s",
    )
    assert worst <= 1e-9
    assert elapsed < 60.0
