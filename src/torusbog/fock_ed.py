"""Exact-diagonalization oracle on momentum-truncated Fock bases.

Builds the particle-number-conserving Hamiltonian

    H = sum_p |p|^2 a_p* a_p
      + (lambda/2) sum_{p,q,l} w_hat(l) a_{p-l}* a_{q+l}* a_p a_q

with every operator index restricted to a finite mode set, and the quadratic
pair Hamiltonian

    HB = sum_{p!=0} (|p|^2 + w_hat(p)) a_p* a_p
       + (1/2) sum_{p!=0} w_hat(p) (a_p* a_{-p}* + a_p a_{-p})

on an excitation-bounded basis, as sparse symmetric operators. Solves lowest
eigenpairs by dense factorization or Lanczos with full reorthogonalization,
and evaluates the observables, maps and operator-identity residuals used by
the binding-energy study.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from .model import (
    TWO_PI,
    Momentum,
    PotentialSpec,
    ResourceLimitError,
    TorusModel,
    zero_momentum,
)

DEFAULT_MAX_STATES = 500_000

# Ground-state gap below which vector-dependent observables are flagged unreliable.
DEGENERACY_GAP = 1e-8


@dataclass(frozen=True)
class EDSettings:
    """Eigensolver knobs shared by every workflow, range-checked on construction."""

    tol: float = 1e-9
    max_iter: int = 1000
    seed: int = 0
    dense_threshold: int = 2000
    k: int = 1

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.dense_threshold < 0:
            raise ValueError(
                f"dense_threshold must be nonnegative, got {self.dense_threshold}"
            )


@dataclass(frozen=True)
class HBSettings:
    """Cutoff schedule of the pair-Hamiltonian solve, range-checked on construction."""

    start_cutoff: int = 6
    max_cutoff: int = 60
    cutoff_delta: float = 1e-10

    def __post_init__(self) -> None:
        if self.start_cutoff < 0:
            raise ValueError(f"start_cutoff must be nonnegative, got {self.start_cutoff}")
        if self.max_cutoff < self.start_cutoff:
            raise ValueError(
                f"max_cutoff must be at least start_cutoff, got {self.max_cutoff}"
                f" < {self.start_cutoff}"
            )


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Occupation vectors over a mode set, in lexicographic order.

    states is one read-only (size, len(modes)) int64 array: row r holds the
    occupation of every mode in state r. Exactly one of n_particles (fixed-N
    sector) or excitation_cutoff (all states with total occupation <= M) is
    set; momentum_sector, when set, names the total-momentum block the rows
    were filtered to.

    find() locates rows through their combinatorial rank, the row's position
    in the lexicographic enumeration of the unfiltered sector (Streltsov,
    Alon and Cederbaum, PRA 81, 022124 (2010)). A <= M basis ranks each row
    with one extra slack slot holding M minus the row total, which turns it
    into a fixed-sum sector over len(modes) + 1 slots in the same order.
    """

    modes: tuple[Momentum, ...]
    states: np.ndarray
    n_particles: int | None
    excitation_cutoff: int | None
    momentum_sector: Momentum | None
    _binomials: np.ndarray = field(init=False, repr=False)
    _ranks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        states = np.array(self.states, dtype=np.int64)
        if states.ndim != 2 or states.shape[1] != len(self.modes):
            raise ValueError("states must be one row of occupations per state")
        states.flags.writeable = False
        exact = self.excitation_cutoff is None
        budget = self.n_particles if exact else self.excitation_cutoff
        slots = len(self.modes) + (0 if exact else 1)
        # binomials[k, r] = C(r + k, k), the number of rows of k + 1 slots
        # summing to r; each row is the running sum of the one before.
        binomials = np.ones((slots, budget + 1), dtype=np.int64)
        for k in range(1, slots):
            binomials[k] = np.cumsum(binomials[k - 1])
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_binomials", binomials)
        valid, ranks = self._rank(states)
        if not valid.all() or np.any(np.diff(ranks) <= 0):
            raise ValueError("states must be distinct sector rows in lexicographic order")
        object.__setattr__(self, "_ranks", ranks)

    @property
    def size(self) -> int:
        return self.states.shape[0]

    @property
    def zero_position(self) -> int | None:
        for i, p in enumerate(self.modes):
            if p.is_zero:
                return i
        return None

    def _rank(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which rows lie in the unfiltered sector, and the rank of each that does.

        With r the budget left before a slot and n its occupation, the rows
        that share the prefix and put c < n there number C(r + k, k) -
        C(r - n + k, k) by the hockey-stick identity, k being the slots after it.
        """
        budget = self._binomials.shape[1] - 1
        if self.excitation_cutoff is not None:
            rows = np.column_stack([rows, budget - rows.sum(axis=1)])
        after = budget - np.cumsum(rows, axis=1)
        valid = (rows >= 0).all(axis=1) & (after[:, -1] == 0)
        rows, after = rows[valid], after[valid]
        k = np.arange(rows.shape[1] - 1, -1, -1)
        ranks = (self._binomials[k, after + rows] - self._binomials[k, after]).sum(axis=1)
        return valid, ranks

    def find(self, occupations) -> np.ndarray:
        """Position of each occupation row in the basis, -1 where it is absent."""
        rows = np.asarray(occupations, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != len(self.modes):
            raise ValueError(
                f"basis mismatch: rows of {len(self.modes)} occupations expected, "
                f"got shape {rows.shape}"
            )
        valid, ranks = self._rank(rows)
        at = np.searchsorted(self._ranks, ranks)
        inside = at < self.size
        hit = np.zeros(len(ranks), dtype=bool)
        hit[inside] = self._ranks[at[inside]] == ranks[inside]
        out = np.full(len(rows), -1, dtype=np.int64)
        out[np.flatnonzero(valid)[hit]] = at[hit]
        return out

    def momenta(self) -> np.ndarray:
        """Integer total momentum of every state, shape (size, d)."""
        return self.states @ np.array(self.modes, dtype=np.int64)

    def excitation_counts(self) -> np.ndarray:
        """Per-state number of particles outside the zero mode."""
        totals = self.states.sum(axis=1)
        zp = self.zero_position
        return totals if zp is None else totals - self.states[:, zp]


def _sector_rows(slots: int, budget: int) -> np.ndarray:
    """Every row of slots nonnegative integers summing to budget, in
    lexicographic order, built one slot at a time."""
    rows = np.zeros((1, 0), dtype=np.int64)
    remaining = np.array([budget], dtype=np.int64)
    for _ in range(slots - 1):
        counts = remaining + 1
        parent = np.repeat(np.arange(len(rows)), counts)
        value = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([rows[parent], value])
        remaining = remaining[parent] - value
    return np.column_stack([rows, remaining])


def enumerate_basis(
    modes: Sequence[Momentum],
    n_particles: int | None = None,
    excitation_cutoff: int | None = None,
    momentum_sector: Momentum | None = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> FockBasis:
    """Enumerate a sector, optionally filtered to one total-momentum value.

    The unfiltered count is computed in closed form before any materialization;
    exceeding max_states raises ResourceLimitError.
    """
    modes = tuple(modes)
    if not modes:
        raise ValueError("mode set is empty")
    if len(set(modes)) != len(modes):
        raise ValueError("mode set has duplicates")
    if (n_particles is None) == (excitation_cutoff is None):
        raise ValueError("set exactly one of n_particles and excitation_cutoff")
    m = len(modes)
    if n_particles is not None:
        if n_particles < 0:
            raise ValueError("particle count must be nonnegative")
        count = math.comb(n_particles + m - 1, m - 1)
        slots, budget = m, n_particles
    else:
        if excitation_cutoff < 0:
            raise ValueError("excitation cutoff must be nonnegative")
        count = math.comb(excitation_cutoff + m, m)
        # A slack slot takes what the modes leave of the cutoff.
        slots, budget = m + 1, excitation_cutoff
    if count > max_states:
        raise ResourceLimitError(f"sector holds {count} states, budget is {max_states}")
    states = _sector_rows(slots, budget)[:, :m]
    if momentum_sector is not None:
        if len(momentum_sector) != modes[0].d:
            raise ValueError("momentum sector dimension mismatch")
        momenta = states @ np.array(modes, dtype=np.int64)
        states = states[(momenta == np.array(momentum_sector)).all(axis=1)]
    return FockBasis(
        modes=modes,
        states=states,
        n_particles=n_particles,
        excitation_cutoff=excitation_cutoff,
        momentum_sector=momentum_sector,
    )


def _assemble(
    rows: list[np.ndarray], cols: list[np.ndarray], vals: list[np.ndarray], size: int
) -> scipy.sparse.csr_matrix:
    """Square CSR matrix from blocks of entries, one block per operator term.

    A stable sort by column puts the entries in the order a loop over states,
    then terms, emits them, which fixes how duplicate entries are summed.
    """
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    order = np.argsort(cols, kind="stable")
    mat = scipy.sparse.coo_matrix(
        (vals[order], (rows[order], cols[order])), shape=(size, size)
    )
    return mat.tocsr()


def build_hamiltonian(model: TorusModel, basis: FockBasis) -> scipy.sparse.csr_matrix:
    """Sparse matrix of H on a fixed-particle-number basis.

    The l = 0 interaction is the exact diagonal lambda*w_hat(0)*n(n-1)/2; the
    l != 0 terms are generated with exact bosonic square-root factors. Momentum
    conservation keeps every generated entry inside the basis, including
    momentum-filtered ones.
    """
    if basis.n_particles is None:
        raise ValueError("Hamiltonian assembly needs a fixed-particle-number basis")
    if tuple(basis.modes) != model.mode_set():
        raise ValueError("basis modes do not match the model's mode set")
    modes = basis.modes
    states = basis.states
    lam = model.lam
    n_total = states.sum(axis=1)
    diag = lam * model.potential.w_zero * n_total * (n_total - 1) / 2.0
    for i, p in enumerate(modes):
        diag += p.norm2 * states[:, i]
    index = np.arange(basis.size)
    rows, cols, vals = [index], [index], [diag]
    # Transfer table: for every transfer l, its weight and the positions of
    # p - l and p + l for every mode p, -1 outside the mode set.
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
            # a_p a_q on every state holding both quanta.
            n_p = states[:, ip] - (ip == iq)
            sel = np.flatnonzero((states[:, iq] > 0) & (n_p > 0))
            f2 = np.sqrt(states[sel, iq]) * np.sqrt(n_p[sel])
            s1 = states[sel]
            s1[:, iq] -= 1
            s1[:, ip] -= 1
            for wl, i1, i2 in moves:
                # a*_{p-l} a*_{q+l}
                s3 = s1.copy()
                f3 = f2 * np.sqrt(s3[:, i2] + 1)
                s3[:, i2] += 1
                f4 = f3 * np.sqrt(s3[:, i1] + 1)
                s3[:, i1] += 1
                target = basis.find(s3)
                if np.any(target < 0):
                    # Momentum conservation guarantees membership.
                    raise RuntimeError("generated state left the basis")
                rows.append(target)
                cols.append(sel)
                vals.append(0.5 * lam * wl * f4)
    return _assemble(rows, cols, vals, basis.size)


def build_bogoliubov_hamiltonian(
    modes: Sequence[Momentum],
    excitation_cutoff: int,
    potential: PotentialSpec,
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[FockBasis, scipy.sparse.csr_matrix]:
    """Sparse matrix of HB on the <= M excitation basis over nonzero modes.

    Pair-creation terms that would exceed the cutoff are dropped (hard cutoff).
    """
    modes = tuple(modes)
    if any(p.is_zero for p in modes):
        raise ValueError("the pair Hamiltonian lives over nonzero modes only")
    pos = {p: i for i, p in enumerate(modes)}
    for p in modes:
        if -p not in pos:
            raise ValueError(f"mode set not closed under negation at {tuple(p)}")
    basis = enumerate_basis(
        modes, excitation_cutoff=excitation_cutoff, max_states=max_states
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
        # a_p* a_{-p}*: the missing target above the cutoff is the hard truncation
        up = states.copy()
        up[:, im] += 1
        up[:, i] += 1
        target = basis.find(up)
        sel = np.flatnonzero(target >= 0)
        rows.append(target[sel])
        cols.append(sel)
        vals.append(0.5 * w * np.sqrt((states[sel, i] + 1) * (states[sel, im] + 1)))
        sel = np.flatnonzero((states[:, i] >= 1) & (states[:, im] >= 1))
        down = states[sel]
        down[:, im] -= 1
        down[:, i] -= 1
        rows.append(basis.find(down))
        cols.append(sel)
        vals.append(0.5 * w * np.sqrt(states[sel, i] * states[sel, im]))
    return basis, _assemble(rows, cols, vals, basis.size)


@dataclass(frozen=True, eq=False)
class EDResult:
    eigenvalues: tuple[float, ...]
    ground_vector: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    method: str
    gap: float
    vector_reliable: bool

    @property
    def ground_energy(self) -> float:
        return self.eigenvalues[0]


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0.0 else v


def lowest_eigenpairs(
    op: scipy.sparse.spmatrix, settings: EDSettings = EDSettings()
) -> EDResult:
    """The settings.k smallest eigenvalues and ground vector of a symmetric operator.

    Dimension <= settings.dense_threshold goes to a dense solve of only the
    k_int = min(dim, max(k, 2)) lowest eigenpairs (LAPACK ?syevr through
    subset_by_index: one tridiagonal reduction, no full eigenvector
    back-transform); larger problems run Lanczos with full reorthogonalization
    from a start vector that is a deterministic function of (seed, dimension).
    The second pair gives the gap above the ground. The residual ||H v - E v||
    is always measured post hoc on the returned vector, and convergence means
    residual_norm <= tol.
    """
    dim = op.shape[0]
    if dim == 0:
        raise ValueError("empty operator")
    k = min(settings.k, dim)
    k_int = min(dim, max(k, 2))
    if dim <= settings.dense_threshold:
        theta, eigvecs = scipy.linalg.eigh(
            op.toarray(),
            subset_by_index=[0, k_int - 1],
            overwrite_a=True,
            check_finite=False,
        )
        ground = _phase_fixed(np.ascontiguousarray(eigvecs[:, 0]))
        iterations = 0
        method = "dense"
    else:
        theta, ground, iterations = _lanczos_lowest(
            op, k_int, settings.tol, settings.max_iter, settings.seed
        )
        method = "lanczos"
    ground = ground / float(np.linalg.norm(ground))
    residual = float(np.linalg.norm(op @ ground - theta[0] * ground))
    gap = float(theta[1] - theta[0]) if len(theta) > 1 else math.inf
    return EDResult(
        eigenvalues=tuple(float(t) for t in theta[:k]),
        ground_vector=ground,
        residual_norm=residual,
        iterations=iterations,
        converged=residual <= settings.tol,
        method=method,
        gap=gap,
        vector_reliable=gap > DEGENERACY_GAP,
    )


def _lanczos_lowest(
    op: scipy.sparse.spmatrix, k: int, tol: float, max_iter: int, seed: int
) -> tuple[np.ndarray, np.ndarray, int]:
    dim = op.shape[0]
    steps_cap = min(max_iter, dim)
    rng = np.random.default_rng([seed, dim])
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    # One Lanczos vector per row, so each vector and each reorthogonalization
    # product reads contiguous memory.
    Q = np.zeros((steps_cap, dim))
    Q[0] = q
    alphas: list[float] = []
    betas: list[float] = []
    breakdown = 1e-14
    steps = 0
    for j in range(steps_cap):
        w = op @ Q[j]
        a = float(Q[j] @ w)
        alphas.append(a)
        w -= a * Q[j]
        if j > 0:
            w -= betas[-1] * Q[j - 1]
        # Full reorthogonalization, applied twice for orthogonality to ~1 ulp.
        active = Q[: j + 1]
        w -= active.T @ (active @ w)
        w -= active.T @ (active @ w)
        b = float(np.linalg.norm(w))
        steps = j + 1
        done = j + 1 == steps_cap or b < breakdown
        if not done and j + 1 >= k:
            theta, S = scipy.linalg.eigh_tridiagonal(alphas, betas)
            # Ritz residual estimate |beta * last component|, per target pair.
            if all(abs(b * S[-1, i]) <= 0.5 * tol for i in range(min(k, len(theta)))):
                done = True
        if done:
            break
        betas.append(b)
        Q[j + 1] = w / b
    theta, S = scipy.linalg.eigh_tridiagonal(alphas, betas)
    ground = _phase_fixed(S[:, 0] @ Q[:steps])
    n_out = min(k, len(theta))
    return theta[:n_out], ground, steps


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------


def _check_vector(vec: np.ndarray, basis: FockBasis) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (basis.size,):
        raise ValueError(
            f"basis mismatch: vector has shape {vec.shape}, basis holds {basis.size} states"
        )
    return vec


def expect_nplus(vec: np.ndarray, basis: FockBasis) -> float:
    vec = _check_vector(vec, basis)
    exc = basis.excitation_counts().astype(float)
    return float(np.dot(vec * vec, exc))


def expect_nplus2(vec: np.ndarray, basis: FockBasis) -> float:
    vec = _check_vector(vec, basis)
    exc = basis.excitation_counts().astype(float)
    return float(np.dot(vec * vec, exc * exc))


def expect_total_momentum(vec: np.ndarray, basis: FockBasis) -> tuple[float, ...]:
    vec = _check_vector(vec, basis)
    return tuple(float(k) for k in (vec * vec) @ (TWO_PI * basis.momenta()))


def expect_mode_occupation(vec: np.ndarray, basis: FockBasis, p: Momentum) -> float:
    vec = _check_vector(vec, basis)
    try:
        ip = basis.modes.index(p)
    except ValueError:
        raise ValueError(f"basis mismatch: mode {tuple(p)} not in basis") from None
    return float(np.dot(vec * vec, basis.states[:, ip].astype(float)))


def expect_pairing(vec: np.ndarray, basis: FockBasis, p: Momentum) -> float:
    """<v, a_p a_{-p} v> in the basis; the quasi-free value is m_p."""
    vec = _check_vector(vec, basis)
    if p not in basis.modes or -p not in basis.modes:
        raise ValueError(f"basis mismatch: mode pair {tuple(p)} not in basis")
    ip = basis.modes.index(p)
    im = basis.modes.index(-p)
    if ip == im:
        raise ValueError("pairing needs p != -p")
    states = basis.states
    sel = np.flatnonzero((states[:, ip] >= 1) & (states[:, im] >= 1))
    lowered = states[sel]
    lowered[:, ip] -= 1
    lowered[:, im] -= 1
    target = basis.find(lowered)
    hit = target >= 0
    sel, target = sel[hit], target[hit]
    return float(np.sum(vec[target] * np.sqrt(states[sel, ip] * states[sel, im]) * vec[sel]))


# ---------------------------------------------------------------------------
# Excitation map and operator identities
# ---------------------------------------------------------------------------


def strip_zero_mode(basis_n: FockBasis, basis_exc: FockBasis) -> np.ndarray:
    """Position in basis_exc of every basis_n state with its zero-mode quanta
    removed, -1 where that image is absent from basis_exc."""
    if basis_n.n_particles is None:
        raise ValueError("source basis must be a fixed-particle-number sector")
    zp = basis_n.zero_position
    if zp is None:
        raise ValueError("basis mismatch: source basis has no zero mode to strip")
    if basis_exc.modes != basis_n.modes[:zp] + basis_n.modes[zp + 1 :]:
        raise ValueError("basis mismatch: excitation modes must be the nonzero modes, in order")
    return basis_exc.find(np.delete(basis_n.states, zp, axis=1))


def excitation_map(
    vec: np.ndarray, basis_n: FockBasis, basis_exc: FockBasis
) -> np.ndarray:
    """Unitary re-indexing of an N-particle state onto the excitation basis.

    The component with n excited particles loses its N-n zero-mode quanta; every
    coefficient carries over with factor exactly 1, so norms are preserved.
    """
    vec = _check_vector(vec, basis_n)
    images = strip_zero_mode(basis_n, basis_exc)
    if basis_exc.excitation_cutoff is None or basis_exc.excitation_cutoff < basis_n.n_particles:
        raise ValueError("basis mismatch: excitation cutoff below the particle number")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"input vector norm {norm} is not 1 within 1e-12")
    carried = np.flatnonzero(vec != 0.0)
    if np.any(images[carried] < 0):
        raise ValueError("basis mismatch: image state missing from excitation basis")
    out = np.zeros(basis_exc.size)
    out[images[carried]] = vec[carried]
    out_norm = float(np.linalg.norm(out))
    if abs(out_norm - 1.0) > 1e-12:
        raise AssertionError(f"excitation map must preserve norms, got {out_norm}")
    return out


def zero_mode_annihilation(
    basis_from: FockBasis, basis_to: FockBasis
) -> scipy.sparse.csr_matrix:
    """Matrix of a_0 from an n-particle basis onto the (n-1)-particle basis."""
    if basis_from.modes != basis_to.modes:
        raise ValueError("basis mismatch: mode sets differ")
    if (
        basis_from.n_particles is None
        or basis_to.n_particles is None
        or basis_from.n_particles != basis_to.n_particles + 1
    ):
        raise ValueError("a_0 maps the n sector onto the n-1 sector")
    zp = basis_from.zero_position
    if zp is None:
        raise ValueError("mode set has no zero mode")
    cols = np.flatnonzero(basis_from.states[:, zp] > 0)
    lowered = basis_from.states[cols]
    lowered[:, zp] -= 1
    rows = basis_to.find(lowered)
    # A target outside a momentum-filtered image basis is dropped.
    kept = rows >= 0
    rows, cols = rows[kept], cols[kept]
    vals = np.sqrt(basis_from.states[cols, zp])
    return scipy.sparse.coo_matrix(
        (vals, (rows, cols)), shape=(basis_to.size, basis_from.size)
    ).tocsr()


@dataclass(frozen=True)
class IdentityResiduals:
    """Residual norms of the two exact operator identities on the N sector.

    residual_a: max-abs entry of  a_0 [H, a_0*] - [H, a_0*] a_0
                - lambda * (sum_l w_hat(l) n_l + w_hat(0) N).
    residual_b: | <N+ (H - E) N+> - <N+ [H, N+]> | / max(|<N+ H N+>|, tiny),
                evaluated in the computed ground state.
    """

    residual_a: float
    residual_b: float
    scale_b: float
    ground_energy: float


def operator_identity_residuals(
    model: TorusModel, max_dim: int = 4000
) -> IdentityResiduals:
    """Verify both identities with explicit matrices on the N-1, N, N+1 sectors."""
    modes = model.mode_set()
    if not any(p.is_zero for p in modes):
        raise ValueError("identities involve a_0; include the zero mode")
    n = model.N
    bases = {}
    total = 0
    for sector in (n - 1, n, n + 1):
        count = math.comb(sector + len(modes) - 1, len(modes) - 1)
        total += count
        if total > max_dim:
            raise ResourceLimitError(
                f"identity check needs {total} states, budget is {max_dim}"
            )
        bases[sector] = enumerate_basis(modes, n_particles=sector)
    h = {s: build_hamiltonian(model, b) for s, b in bases.items()}
    a0_np1 = zero_mode_annihilation(bases[n + 1], bases[n])
    a0_n = zero_mode_annihilation(bases[n], bases[n - 1])
    # a_0 [H, a_0*] passes through the N+1 sector, [H, a_0*] a_0 through N-1.
    x = a0_np1 @ (h[n + 1] @ a0_np1.T - a0_np1.T @ h[n])
    y = (h[n] @ a0_n.T - a0_n.T @ h[n - 1]) @ a0_n
    lam = model.lam
    w0 = model.potential.w_zero
    acc = np.full(bases[n].size, w0 * n)
    for i, p in enumerate(modes):
        acc += model.w_hat(p) * bases[n].states[:, i]
    closed = lam * acc
    residual_a = float(np.max(np.abs((x - y).toarray() - np.diag(closed))))

    hn = h[n]
    ground = lowest_eigenpairs(hn, EDSettings())
    energy = ground.ground_energy
    psi = ground.ground_vector
    exc = bases[n].excitation_counts().astype(float)
    u = exc * psi
    hu = hn @ u
    hpsi = hn @ psi
    lhs = float(u @ hu - energy * (u @ u))
    rhs = float(u @ hu - (exc * u) @ hpsi)
    scale = abs(float(u @ hu))
    residual_b = abs(lhs - rhs) / max(scale, 1e-30)
    return IdentityResiduals(
        residual_a=residual_a,
        residual_b=residual_b,
        scale_b=scale,
        ground_energy=energy,
    )


# ---------------------------------------------------------------------------
# Binding energies
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BindingResult:
    E_N: float
    E_Nm1: float
    delta_E: float
    result_N: EDResult
    result_Nm1: EDResult
    basis_N: FockBasis
    basis_Nm1: FockBasis
    ham_N: scipy.sparse.csr_matrix
    ham_Nm1: scipy.sparse.csr_matrix
    k0_is_global: bool | None
    converged: bool


def binding_from_ed(
    model: TorusModel,
    settings: EDSettings = EDSettings(),
    check_global: bool = True,
) -> BindingResult:
    """Ground energies of the N and N-1 sectors (K = 0) and their difference.

    Both solves share the coupling and mode set. With check_global, the
    unrestricted sector minimum is verified to coincide with the K = 0 value.
    """
    if model.N < 2:
        raise ValueError("binding energy needs N >= 2")
    modes = model.mode_set()
    k0 = zero_momentum(model.d)
    results = {}
    bases = {}
    hams = {}
    for sector in (model.N, model.N - 1):
        bases[sector] = enumerate_basis(modes, n_particles=sector, momentum_sector=k0)
        hams[sector] = build_hamiltonian(model, bases[sector])
        results[sector] = lowest_eigenpairs(hams[sector], settings)
    k0_is_global: bool | None = None
    if check_global:
        full = enumerate_basis(modes, n_particles=model.N)
        res_full = lowest_eigenpairs(
            build_hamiltonian(model, full), replace(settings, k=1)
        )
        scale = max(1.0, abs(res_full.ground_energy))
        k0_is_global = (
            abs(res_full.ground_energy - results[model.N].ground_energy)
            <= 1e-10 * scale
        )
    e_n = results[model.N].ground_energy
    e_nm1 = results[model.N - 1].ground_energy
    converged = results[model.N].converged and results[model.N - 1].converged
    if k0_is_global is False:
        converged = False
    return BindingResult(
        E_N=e_n,
        E_Nm1=e_nm1,
        delta_E=e_n - e_nm1,
        result_N=results[model.N],
        result_Nm1=results[model.N - 1],
        basis_N=bases[model.N],
        basis_Nm1=bases[model.N - 1],
        ham_N=hams[model.N],
        ham_Nm1=hams[model.N - 1],
        k0_is_global=k0_is_global,
        converged=converged,
    )


@dataclass(frozen=True)
class SandwichResult:
    """Rayleigh-quotient bracket around the computed binding energy.

    lower = E_N - <a_0 Psi_N, H a_0 Psi_N>/||a_0 Psi_N||^2 and
    upper = <a_0* Psi_{N-1}, H a_0* Psi_{N-1}>/||a_0* Psi_{N-1}||^2 - E_{N-1};
    the variational principle forces lower <= delta_E <= upper.
    """

    lower: float
    upper: float
    delta_E: float
    E_N: float
    E_Nm1: float
    norm_identity_dev_N: float
    norm_identity_dev_Nm1: float
    converged: bool


def variational_sandwich(binding: BindingResult) -> SandwichResult:
    """Evaluate both Rayleigh quotients plus the norm identities
    ||a_0 Psi_N||^2 = N - <N+>_N and ||a_0* Psi_{N-1}||^2 = N - <N+>_{N-1},
    reusing the sector operators and ground vectors of the binding solve."""
    basis_n, basis_m = binding.basis_N, binding.basis_Nm1
    a0 = zero_mode_annihilation(basis_n, basis_m)
    psi_n = binding.result_N.ground_vector
    psi_m = binding.result_Nm1.ground_vector
    v = a0 @ psi_n
    vv = float(v @ v)
    lower = binding.E_N - float(v @ (binding.ham_Nm1 @ v)) / vv
    u = a0.T @ psi_m
    uu = float(u @ u)
    upper = float(u @ (binding.ham_N @ u)) / uu - binding.E_Nm1
    n = basis_n.n_particles
    dev_n = abs(vv - (n - expect_nplus(psi_n, basis_n)))
    dev_m = abs(uu - (n - expect_nplus(psi_m, basis_m)))
    return SandwichResult(
        lower=lower,
        upper=upper,
        delta_E=binding.delta_E,
        E_N=binding.E_N,
        E_Nm1=binding.E_Nm1,
        norm_identity_dev_N=dev_n,
        norm_identity_dev_Nm1=dev_m,
        converged=binding.converged,
    )


# ---------------------------------------------------------------------------
# Pair-Hamiltonian ground with cutoff certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HBGround:
    result: EDResult
    basis: FockBasis
    cutoff_used: int
    delta_achieved: float
    converged: bool


def converged_bogoliubov_ground(
    modes: Sequence[Momentum],
    potential: PotentialSpec,
    hb: HBSettings = HBSettings(),
    settings: EDSettings = EDSettings(),
) -> HBGround:
    """Raise the excitation cutoff in steps of 2 until the ground value settles.

    Convergence means two successive converged ground energies differ by less
    than hb.cutoff_delta.
    """
    cutoff = hb.start_cutoff
    prev: tuple[int, EDResult, FockBasis] | None = None
    last_delta = math.inf
    while cutoff <= hb.max_cutoff:
        basis, ham = build_bogoliubov_hamiltonian(modes, cutoff, potential)
        result = lowest_eigenpairs(ham, settings)
        if prev is not None:
            last_delta = abs(result.ground_energy - prev[1].ground_energy)
            if last_delta < hb.cutoff_delta and result.converged and prev[1].converged:
                return HBGround(
                    result=result,
                    basis=basis,
                    cutoff_used=cutoff,
                    delta_achieved=last_delta,
                    converged=True,
                )
        prev = (cutoff, result, basis)
        cutoff += 2
    return HBGround(
        result=prev[1],
        basis=prev[2],
        cutoff_used=prev[0],
        delta_achieved=last_delta,
        converged=False,
    )
