"""Exact-diagonalization oracle on momentum-truncated Fock bases.

Builds the particle-number-conserving Hamiltonian

    H = sum_p |p|^2 a_p* a_p
      + (lambda/2) sum_{p,q,l} w_hat(l) a_{p-l}* a_{q+l}* a_p a_q

with every operator index restricted to a finite mode set, and the quadratic
pair Hamiltonian

    HB = sum_{p!=0} (|p|^2 + w_hat(p)) a_p* a_p
       + (1/2) sum_{p!=0} w_hat(p) (a_p* a_{-p}* + a_p a_{-p})

on the M-particle sector over the nonzero modes and the zero mode, as sparse
symmetric operators. Each term moves a fixed occupation change across every
state it acts on, so assembly finds the moved states by rank arithmetic
(FockBasis.shifted): the rank of a row is a sum of one term per suffix sum,
and a move changes only the few suffix sums between its first and last
changed mode. The two-body terms come from the model's transfer table
(TorusModel.transfers), built once per model. Solves lowest eigenpairs by
one direct LAPACK dsyevr
call for the lowest few pairs up to EDSettings.dense_threshold states (500,
the measured crossover, by default; up to 2,000 when three or more levels are
asked for) and by Lanczos with full reorthogonalization above, and evaluates
the observables and operator-identity residuals used by the binding-energy
study.

Every particle-number basis, a whole N sector or one momentum-filtered
block, is solved by total-momentum blocks (solve_sector), the one solve
path of the ed particle job and of study: it is assembled once and each
block is solved on its own, a block bound for the dense solve being filled
straight from the sector's sparse entries. The merged result keeps the
basis's dimension; its method is "lanczos" if any block ran Lanczos and
"dense" otherwise, and its iterations are the sum over the blocks.
binding_from_ed takes its K = 0 results and operators from those solves,
so each record assembles each Hamiltonian once.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
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

# Requests for k >= 3 levels are solved dense up to this dimension, since
# Lanczos reports a degenerate level once (see lowest_eigenpairs).
MULTI_LEVEL_DENSE_LIMIT = 2000


@dataclass(frozen=True)
class EDSettings:
    """Eigensolver knobs shared by every workflow, range-checked on construction."""

    tol: float = 1e-9
    max_iter: int = 1000
    seed: int = 0
    # Measured dense/Lanczos crossover of a ground-plus-gap (k <= 2) solve.
    dense_threshold: int = 500
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
        if not 0 < self.cutoff_delta < math.inf:
            raise ValueError(f"cutoff_delta must be positive and finite, got {self.cutoff_delta}")


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Occupation vectors of n_particles bosons over a mode set, in lexicographic order.

    states is one read-only (size, len(modes)) int64 array: row r holds the
    occupation of every mode in state r. momentum_sector, when set, names the
    total-momentum block the rows were filtered to.

    Rows are located by their combinatorial rank, the row's position in the
    lexicographic enumeration of the unfiltered sector (Streltsov, Alon and
    Cederbaum, PRA 81, 022124 (2010)). With R_j the particles held by modes
    j, j + 1, ..., the rank is a sum of one table term per suffix sum,
    sum_j T_j(R_j). find() ranks arbitrary rows from their suffix sums;
    shifted() ranks the image of a basis row under a fixed occupation change
    by rank arithmetic, updating only the terms whose suffix sum the change
    moves. A sector of more than 2^63 - 1 rows is refused, since its ranks do
    not fit in int64.
    """

    modes: tuple[Momentum, ...]
    states: np.ndarray
    n_particles: int
    momentum_sector: Momentum | None
    _terms: np.ndarray = field(init=False, repr=False)
    _ranks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        states = np.array(self.states, dtype=np.int64)
        if states.ndim != 2 or states.shape[1] != len(self.modes):
            raise ValueError("states must be one row of occupations per state")
        states.flags.writeable = False
        count = math.comb(self.n_particles + len(self.modes) - 1, len(self.modes) - 1)
        if count > np.iinfo(np.int64).max:
            raise ValueError(f"sector holds {count} states, too many to rank in int64")
        # binomials[k, r] = C(r + k, k), the number of rows of k + 1 modes
        # summing to r; each row is the running sum of the one before.
        binomials = np.ones((len(self.modes), self.n_particles + 1), dtype=np.int64)
        for k in range(1, len(self.modes)):
            binomials[k] = np.cumsum(binomials[k - 1])
        # With r the particles left before mode j and n its occupation, the
        # rows that share the prefix and put c < n there number C(r + k, k) -
        # C(r - n + k, k) by the hockey-stick identity, k = m - 1 - j being the
        # modes after it. Summed over j and grouped by suffix sum, the rank is
        # sum_j terms[j, R_j]: terms[0, N] = C(N + m - 1, m - 1) - 1 and
        # terms[j, r] = C(r + k, k) - C(r + k + 1, k + 1) for j >= 1.
        terms = np.empty_like(binomials)
        terms[0] = binomials[-1] - 1
        terms[1:] = binomials[-2::-1] - binomials[:0:-1]
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_terms", terms)
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

    @functools.cached_property
    def _suffix(self) -> np.ndarray:
        """R[j, r], the particles that modes j, j + 1, ... hold in state r,
        one contiguous row per mode."""
        return np.ascontiguousarray(np.cumsum(self.states[:, ::-1], axis=1)[:, ::-1].T)

    def _rank(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which rows lie in the unfiltered sector, and the rank of each that does."""
        suffix = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]
        valid = (rows >= 0).all(axis=1) & (suffix[:, 0] == self.n_particles)
        # Every suffix sum of a valid row lies in 0..N, inside the table.
        modes = np.arange(rows.shape[1])
        return valid, self._terms[modes, suffix[valid]].sum(axis=1)

    def _locate(self, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the given ranks in the basis, and which of them it holds."""
        at = np.searchsorted(self._ranks, ranks)
        inside = at < self.size
        hit = np.zeros(len(ranks), dtype=bool)
        hit[inside] = self._ranks[at[inside]] == ranks[inside]
        return at, hit

    def find(self, occupations) -> np.ndarray:
        """Position of each occupation row in the basis, -1 where it is absent."""
        rows = np.asarray(occupations, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != len(self.modes):
            raise ValueError(
                f"basis mismatch: rows of {len(self.modes)} occupations expected, "
                f"got shape {rows.shape}"
            )
        valid, ranks = self._rank(rows)
        at, hit = self._locate(ranks)
        out = np.full(len(rows), -1, dtype=np.int64)
        out[np.flatnonzero(valid)[hit]] = at[hit]
        return out

    def shifted(self, rows, delta) -> np.ndarray:
        """Position of each given basis row after adding delta to its occupations.

        Equal to find(states[rows] + delta), -1 where an occupation goes
        negative or the result lies outside the basis, without re-ranking the
        rows: delta moves the suffix sum R_j by delta_j = sum_{i >= j}
        delta_i, which is nonzero only between its first and last changed
        mode, so the rank moves by sum_j T_j(R_j + delta_j) - T_j(R_j) over
        those j alone.
        """
        rows = np.asarray(rows, dtype=np.int64)
        delta = np.asarray(delta, dtype=np.int64)
        if rows.ndim != 1 or delta.shape != (len(self.modes),):
            raise ValueError(
                f"basis mismatch: a row list and {len(self.modes)} occupation changes "
                f"expected, got shapes {rows.shape} and {delta.shape}"
            )
        if len(rows) and (rows.min() < 0 or rows.max() >= self.size):
            raise IndexError(f"rows must be positions in a basis of {self.size} states")
        out = np.full(len(rows), -1, dtype=np.int64)
        moves = np.cumsum(delta[::-1])[::-1]
        if moves[0] != 0:
            return out  # another particle number
        # Refuse negative occupations before any table lookup, where a
        # negative index would wrap.
        enough = np.ones(len(rows), dtype=bool)
        for i in np.flatnonzero(delta < 0):
            enough &= self.states[rows, i] >= -delta[i]
        kept = np.flatnonzero(enough)
        rows = rows[kept]
        ranks = self._ranks[rows]
        for j in np.flatnonzero(moves):
            before = self._suffix[j][rows]
            ranks += self._terms[j][before + moves[j]]
            ranks -= self._terms[j][before]
        at, hit = self._locate(ranks)
        out[kept[hit]] = at[hit]
        return out

    def momenta(self) -> np.ndarray:
        """Integer total momentum of every state, shape (size, d)."""
        return self.states @ np.array(self.modes, dtype=np.int64)

    def momentum_blocks(self) -> dict[Momentum, np.ndarray]:
        """Row indices of every total-momentum block, by increasing momentum.

        H conserves total momentum, so it is block diagonal over these rows
        and its lowest level is the least of the block minima (Sandvik, AIP
        Conf. Proc. 1297, 135 (2010)).
        """
        values, label = np.unique(self.momenta(), axis=0, return_inverse=True)
        label = label.reshape(-1)
        rows = np.split(np.argsort(label, kind="stable"), np.cumsum(np.bincount(label))[:-1])
        return {Momentum(int(x) for x in k): r for k, r in zip(values, rows)}

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
    n_particles: int,
    momentum_sector: Momentum | None = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> FockBasis:
    """Enumerate the n_particles sector, optionally filtered to one total-momentum value.

    The unfiltered count is computed in closed form before any materialization;
    exceeding max_states raises ResourceLimitError.
    """
    modes = tuple(modes)
    if not modes:
        raise ValueError("mode set is empty")
    if len(set(modes)) != len(modes):
        raise ValueError("mode set has duplicates")
    if n_particles < 0:
        raise ValueError("particle count must be nonnegative")
    count = math.comb(n_particles + len(modes) - 1, len(modes) - 1)
    if count > max_states:
        raise ResourceLimitError(f"sector holds {count} states, budget is {max_states}")
    states = _sector_rows(len(modes), n_particles)
    if momentum_sector is not None:
        if len(momentum_sector) != modes[0].d:
            raise ValueError("momentum sector dimension mismatch")
        momenta = states @ np.array(modes, dtype=np.int64)
        states = states[(momenta == np.array(momentum_sector)).all(axis=1)]
    return FockBasis(
        modes=modes,
        states=states,
        n_particles=n_particles,
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
    l != 0 terms are generated with exact bosonic square-root factors, one
    move of model.transfers at a time, and each move's target rows are found
    by basis.shifted. Momentum conservation keeps every generated entry
    inside the basis, including momentum-filtered ones.
    """
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
    for iq, ip, moves in model.transfers:
        # a_p a_q on every state holding both quanta.
        n_p = states[:, ip] - (ip == iq)
        sel = np.flatnonzero((states[:, iq] > 0) & (n_p > 0))
        f2 = np.sqrt(states[sel, iq]) * np.sqrt(n_p[sel])
        for wl, i1, i2 in moves:
            # a*_{p-l} a*_{q+l}, on the occupations the earlier operators left.
            delta = np.zeros(len(modes), dtype=np.int64)
            delta[iq] -= 1
            delta[ip] -= 1
            f3 = f2 * np.sqrt(states[sel, i2] + delta[i2] + 1)
            delta[i2] += 1
            f4 = f3 * np.sqrt(states[sel, i1] + delta[i1] + 1)
            delta[i1] += 1
            target = basis.shifted(sel, delta)
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
    """Sparse matrix of HB on the <= M excitation space over the nonzero modes.

    That space is the image of the M-particle sector under the excitation map
    U_M (Lewin, Nam, Serfaty and Solovej, CPAM 68, 413 (2015)): the basis is
    the M sector over modes followed by the zero mode, whose occupation
    M - N+ is what the excitations leave. A pair is created out of the zero
    mode and annihilated into it with factor 1, so pair creation on a row
    holding fewer than 2 zero-mode quanta leaves the basis: the hard cutoff.
    """
    modes = tuple(modes)
    if not modes:
        raise ValueError("mode set is empty")
    if any(p.is_zero for p in modes):
        raise ValueError("the pair Hamiltonian lives over nonzero modes only")
    pos = {p: i for i, p in enumerate(modes)}
    for p in modes:
        if -p not in pos:
            raise ValueError(f"mode set not closed under negation at {tuple(p)}")
    basis = enumerate_basis(
        modes + (zero_momentum(modes[0].d),),
        n_particles=excitation_cutoff,
        max_states=max_states,
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
        # a_p* a_{-p}* takes its pair from the zero mode, a_p a_{-p} gives it back.
        up = np.zeros(len(basis.modes), dtype=np.int64)
        up[im] += 1
        up[i] += 1
        up[-1] -= 2
        target = basis.shifted(index, up)
        sel = np.flatnonzero(target >= 0)
        rows.append(target[sel])
        cols.append(sel)
        vals.append(0.5 * w * np.sqrt((states[sel, i] + 1) * (states[sel, im] + 1)))
        sel = np.flatnonzero((states[:, i] >= 1) & (states[:, im] >= 1))
        rows.append(basis.shifted(sel, -up))
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

    @property
    def ground_energy(self) -> float:
        return self.eigenvalues[0]

    @property
    def vector_reliable(self) -> bool:
        return self.gap > DEGENERACY_GAP


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0.0 else v


def _solves_dense(dim: int, settings: EDSettings) -> bool:
    """Whether lowest_eigenpairs solves an operator of dim states dense."""
    return dim <= settings.dense_threshold or (
        settings.k >= 3 and dim <= MULTI_LEVEL_DENSE_LIMIT
    )


@functools.cache
def _syevr_workspace(dim: int) -> tuple[int, int]:
    """Optimal (lwork, liwork) of dsyevr at this dimension, from its query."""
    work, iwork, info = scipy.linalg.lapack.dsyevr_lwork(dim, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr workspace query failed, info = {info}")
    return int(work), int(iwork)


def lowest_eigenpairs(
    op: scipy.sparse.spmatrix | np.ndarray, settings: EDSettings = EDSettings()
) -> EDResult:
    """The settings.k smallest eigenvalues and ground vector of a symmetric operator.

    op is a sparse matrix or a dense array; a dense array is only read.
    Dimension <= settings.dense_threshold, or <= MULTI_LEVEL_DENSE_LIMIT when
    settings.k >= 3, goes to a dense solve of only the k_int = min(dim,
    max(k, 2)) lowest eigenpairs: one direct call of LAPACK dsyevr with
    range "I" (one tridiagonal reduction, no full eigenvector
    back-transform), with its workspace queried once per dimension; a
    failed call raises LinAlgError. Larger problems run Lanczos with full
    reorthogonalization from a start vector that is a deterministic function
    of (seed, dimension). The second pair gives the gap above the ground.
    The residual ||H v - E v|| is always measured post hoc on the returned
    vector, and convergence means residual_norm <= tol.

    The default dense_threshold of 500 is the measured crossover of a k <= 2
    solve: from about 500 states on, Lanczos is faster (8x at 1,353 states).
    Lanczos from one start vector reports each distinct level only once, so a
    degenerate level appears once among the k lowest, and a degenerate ground
    reports the next distinct level as the gap. Requests for k >= 3 therefore
    stay dense up to MULTI_LEVEL_DENSE_LIMIT states; above it they run this
    same Lanczos, which needs block or thick-restart Lanczos (Wu and Simon,
    SIAM J. Matrix Anal. Appl. 22, 602 (2000)) to count multiplicities.
    """
    dim = op.shape[0]
    if dim == 0:
        raise ValueError("empty operator")
    k = min(settings.k, dim)
    k_int = min(dim, max(k, 2))
    if _solves_dense(dim, settings):
        # Only a copy made here may be overwritten; the residual reads op.
        sparse = scipy.sparse.issparse(op)
        lwork, liwork = _syevr_workspace(dim)
        theta, eigvecs, found, _, info = scipy.linalg.lapack.dsyevr(
            op.toarray() if sparse else op,
            compute_v=1,
            range="I",
            il=1,
            iu=k_int,
            lower=1,
            lwork=lwork,
            liwork=liwork,
            overwrite_a=int(sparse),
        )
        if info != 0:
            raise np.linalg.LinAlgError(f"dsyevr failed, info = {info}")
        theta = theta[:found]
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
    )


def _lowest_tridiagonal_vectors(
    alphas: Sequence[float], betas: Sequence[float], k: int
) -> np.ndarray:
    """Eigenvectors of the k lowest pairs of a symmetric tridiagonal of order >= 2,
    by eigenvalue.

    The pair of LAPACK calls eigh_tridiagonal(select="i") makes, without its
    argument checks: dstebz bisects for the k lowest eigenvalues, in blocks
    of the split matrix, and dstein finds their vectors by inverse
    iteration. A nonzero info from either raises LinAlgError.
    """
    d = np.asarray(alphas, dtype=float)
    e = np.asarray(betas, dtype=float)
    found, w, iblock, isplit, info = scipy.linalg.lapack.dstebz(
        d, e, 2, 0.0, 1.0, 1, k, 0.0, "B"
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz failed, info = {info}")
    w = w[:found]
    vectors, info = scipy.linalg.lapack.dstein(d, e, w, iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein failed, info = {info}")
    return vectors[:, np.argsort(w)]


def _lanczos_lowest(
    op: scipy.sparse.spmatrix | np.ndarray, k: int, tol: float, max_iter: int, seed: int
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
            S = _lowest_tridiagonal_vectors(alphas, betas, k)
            # Ritz residual estimate |beta * last component|, per target pair.
            if all(abs(b * S[-1, i]) <= 0.5 * tol for i in range(k)):
                done = True
        if done:
            break
        betas.append(b)
        Q[j + 1] = w / b
    theta, S = scipy.linalg.eigh_tridiagonal(alphas, betas)
    n_out = min(k, len(theta))
    # Report the Rayleigh quotients of the Ritz vectors, not the Ritz values:
    # the tridiagonal's eigenvalues carry a few eps * ||H|| of rounding from
    # the recurrence, the quotients about what a dense solve carries.
    ritz = S[:, :n_out].T @ Q[:steps]
    ritz /= np.linalg.norm(ritz, axis=1)[:, None]
    theta = np.einsum("ij,ji->i", ritz, op @ ritz.T)
    return theta, _phase_fixed(ritz[0]), steps


# ---------------------------------------------------------------------------
# Whole N sectors by momentum block
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SectorSolve:
    """A particle-number basis, solved one total-momentum block at a time.

    ham is the operator assembled once on basis. rows maps each total
    momentum, in increasing order, to its rows of basis; results holds each
    block's lowest max(k, 2) pairs. merged is the result on the whole basis
    built from them.
    """

    basis: FockBasis
    ham: scipy.sparse.csr_matrix
    rows: dict[Momentum, np.ndarray]
    results: dict[Momentum, EDResult]
    merged: EDResult

    def block(self, momentum: Momentum) -> tuple[FockBasis, scipy.sparse.csr_matrix]:
        """The block's own basis, filtered to momentum, and its operator ham[rows][:, rows].

        Its rows keep the lexicographic order of basis, so the pair is the
        one enumerate_basis and build_hamiltonian give for that block alone.
        """
        rows = self.rows[momentum]
        basis = FockBasis(
            modes=self.basis.modes,
            states=self.basis.states[rows],
            n_particles=self.basis.n_particles,
            momentum_sector=momentum,
        )
        return basis, self.ham[rows][:, rows]


def solve_sector(
    model: TorusModel, basis: FockBasis, settings: EDSettings = EDSettings()
) -> SectorSolve:
    """Lowest levels of a particle-number basis from its momentum blocks.

    basis is a whole N sector or one momentum-filtered block of it; either
    way it is assembled once. H conserves total momentum, so the spectrum is
    the union of the block spectra (Sandvik, AIP Conf. Proc. 1297, 135
    (2010)). The operator is permuted once, so that each block is a
    contiguous run of rows, and every block goes through lowest_eigenpairs.
    A block that lowest_eigenpairs will solve dense is passed as a dense
    array filled from those rows' stored entries, the same array toarray()
    gives, which spares a sparse slice per block; a block bound for Lanczos
    is passed as a sparse slice.

    The merged result holds the k lowest of all block eigenvalues, the gap
    between the two lowest, and the ground-holding block's vector placed in
    the whole basis, zero on every other row; its residual is measured on the
    whole operator. It is converged when every block solve is and that
    residual is <= tol. Its method is "lanczos" if any block ran Lanczos,
    and its iterations are the sum over the blocks.
    """
    if not basis.size:
        raise ValueError("basis holds no state")
    rows = basis.momentum_blocks()
    ham = build_hamiltonian(model, basis)
    # Slicing a contiguous block costs about a third of fancy-indexing its rows.
    order = np.concatenate(list(rows.values()))
    permuted = ham[order][:, order]
    # Each stored entry's row-major position in its block's dense array.
    entry_row = np.repeat(np.arange(basis.size), np.diff(permuted.indptr))
    sizes = np.array([len(b) for b in rows.values()])
    row_start = np.repeat(np.cumsum(sizes) - sizes, sizes)[entry_row]
    row_size = np.repeat(sizes, sizes)[entry_row]
    flat = (entry_row - row_start) * row_size + permuted.indices - row_start
    block_settings = replace(settings, k=max(settings.k, 2))
    results = {}
    stop = 0
    for momentum, block in rows.items():
        start, stop = stop, stop + len(block)
        if _solves_dense(len(block), block_settings):
            # bincount adds each entry onto zero in stored order, as toarray() does.
            at = slice(permuted.indptr[start], permuted.indptr[stop])
            op = np.bincount(
                flat[at], weights=permuted.data[at], minlength=len(block) ** 2
            ).reshape(len(block), len(block))
        else:
            op = permuted[start:stop, start:stop]
        results[momentum] = lowest_eigenpairs(op, block_settings)
    levels = sorted(e for r in results.values() for e in r.eigenvalues)
    ground_at = min(results, key=lambda p: results[p].ground_energy)
    ground = np.zeros(basis.size)
    ground[rows[ground_at]] = results[ground_at].ground_vector
    residual = float(np.linalg.norm(ham @ ground - levels[0] * ground))
    gap = levels[1] - levels[0] if len(levels) > 1 else math.inf
    merged = EDResult(
        eigenvalues=tuple(levels[: settings.k]),
        ground_vector=ground,
        residual_norm=residual,
        iterations=sum(r.iterations for r in results.values()),
        converged=residual <= settings.tol and all(r.converged for r in results.values()),
        method="lanczos" if any(r.method == "lanczos" for r in results.values()) else "dense",
        gap=gap,
    )
    return SectorSolve(basis=basis, ham=ham, rows=rows, results=results, merged=merged)


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
    """<v, a_p a_{-p} v> in the excitation space, the quasi-free value being m_p.

    The pair goes to the zero mode with factor 1, as under the excitation map
    U_N, so the value is the same on an N sector and on its pair-Hamiltonian
    image.
    """
    vec = _check_vector(vec, basis)
    if p not in basis.modes or -p not in basis.modes:
        raise ValueError(f"basis mismatch: mode pair {tuple(p)} not in basis")
    ip = basis.modes.index(p)
    im = basis.modes.index(-p)
    if ip == im:
        raise ValueError("pairing needs p != -p")
    zp = basis.zero_position
    if zp is None:
        raise ValueError("basis mismatch: pairing needs the zero mode")
    states = basis.states
    sel = np.flatnonzero((states[:, ip] >= 1) & (states[:, im] >= 1))
    lowered = np.zeros(len(basis.modes), dtype=np.int64)
    lowered[ip] -= 1
    lowered[im] -= 1
    lowered[zp] += 2
    target = basis.shifted(sel, lowered)
    hit = target >= 0
    sel, target = sel[hit], target[hit]
    return float(np.sum(vec[target] * np.sqrt(states[sel, ip] * states[sel, im]) * vec[sel]))


# ---------------------------------------------------------------------------
# Operator identities
# ---------------------------------------------------------------------------


def zero_mode_annihilation(
    basis_from: FockBasis, basis_to: FockBasis
) -> scipy.sparse.csr_matrix:
    """Matrix of a_0 from an n-particle basis onto the (n-1)-particle basis."""
    if basis_from.modes != basis_to.modes:
        raise ValueError("basis mismatch: mode sets differ")
    if basis_from.n_particles != basis_to.n_particles + 1:
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


def operator_identity_residuals(
    model: TorusModel, max_dim: int = 4000, ham_n: scipy.sparse.csr_matrix | None = None
) -> IdentityResiduals:
    """Verify both identities with explicit matrices on the N-1, N, N+1 sectors,
    taking H on the whole N sector from ham_n (a SectorSolve's ham) when given."""
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
    h = {s: build_hamiltonian(model, b) for s, b in bases.items() if s != n or ham_n is None}
    h.setdefault(n, ham_n)
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
    residual_b = abs(lhs - rhs) / max(abs(float(u @ hu)), 1e-30)
    return IdentityResiduals(residual_a=residual_a, residual_b=residual_b)


# ---------------------------------------------------------------------------
# Binding energies
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BindingResult:
    """Ground energies of the K = 0 blocks of the N and N-1 sectors.

    result_N and result_Nm1 are the K = 0 block solves of solve_sector, so
    each holds the block's lowest max(k, 2) levels and a residual measured on
    the block. basis_* and ham_* are those blocks' own bases and operators.
    sector_minimum and k0_is_global are None without the global check.
    """

    E_N: float
    E_Nm1: float
    delta_E: float
    result_N: EDResult
    result_Nm1: EDResult
    basis_N: FockBasis
    basis_Nm1: FockBasis
    ham_N: scipy.sparse.csr_matrix
    ham_Nm1: scipy.sparse.csr_matrix
    sector_minimum: float | None
    k0_is_global: bool | None
    converged: bool


def binding_from_ed(
    model: TorusModel,
    settings: EDSettings = EDSettings(),
    check_global: bool = True,
) -> BindingResult:
    """Ground energies of the N and N-1 sectors (K = 0) and their difference.

    Both sectors share the coupling and mode set, and each goes through
    solve_sector once: the K = 0 block of N-1 particles and, with
    check_global, the whole N sector, else its K = 0 block. The K = 0 results
    are that solve's K = 0 block. sector_minimum is the whole N sector's
    merged ground, the least block minimum, and k0_is_global says whether the
    K = 0 ground attains it; the binding is then converged only if the merged
    solve is too. An empty K = 0 sector raises ValueError.
    """
    if model.N < 2:
        raise ValueError("binding energy needs N >= 2")
    modes = model.mode_set()
    k0 = zero_momentum(model.d)
    solves = {}
    for sector in (model.N, model.N - 1):
        whole = check_global and sector == model.N
        basis = enumerate_basis(
            modes, n_particles=sector, momentum_sector=None if whole else k0
        )
        solved = solve_sector(model, basis, settings) if basis.size else None
        if solved is None or k0 not in solved.results:
            raise ValueError(f"the K = 0 sector of {sector} particles holds no state")
        solves[sector] = solved
    result_n = solves[model.N].results[k0]
    result_nm1 = solves[model.N - 1].results[k0]
    basis_n, ham_n = solves[model.N].block(k0)
    basis_nm1, ham_nm1 = solves[model.N - 1].block(k0)
    converged = result_n.converged and result_nm1.converged
    sector_minimum: float | None = None
    k0_is_global: bool | None = None
    if check_global:
        merged = solves[model.N].merged
        sector_minimum = merged.ground_energy
        k0_is_global = (
            abs(sector_minimum - result_n.ground_energy)
            <= 1e-10 * max(1.0, abs(sector_minimum))
        )
        converged = converged and merged.converged and k0_is_global
    return BindingResult(
        E_N=result_n.ground_energy,
        E_Nm1=result_nm1.ground_energy,
        delta_E=result_n.ground_energy - result_nm1.ground_energy,
        result_N=result_n,
        result_Nm1=result_nm1,
        basis_N=basis_n,
        basis_Nm1=basis_nm1,
        ham_N=ham_n,
        ham_Nm1=ham_nm1,
        sector_minimum=sector_minimum,
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
    prev: tuple[EDResult, FockBasis, int] | None = None
    last_delta = math.inf
    while cutoff <= hb.max_cutoff:
        basis, ham = build_bogoliubov_hamiltonian(modes, cutoff, potential)
        result = lowest_eigenpairs(ham, settings)
        if prev is not None:
            last_delta = abs(result.ground_energy - prev[0].ground_energy)
            if last_delta < hb.cutoff_delta and result.converged and prev[0].converged:
                return HBGround(result, basis, cutoff, last_delta, converged=True)
        prev = (result, basis, cutoff)
        cutoff += 2
    return HBGround(*prev, last_delta, converged=False)
