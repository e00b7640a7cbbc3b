"""Exact-diagonalization oracle on momentum-truncated Fock bases.

Builds the particle-number-conserving Hamiltonian

    H = sum_p |p|^2 a_p* a_p
      + (lambda/2) sum_{p,q,l} w_hat(l) a_{p-l}* a_{q+l}* a_p a_q

with every operator index restricted to a finite mode set, and the quadratic
pair Hamiltonian

    HB = sum_{p!=0} (|p|^2 + w_hat(p)) a_p* a_p
       + (1/2) sum_{p!=0} w_hat(p) (a_p* a_{-p}* + a_p a_{-p})

on the M-particle sector over the nonzero modes and the zero mode, as sparse
symmetric operators, on a whole sector or one total-momentum block of it. A
block is enumerated directly, one mode at a time, each mode taking only the
occupations with which the modes after it can still reach the block's
momentum, so no row outside it is made.
Each term moves a fixed occupation change across every state it acts on, and
TorusModel.transfers, built once per model, groups the two-body terms by it.
A term's adjoint makes the opposite change with the same weight, so H is
assembled from an array table of the terms of one change of each pair
{c, -c}, built once per mode set and potential (_term_table): every term is
evaluated on every row at once, each change sums its terms row by row in
term order, and every moved entry is ranked by rank arithmetic, each
change's entries over the suffix sums that change moves, and located by one
binary search. Each entry, and each pair creation of HB, is stored with its
mirror, so each entry is made once and both operators are exactly
symmetric. The rank of a row is a sum of one term per suffix sum, and a
change moves only the few suffix sums between its first and last changed
mode; FockBasis.shifted does the same for one change, for HB and the
pairing observable. The number of array passes depends on the modes and the
largest group of terms, not on the number of terms, and rows go in chunks
that keep every temporary within ASSEMBLY_CHUNK_ELEMENTS. The CSR arrays of
H, HB and a_0 are built directly from the entries sorted by (row, column),
with no COO conversion (_assemble). lowest_eigenpairs takes a CSR operator
and solves it by a block Davidson solver preconditioned with the operator's
diagonal (_davidson_lowest) or by one LAPACK dsyevr call on one dense array;
the observables and operator-identity residuals of the binding-energy study
are evaluated here too.

Both operators conserve total momentum and are even under p -> -p, so a
sector's levels are those of K = 0 and one block of each pair {K, -K},
that block's levels counted for its mirror too. Every sector is solved by
one block loop (_solve_blocks), with no operator built in advance: it
visits blocks by shells of increasing |K|_1, each shell bounded from below
before any of its blocks is built (_block_visits), enumerates, assembles
and solves each block visited alone, and stops once the next bound lies
above the levels it wants, and merges the blocks solved into the sector's
result. Its users differ in their bound and in the levels they want:

- solve_particle_sector, the ed whole-sector job, bounds H's block K by
  block_energy_bound, (2 pi)^2 |K|_1 plus an interaction bound;
- converged_bogoliubov_ground bounds HB's block K by e_B + c |K|_1, its
  quasiparticle energies' least rate per unit of |p|_1 (_pair_block_bound);
- binding_from_ed wants one level: the loop, started from the K = 0
  block's solve, certifies that K = 0 holds the ground of the N sector and
  of the N - 1 sector.

A caller of one block (the ed momentum_sector job, the binding's K = 0
blocks, the pair Hamiltonian's cutoff ladder) solves it by
lowest_eigenpairs directly. Davidson starts on the rows of low diagonal.
A solve of H or HB whose route would exceed the memory budget is refused
before assembly, from the block's size alone (momentum_block,
build_bogoliubov_hamiltonian, _solve_route).

scipy is imported inside the functions that assemble, solve or build a_0,
so a process that only reads cached results never loads it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import bogoliubov
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

# Largest operator solved dense, whatever the settings ask: at this size its
# array of dim**2 doubles takes 0.8 GB, the memory budget of every
# eigensolve (_solve_route).
MAX_DENSE_STATES = 10_000


@dataclass(frozen=True)
class EDSettings:
    """Eigensolver knobs shared by every workflow, range-checked on construction."""

    tol: float = 1e-9
    max_iter: int = 1000
    seed: int = 0
    # Largest solve sent dense, at least max(k, 2) states; Davidson's measured
    # crossover is near 130-180.
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
    total-momentum block that holds the rows.

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
        Conf. Proc. 1297, 135 (2010)). A basis filtered to one momentum is
        that one block, all its rows in order, or no block when empty. The
        sectors solved block by block never build a whole basis; the
        selfcheck reads these rows of the one it assembles. The blocks are
        found once per basis, and the row arrays are read-only.
        """
        return dict(self._blocks)

    @functools.cached_property
    def _blocks(self) -> dict[Momentum, np.ndarray]:
        momenta = self.momenta()
        # Stable sort, first coordinate most significant: each block's rows
        # stay ascending.
        order = np.lexsort(momenta.T[::-1])
        ordered = momenta[order]
        cuts = np.flatnonzero((ordered[1:] != ordered[:-1]).any(axis=1)) + 1
        blocks = {
            Momentum(int(x) for x in momenta[r[0]]): r
            for r in np.split(order, cuts)
            if len(r)  # an empty basis splits into one empty piece
        }
        for rows in blocks.values():
            rows.flags.writeable = False
        return blocks

    def excitation_counts(self) -> np.ndarray:
        """Per-state number of particles outside the zero mode."""
        totals = self.states.sum(axis=1)
        zp = self.zero_position
        return totals if zp is None else totals - self.states[:, zp]


def _sector_rows(
    momenta: np.ndarray, budget: int, target: np.ndarray | None, max_states: int
) -> np.ndarray:
    """Every row of len(momenta) nonnegative occupations summing to budget,
    and with a target only those whose momentum, the sum of occupation times
    momenta row, is target, in lexicographic order, built one mode at a time.

    A prefix over modes 0..j-1 leaves r particles and a momentum need, target
    minus its own momentum, to modes j, j + 1, .... Mode j takes only the
    occupations v for which the modes after it can still supply need - v p_j:
    with r - v particles they supply between r - v times the least and r - v
    times the greatest of each coordinate there. Each bound is linear in v,
    so each prefix gets an interval of v, one integer division per bound and
    coordinate over all prefixes at once. Over the last mode the bounds meet,
    so the rows made are exactly those of the block, and a prefix that no
    occupation continues has no children. Without a target v runs over
    0..r, and the rows are the whole sector. A step whose candidate count,
    the sum of the interval lengths, exceeds max_states raises
    ResourceLimitError before it builds them.

    A step keeps each prefix as its parent prefix and its own occupation, not
    as a row, and the rows are read back from those links at the end.
    """
    m = len(momenta)
    if target is not None:
        # low[j] and high[j]: least and greatest coordinates over modes j, j + 1, ...
        low = np.minimum.accumulate(momenta[::-1])[::-1]
        high = np.maximum.accumulate(momenta[::-1])[::-1]
        need = target[None, :]
    remaining = np.array([budget], dtype=np.int64)
    if target is not None and m == 1 and (budget * momenta[0] != target).any():
        remaining = remaining[:0]  # one mode alone cannot make the block
    links: list[tuple[np.ndarray, np.ndarray]] = []  # (parent, value) per mode but the last
    for j in range(m - 1):
        # Each step works in place where it can, so the arrays alive at once
        # stay a few of one entry per prefix or per candidate.
        first = np.zeros_like(remaining)
        last = remaining.copy()
        if target is not None:
            p = momenta[j]
            for c in range(len(p)):
                # need_c - v p_c lies within [(r - v) low, (r - v) high] over
                # modes j + 1, ...: each side reads a + b v >= 0.
                for a, b in (
                    (need[:, c] - remaining * low[j + 1, c], low[j + 1, c] - p[c]),
                    (remaining * high[j + 1, c] - need[:, c], p[c] - high[j + 1, c]),
                ):
                    if b > 0:  # v >= ceil(-a / b)
                        np.maximum(first, -(a // b), out=first)
                    elif b < 0:  # v <= floor(a / -b)
                        np.minimum(last, a // -b, out=last)
                    else:
                        last[a < 0] = -1
        counts = last
        counts -= first
        counts += 1
        np.maximum(counts, 0, out=counts)
        size = int(counts.sum())
        if size > max_states:
            raise ResourceLimitError(
                f"momentum block enumeration builds {size} candidate rows at mode {j},"
                f" budget is {max_states}"
            )
        # Candidate i of a prefix whose candidates start at s takes v = first + i - s.
        shift = np.cumsum(counts)
        shift -= counts
        shift -= first
        parent = np.repeat(np.arange(len(remaining)), counts)
        value = np.arange(size)
        value -= shift[parent]
        del first, counts, shift  # per-prefix arrays, not needed past this step
        links.append((parent, value))
        remaining = remaining[parent]
        remaining -= value
        if target is not None:
            need = need[parent]
            for c in range(len(p)):
                need[:, c] -= value * p[c]
    rows = np.empty((len(remaining), m), dtype=np.int64)
    rows[:, -1] = remaining
    at = np.arange(len(remaining))
    for j in range(len(links) - 1, -1, -1):
        parent, value = links[j]
        rows[:, j] = value[at]
        at = parent[at]
    return rows


def enumerate_basis(
    modes: Sequence[Momentum],
    n_particles: int,
    momentum_sector: Momentum | None = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> FockBasis:
    """Enumerate the n_particles sector, or its momentum_sector block directly.

    A block is built by one pass over the modes in which each mode takes
    only the occupations that can still reach the block's momentum
    (_sector_rows), so no row outside the block is made. max_states bounds
    what is built: a whole sector's count is computed in closed form, and a
    block's candidate rows step by step, each before any of it is
    allocated; exceeding it raises ResourceLimitError. A whole particle
    sector is solved from its blocks (solve_particle_sector), so only the
    callers that assemble a whole space ask for one.
    """
    modes = tuple(modes)
    if not modes:
        raise ValueError("mode set is empty")
    if len(set(modes)) != len(modes):
        raise ValueError("mode set has duplicates")
    if n_particles < 0:
        raise ValueError("particle count must be nonnegative")
    if momentum_sector is not None and len(momentum_sector) != modes[0].d:
        raise ValueError("momentum sector dimension mismatch")
    target = None
    if momentum_sector is None:
        count = math.comb(n_particles + len(modes) - 1, len(modes) - 1)
        if count > max_states:
            raise ResourceLimitError(f"sector holds {count} states, budget is {max_states}")
    else:
        target = np.array(momentum_sector, dtype=np.int64)
    states = _sector_rows(np.array(modes, dtype=np.int64), n_particles, target, max_states)
    return FockBasis(
        modes=modes,
        states=states,
        n_particles=n_particles,
        momentum_sector=momentum_sector,
    )


def _assemble(
    rows: list[np.ndarray],
    cols: list[np.ndarray],
    vals: list[np.ndarray],
    shape: tuple[int, int],
) -> scipy.sparse.csr_matrix:
    """CSR matrix of the given shape from blocks of entries, each (row, column) given once.

    The CSR arrays are built directly: the entries are sorted by (row,
    column) and indptr counts them per row. That is the canonical matrix
    coo_matrix(...).tocsr() gives, with the same int32 indices while they
    fit, without its conversions.
    """
    import scipy.sparse

    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    n_rows, n_cols = shape
    index = np.int32 if max(len(vals), n_rows, n_cols) <= np.iinfo(np.int32).max else np.int64
    # Unique (row, column) pairs have distinct row-major keys. The builders'
    # blocks each ascend by row (adding a fixed occupation change keeps
    # lexicographic order), and a merge sort takes such runs in near-linear time.
    order = np.argsort(rows * n_cols + cols, kind="stable")
    indptr = np.zeros(n_rows + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    matrix = scipy.sparse.csr_matrix(
        (vals[order], cols[order].astype(index), indptr), shape=shape
    )
    matrix.has_canonical_format = True
    return matrix


# Largest element count of any (term, row) temporary of build_hamiltonian,
# which takes the basis in chunks of rows that keep each within it (8 MB of
# float64). Unchunked, the four root factors of the 144 terms of the
# nearest-neighbour square model on a 500,000-state block would take 2.3 GB.
ASSEMBLY_CHUNK_ELEMENTS = 1 << 20


@dataclass(frozen=True, eq=False)
class _TermTable:
    """The two-body terms of model.transfers as arrays: the exchange group's
    terms, then those of the first-listed change of each adjoint pair
    {c, -c}, each group in table order, and last a padding term of weight 0.

    wl[t] is w_hat(l) of term t. factors[k, t] names the k-th square-root
    factor of term t, in the order q, p, q + l, p - l of a*_{p-l} a*_{q+l}
    a_p a_q, as 4 i + s: the root of n_i + s - 1, clipped at 0, where n_i is
    the occupation of mode i. The first n_exchange terms are the exchange
    group. Row c of slots lists the terms of moving change c, padded with
    the padding term. moved[c] lists, for moving change c, each suffix sum
    it moves as (i, j): the change moves R_j by amounts[i], and no other
    suffix sum. steps caches rank_steps by particle count.
    """

    wl: np.ndarray
    factors: np.ndarray
    n_exchange: int
    slots: np.ndarray
    moved: tuple[tuple[tuple[int, int], ...], ...]
    modes: np.ndarray
    amounts: np.ndarray
    steps: dict[int, np.ndarray] = field(default_factory=dict)

    def rank_steps(self, basis: FockBasis) -> np.ndarray:
        """steps[i, R] = T_j(R + amounts[i]) - T_j(R) for j = modes[i], with T
        basis's rank table: the rank move of a row whose suffix sum R_j is R.

        Only a row that the change applies to is looked up, and there
        R + amounts[i] lies in 0..N. The table depends only on the modes and
        N, so it is made once per particle count.
        """
        steps = self.steps.get(basis.n_particles)
        if steps is None:
            held = np.arange(basis.n_particles + 1)
            moved = np.clip(held + self.amounts[:, None], 0, basis.n_particles)
            modes = self.modes[:, None]
            steps = basis._terms[modes, moved] - basis._terms[modes, held]
            if len(self.steps) >= 64:
                self.steps.clear()
            self.steps[basis.n_particles] = steps
        return steps


def _build_term_table(model: TorusModel) -> _TermTable:
    terms = [t for change, group in model.transfers if not change for t in group]
    n_exchange = len(terms)
    # The adjoint of a*_{p-l} a*_{q+l} a_p a_q is the term (q + l, p - l, l)
    # over the same four modes, so group -c holds the adjoints of group c.
    moving, kept = [], set()
    for change, group in model.transfers:
        if change and tuple((i, -amount) for i, amount in change) not in kept:
            kept.add(change)
            moving.append((change, group))
    width = max((len(group) for _, group in moving), default=1)
    pad = n_exchange + sum(len(group) for _, group in moving)
    slots = []
    for _, group in moving:
        slots.append([*range(len(terms), len(terms) + len(group))] + [pad] * (width - len(group)))
        terms.extend(group)
    terms.append((0.0, 0, 0, 0, 0))  # weight 0: adds exactly 0 wherever it pads
    delta = np.zeros((len(moving), len(model.mode_set())), dtype=np.int64)
    for c, (change, _) in enumerate(moving):
        for i, amount in change:
            delta[c, i] = amount
    suffix_moves = np.cumsum(delta[:, ::-1], axis=1)[:, ::-1]
    changes, modes = np.nonzero(suffix_moves)  # change-major
    moved = [[] for _ in moving]
    for i, (c, j) in enumerate(zip(changes.tolist(), modes.tolist())):
        moved[c].append((i, j))
    factors = []
    for _, iq, ip, i1, i2 in terms:
        # Each root takes its mode's occupation as the operators to its right
        # left it, clipped at 0, so a term that does not apply to a row adds
        # exactly 0 there.
        factors.append(
            (
                4 * iq + 1,
                4 * ip + 1 - (ip == iq),
                4 * i2 + 2 - (i2 == iq) - (i2 == ip),
                4 * i1 + 2 - (i1 == iq) - (i1 == ip) + (i1 == i2),
            )
        )
    return _TermTable(
        wl=np.array([t[0] for t in terms]),
        factors=np.array(factors, dtype=np.intp).T.copy(),
        n_exchange=n_exchange,
        slots=np.array(slots, dtype=np.intp).reshape(len(moving), width),
        moved=tuple(map(tuple, moved)),
        modes=modes,
        amounts=suffix_moves[changes, modes],
    )


# Term tables by (mode set, potential): a study sweep builds one and every N
# reuses it. Few models meet in one process, so the cache is cleared, not
# evicted by age, when it fills.
_TERM_TABLES: dict[tuple, _TermTable] = {}


def _term_table(model: TorusModel) -> _TermTable:
    key = (model.mode_set(), model.potential)
    table = _TERM_TABLES.get(key)
    if table is None:
        if len(_TERM_TABLES) >= 16:
            _TERM_TABLES.clear()
        table = _TERM_TABLES[key] = _build_term_table(model)
    return table


def build_hamiltonian(model: TorusModel, basis: FockBasis) -> scipy.sparse.csr_matrix:
    """Sparse matrix of H on a fixed-particle-number basis.

    The l = 0 interaction is the exact diagonal lambda*w_hat(0)*n(n-1)/2. The
    l != 0 terms of model.transfers, with exact bosonic square-root factors,
    are evaluated on every row at once from their term table (_term_table),
    and each occupation change sums its terms in table order by adding one
    slot column at a time; the exchange terms, which change nothing, add to
    the diagonal. Every nonzero sum is then moved by rank arithmetic, each
    change's run of entries over the suffix sums that change moves alone,
    one cached step table lookup each (_TermTable.rank_steps), and located
    by one _locate call. The table holds one change of each adjoint pair,
    so each entry is stored with its mirror, and H == H.T exactly. Rows go
    in chunks that keep every (term, row) temporary within
    ASSEMBLY_CHUNK_ELEMENTS elements. Momentum conservation keeps every
    entry inside the basis, including momentum-filtered ones.
    """
    if tuple(basis.modes) != model.mode_set():
        raise ValueError("basis modes do not match the model's mode set")
    table = _term_table(model)
    states = basis.states
    n_total = states.sum(axis=1)
    diag = model.lam * model.potential.w_zero * n_total * (n_total - 1) / 2.0
    for i, p in enumerate(basis.modes):
        diag += p.norm2 * states[:, i]
    index = np.arange(basis.size)
    rows, cols, vals = [index], [index], [diag]
    # roots[n + 1] = sqrt(n), and roots[0] = 0 for a root clipped at 0.
    roots = np.sqrt(np.maximum(np.arange(-1, basis.n_particles + 3), 0))
    weights = 0.5 * model.lam * table.wl[:, None]
    steps = table.rank_steps(basis)
    changes = np.arange(len(table.moved) + 1)
    chunk = max(1, ASSEMBLY_CHUNK_ELEMENTS // (4 * max(len(table.wl), len(basis.modes))))
    for start in range(0, basis.size, chunk):
        stop = min(start + chunk, basis.size)
        # Row 4 i + s of root_rows is roots[n_i + s] over the chunk, s = 0..3.
        root_rows = roots[states[start:stop].T[:, None, :] + np.arange(4)[:, None]]
        factors = root_rows.reshape(-1, stop - start)[table.factors]
        value = factors[0] * factors[1]
        value *= factors[2]
        value *= factors[3]
        value *= weights
        for t in range(table.n_exchange):
            diag[start:stop] += value[t]
        total = value[table.slots[:, 0]]
        for k in range(1, table.slots.shape[1]):
            total += value[table.slots[:, k]]
        change, at = np.nonzero(total)
        source = at + start
        ranks = basis._ranks[source]
        # The entries come change-major: each change's run of entries moves
        # only the suffix sums that change moves.
        runs = np.searchsorted(change, changes).tolist()
        for c, pairs in enumerate(table.moved):
            if runs[c] < runs[c + 1]:
                run = slice(runs[c], runs[c + 1])
                run_rows, run_ranks = source[run], ranks[run]
                for i, j in pairs:
                    run_ranks += steps[i][basis._suffix[j][run_rows]]
        target, hit = basis._locate(ranks)
        if not hit.all():
            # Momentum conservation guarantees membership.
            raise RuntimeError("generated state left the basis")
        entry = total[change, at]
        rows += [target, source]
        cols += [source, target]
        vals += [entry, entry]
    return _assemble(rows, cols, vals, (basis.size, basis.size))


def build_bogoliubov_hamiltonian(
    modes: Sequence[Momentum],
    excitation_cutoff: int,
    potential: PotentialSpec,
    momentum_sector: Momentum | None = None,
    settings: EDSettings = EDSettings(),
) -> tuple[FockBasis, scipy.sparse.csr_matrix]:
    """Sparse matrix of HB on the <= M excitation space over the nonzero modes,
    or on its momentum_sector block.

    That space is the image of the M-particle sector under the excitation map
    U_M (Lewin, Nam, Serfaty and Solovej, CPAM 68, 413 (2015)): the basis is
    the M sector over modes followed by the zero mode, whose occupation
    M - N+ is what the excitations leave. A pair is created out of the zero
    mode and annihilated into it with factor 1, so pair creation on a row
    holding fewer than 2 zero-mode quanta leaves the basis: the hard cutoff.
    A pair carries no momentum, so no other move leaves a block. Each pair
    creation, located by one FockBasis.shifted call, is stored with its
    mirror, the annihilation, so HB == HB.T exactly. As in momentum_block, a
    route of lowest_eigenpairs at settings over its memory budget is refused
    (ResourceLimitError, _solve_route) between enumeration and assembly.
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
        momentum_sector=momentum_sector,
    )
    _solve_route(basis.size, settings)  # raises for a route over the budget
    states = basis.states
    diag = np.zeros(basis.size)
    for i, p in enumerate(modes):
        diag += (p.norm2 + potential.w_hat(p)) * states[:, i]
    index = np.arange(basis.size)
    rows, cols, vals = [index], [index], [diag]
    for i, p in enumerate(modes):
        w = potential.w_hat(p)
        im = pos[-p]
        if w == 0.0 or im < i:
            continue
        # Once per pair {p, -p}, at w_hat(p) = w_hat(p)/2 + w_hat(-p)/2: a_p* a_{-p}*
        # takes its pair from the zero mode, and a_p a_{-p}, its adjoint,
        # gives it back: the same entries mirrored.
        up = np.zeros(len(basis.modes), dtype=np.int64)
        up[[i, im, -1]] = 1, 1, -2
        target = basis.shifted(index, up)
        sel = np.flatnonzero(target >= 0)
        entry = w * np.sqrt((states[sel, i] + 1) * (states[sel, im] + 1))
        rows += [target[sel], sel]
        cols += [sel, target[sel]]
        vals += [entry, entry]
    return basis, _assemble(rows, cols, vals, (basis.size, basis.size))


@dataclass(frozen=True, eq=False)
class EDResult:
    """The min(dim, max(k, 2)) lowest levels of an operator, in increasing
    order (_levels_kept), and its ground vector; a report shows the first k."""

    eigenvalues: tuple[float, ...]
    ground_vector: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    method: str

    @property
    def ground_energy(self) -> float:
        return self.eigenvalues[0]

    @property
    def gap(self) -> float:
        """The second level minus the first, inf with one level."""
        levels = self.eigenvalues
        return levels[1] - levels[0] if len(levels) > 1 else math.inf

    @property
    def vector_reliable(self) -> bool:
        return self.gap > DEGENERACY_GAP


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0.0 else v


def _levels_kept(settings: EDSettings) -> int:
    """max(k, 2), so that every result holds the gap above its ground."""
    return max(settings.k, 2)


def _solve_route(dim: int, settings: EDSettings) -> str:
    """The route of lowest_eigenpairs on dim states at settings, "dense" up
    to max(settings.dense_threshold, k, 2) states, else "davidson" on
    b = max(k, 2) vectors, within one memory budget of MAX_DENSE_STATES**2
    doubles: a route whose arrays exceed it, dim**2 doubles for dense and
    (2 (DAVIDSON_WIDTH + b) + 3 b) dim for Davidson (_davidson_lowest),
    raises ResourceLimitError before any of them is made.
    """
    block = _levels_kept(settings)
    method = "dense" if dim <= max(settings.dense_threshold, block) else "davidson"
    doubles = dim * dim if method == "dense" else (2 * (DAVIDSON_WIDTH + block) + 3 * block) * dim
    if doubles > MAX_DENSE_STATES**2:
        raise ResourceLimitError(
            f"{method} solve of {dim} states holds {doubles} doubles, budget is"
            f" {MAX_DENSE_STATES**2} (lower k, or dense_threshold for a dense route)"
        )
    return method


def lowest_eigenpairs(
    op: scipy.sparse.csr_matrix, settings: EDSettings = EDSettings()
) -> EDResult:
    """The k_int = min(dim, max(settings.k, 2)) smallest eigenvalues and the
    ground vector of an exactly symmetric CSR operator, as H and HB are
    assembled, on the route that _solve_route gives, which refuses one over
    the memory budget. Every level computed is kept (_levels_kept).

    The dense route takes the k_int lowest pairs from one LAPACK dsyevr call
    with range "I", on the minimum workspace of scipy's wrapper (26 dim
    doubles, 10 dim integers). It overwrites op.toarray().T, which is
    Fortran-ordered and equal to op, so it holds one array of dim**2
    doubles; a failed call raises LinAlgError. The Davidson route runs a
    block Davidson solver on k_int vectors (_davidson_lowest), at most
    settings.max_iter iterations, and reports the Rayleigh quotients of op
    at its Ritz vectors, so it can report a degenerate level as often as it
    occurs among the k_int lowest; iterations counts its operator
    applications. The residual ||H v - E v|| is always measured post hoc on
    op at the returned vector, and convergence means residual_norm <= tol; a
    solve that stops at max_iter keeps its best vectors and is reported
    unconverged, never raised.
    """
    dim = op.shape[0]
    if dim == 0:
        raise ValueError("empty operator")
    k_int = min(dim, _levels_kept(settings))
    method = _solve_route(dim, settings)
    if method == "dense":
        import scipy.linalg.lapack

        theta, eigvecs, found, _, info = scipy.linalg.lapack.dsyevr(
            op.toarray().T,
            compute_v=1,
            range="I",
            il=1,
            iu=k_int,
            lower=1,
            overwrite_a=1,
        )
        if info != 0:
            raise np.linalg.LinAlgError(f"dsyevr failed, info = {info}")
        theta = theta[:found]
        ground = _phase_fixed(np.ascontiguousarray(eigvecs[:, 0]))
        iterations = 0
        finished = True
    else:
        theta, ground, iterations, finished = _davidson_lowest(op, k_int, settings)
    ground = ground / float(np.linalg.norm(ground))
    residual = float(np.linalg.norm(op @ ground - theta[0] * ground))
    return EDResult(
        eigenvalues=tuple(float(t) for t in theta),
        ground_vector=ground,
        residual_norm=residual,
        iterations=iterations,
        converged=finished and residual <= settings.tol,
        method=method,
    )


def _gershgorin(op: scipy.sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal d_i of a CSR matrix, and each row's Gershgorin radius
    r_i = sum_{j != i} |op_ij|, so that max(|d| + r) = ||op||_inf, read in
    one pass over its stored values with no copy of its index arrays.
    """
    starts = op.indptr[:-1]
    held = starts < op.indptr[1:]
    sums = np.zeros(op.shape[0])
    # A row's stored values run from its start to the next held row's start.
    sums[held] = np.add.reduceat(np.abs(op.data), starts[held])
    diagonal = op.diagonal()
    return diagonal, sums - np.abs(diagonal)


# Vectors the Davidson search space holds beyond its block, so a solve holds
# a few tens of vectors of dim doubles whatever max_iter allows.
DAVIDSON_WIDTH = 12

# Scale of the seeded Gaussian added to each Davidson start column.
START_NOISE = 1e-2


def _davidson_start(
    diagonal: np.ndarray, radii: np.ndarray, block: int, seed: int
) -> np.ndarray:
    """The block start rows of the Davidson solver: row j is the unit vector
    on the j-th lowest diagonal row (ties by position) plus a seeded Gaussian
    of scale START_NOISE, each entry scaled by exp(-(d_i - min d) / r_max),
    with r_max the largest Gershgorin radius.

    Where the diagonal climbs in steps much larger than the radii, as a
    kinetic-dominated H does, the low levels live on the rows of low
    diagonal, and this start holds little of the rest. The Gaussian is a
    deterministic function of (seed, dimension), so no column is orthogonal
    to a level that a symmetry of op separates from its unit vector. The
    exponent is capped at 600 before the division, and r_max is taken at
    least the smallest subnormal, so no entry becomes 0 and nothing
    overflows, a diagonal op included.
    """
    dim = len(diagonal)
    start = START_NOISE * np.random.default_rng([seed, dim]).standard_normal((block, dim))
    spread = max(float(radii.max()), np.finfo(float).smallest_subnormal)
    start *= np.exp(-np.minimum(diagonal - diagonal.min(), 600.0 * spread) / spread)
    start[np.arange(block), np.argsort(diagonal, kind="stable")[:block]] += 1.0
    return start


def _davidson_lowest(
    op: scipy.sparse.csr_matrix, k: int, settings: EDSettings
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """The k lowest Rayleigh quotients by a block Davidson solver (Davidson,
    J. Comput. Phys. 17, 87 (1975)), the ground vector, the operator
    applications, and whether every pair converged within settings.max_iter
    iterations.

    The search space V and its image HV = op V are rows of C-ordered
    (DAVIDSON_WIDTH + k, dim) arrays, V orthonormal. Each iteration takes
    the k lowest Ritz pairs (theta_j, x_j) of V, and stops once every
    residual r_j = op x_j - theta_j x_j is at most 32 eps ||op||_inf. Each
    open pair then adds the correction r_j / (d_i - theta_j), with d_i the
    diagonal and each denominator at least that tolerance in size, or r_j
    itself where the correction lies in V (as on an exactly diagonal op).
    A new row goes through two passes of Gram-Schmidt against V and is kept
    only if more than 1e-8 of its norm is left. When V cannot take a row
    for each open pair it restarts from the k Ritz vectors, and takes as
    many corrections as fit, the lowest pairs first. An iteration that adds
    no row stops the solve, unconverged. The space starts from
    _davidson_start. The levels reported are fresh Rayleigh quotients of op
    at the Ritz vectors of the last iteration, the best the solve found.

    Besides op and a temporary of its stored values (_gershgorin), it holds
    V, HV, and the Ritz vectors (the start rows before the first
    iteration), their images and residuals, each written in place: the
    (2 (DAVIDSON_WIDTH + k) + 3 k) dim doubles _solve_route budgets.
    """
    dim = op.shape[0]
    diagonal, radii = _gershgorin(op)
    tol = 32.0 * np.finfo(float).eps * float((np.abs(diagonal) + radii).max())
    ritz = _davidson_start(diagonal, radii, k, settings.seed)  # then the Ritz vectors
    space = np.empty((DAVIDSON_WIDTH + k, dim))
    image = np.empty_like(space)
    ritz_image, residuals = np.empty_like(ritz), np.empty_like(ritz)
    size = 0

    def extend(row: np.ndarray) -> bool:
        nonlocal size
        before = float(np.linalg.norm(row))
        for _ in range(2):
            row = row - (space[:size] @ row) @ space[:size]
        after = float(np.linalg.norm(row))
        if not after > 1e-8 * before:
            return False
        space[size] = row / after
        size += 1
        return True

    def apply(start: int, stop: int) -> None:
        # One vector at a time: scipy's single-vector product is about three
        # times faster than its block product at these widths, and sums each
        # entry in the same order.
        for i in range(start, stop):
            image[i] = op @ space[i]

    for row in ritz:
        extend(row)
    apply(0, size)
    applied = size
    finished = False
    for iteration in range(settings.max_iter):
        theta, coefficients = np.linalg.eigh(space[:size] @ image[:size].T)
        coefficients = coefficients[:, :k].T
        np.matmul(coefficients, space[:size], out=ritz)
        np.matmul(coefficients, image[:size], out=ritz_image)
        np.subtract(ritz_image, np.multiply(theta[:k, None], ritz, out=residuals), out=residuals)
        # The sums of np.linalg.norm(residuals, axis=1), row by row: no (k, dim) temporary.
        norms = np.sqrt([np.add.reduce(r * r) for r in residuals])
        open_pairs = np.flatnonzero(norms > tol)
        if not len(open_pairs):
            finished = True
            break
        if iteration == settings.max_iter - 1:
            break
        if size + len(open_pairs) > len(space):
            space[:k], image[:k], size = ritz, ritz_image, k
        grown = size
        for j in open_pairs[: len(space) - size]:
            shifted = diagonal - theta[j]
            shifted[np.abs(shifted) < tol] = tol
            extend(residuals[j] / shifted) or extend(residuals[j])
        if size == grown:
            break
        apply(grown, size)
        applied += size - grown
    del ritz_image, residuals  # room for the op @ x below, within the budget
    ritz /= np.linalg.norm(ritz, axis=1)[:, None]
    theta = np.einsum("ij,ji->i", ritz, np.column_stack([op @ x for x in ritz]))
    order = np.argsort(theta)
    return theta[order], _phase_fixed(ritz[order[0]]), applied, finished


# ---------------------------------------------------------------------------
# Sectors by momentum block
# ---------------------------------------------------------------------------


def block_energy_bound(model: TorusModel, particles: int, shell: int) -> float:
    """A lower bound B on every level of every block K of model's sector of
    n = particles with |K|_1 = shell, |K|_1 the sum of K's absolute integer
    coordinates:

        B = (2 pi)^2 |K|_1 + lambda n ((n - 1) w_hat(0) - sum_{l!=0} w_hat(l)) / 2.

    H is the kinetic term T plus the interaction W, so each level is at
    least the least of T on the block plus the least of W. T is diagonal,
    sum_p |p|^2 n_p with |p|^2 = (2 pi)^2 |p|_2^2, and an integer vector has
    |p|_2^2 >= |p|_1; on block K, sum_p n_p |p|_1 >= |sum_p n_p p|_1 = |K|_1,
    so T >= (2 pi)^2 |K|_1 there. The l = 0 part of W is exactly lambda
    w_hat(0) n (n - 1) / 2. On the truncated Fock space each l != 0 term is
    (lambda/2) w_hat(l) (rho_l rho_l* - sum_q n_q), with rho_l =
    sum_p a*_{p-l} a_p and q running over the modes with q + l in the set;
    rho_l rho_l* >= 0 and the sum is at most n, so since lambda >= 0 and
    w_hat >= 0 (TorusModel, validate_potential) the term is at least
    -(lambda/2) w_hat(l) n (Seiringer, CMP 306, 565 (2011)). The bound needs
    no operator, so it ranks blocks before any is built.
    """
    rest = math.fsum(v for p, v in model.potential.entries if not p.is_zero)
    interaction = model.lam * particles * ((particles - 1) * model.potential.w_zero - rest) / 2.0
    return TWO_PI * TWO_PI * shell + interaction


def _pair_block_bound(modes: Sequence[Momentum], potential: PotentialSpec):
    """shell -> e_B + c shell, a lower bound on every level of every block K
    of the pair Hamiltonian's <= M space over modes with |K|_1 = shell.

    On the whole Fock space over the nonzero modes HB = e_B + sum_p e_p
    b_p* b_p exactly, each b_p lowering the momentum by p (Lewin, Nam,
    Serfaty and Solovej, CPAM 68, 413 (2015); Seiringer, CMP 306, 565
    (2011)), with e_p and e_B those of bogoliubov.mode_quantities. A
    quasiparticle state of block K has sum_p n_p p = K, so sum_p n_p |p|_1
    >= |K|_1 and its energy is at least e_B + c |K|_1, with c the least
    e_p / |p|_1 over the modes. HB on the <= M space is the compression of
    HB to a subspace of each block, so its levels there are at least that
    too. A negative or non-finite w_hat raises ValueError.
    """
    quantities = [bogoliubov.mode_quantities(p, potential.w_hat(p)) for p in modes]
    e_b = -math.fsum(q.eB_summand for q in quantities)
    rate = min(q.e_p / sum(abs(x) for x in q.p) for q in quantities)
    return lambda shell: e_b + rate * shell


def _shell(d: int, size: int):
    """The integer vectors of d coordinates with |K|_1 = size, in increasing order."""
    if d == 1:
        yield from ((-size,), (size,)) if size else ((0,),)
        return
    for x in range(-size, size + 1):
        for rest in _shell(d - 1, size - abs(x)):
            yield (x, *rest)


def _block_visits(modes: Sequence[Momentum], particles: int, bound_of_shell):
    """(K, bound, copies) for K = 0 and, of each pair {K, -K}, the greater
    block, counted twice: by shells of increasing |K|_1, ties in momentum
    order, up to particles times max |p|_1 over modes, beyond which no block
    of particles over modes holds a state. bound_of_shell(s) bounds every
    level of every block with |K|_1 = s from below, and each shell's bound is
    taken only when the loop reaches it. Momenta outside particles times the
    box of the modes are skipped."""
    low = [particles * min(c) for c in zip(*modes)]
    high = [particles * max(c) for c in zip(*modes)]
    for shell in range(particles * max(sum(abs(x) for x in p) for p in modes) + 1):
        bound = bound_of_shell(shell)
        for k in _shell(len(low), shell):
            if k >= tuple(-x for x in k) and all(a <= x <= b for a, x, b in zip(low, k, high)):
                yield Momentum(k), bound, 2 if shell else 1


def _particle_visits(model: TorusModel, particles: int):
    """_block_visits over model's sector of particles, bounded by
    block_energy_bound. A mode set not closed under negation raises
    ValueError: its block -K is not block K mirrored."""
    modes = model.mode_set()
    if {-p for p in modes} != set(modes):
        raise ValueError("mode set not closed under negation: block -K is not block K mirrored")
    return _block_visits(modes, particles, functools.partial(block_energy_bound, model, particles))


def momentum_block(
    model: TorusModel, particles: int, momentum: Momentum, settings: EDSettings = EDSettings()
) -> tuple[FockBasis, scipy.sparse.csr_matrix | None]:
    """Block momentum of model's sector of particles: its own basis
    (enumerate_basis) and H on it, or None for an empty block.

    A route of lowest_eigenpairs at settings over its memory budget is
    refused (ResourceLimitError, _solve_route) from the block's size,
    before anything is assembled.
    """
    basis = enumerate_basis(model.mode_set(), particles, momentum)
    if not basis.size:
        return basis, None
    _solve_route(basis.size, settings)  # raises for a route over the budget
    return basis, build_hamiltonian(model, basis)


def _solve_blocks(
    visits, build, settings: EDSettings, zero_block=None, wanted: int | None = None
) -> tuple[EDResult, FockBasis]:
    """The block loop of every sector solve.

    visits yields (K, bound, copies) in increasing bound order: a lower bound
    on every level of block K, and the number of blocks holding its levels,
    2 with its mirror -K, else 1. build(K) gives the block's own basis and
    operator; an empty basis is skipped. Each block is solved alone by
    lowest_eigenpairs at settings; zero_block, K = 0's basis and its solve
    at settings, stands in for K = 0. The loop stops once the next bound
    exceeds the wanted-th lowest level found, by default the
    _levels_kept(settings)-th, by 1e-10 max(1, |level|), a block's levels
    counted copies times: no level of that block or of any after it can be
    among the wanted lowest.

    Block -K needs no solve of its own: the map p -> -p takes the mode set
    to itself (build_mode_set makes it closed under negation, and the
    callers refuse any other set), and w_hat is exactly even
    (validate_potential), so H and HB on block -K are the block-K operator
    with its rows permuted, with the same levels.

    Returns the result on the whole space and the own basis of the block
    holding the ground: the least ground energy, ties to the lesser
    momentum, as when every block is solved. The result holds the wanted
    lowest levels and that block's vector and residual. It is converged
    when every solved block is; its method is "davidson" if any solved
    block ran Davidson, and its iterations are the sum over the solved
    blocks.
    """
    wanted = wanted or _levels_kept(settings)
    results: list[EDResult] = []
    levels: list[float] = []
    ground = None  # (ground energy, momentum, result, basis) of the ground block
    for momentum, bound, copies in visits:
        if len(levels) >= wanted:
            last = levels[wanted - 1]
            if bound > last + 1e-10 * max(1.0, abs(last)):
                break
        if zero_block is not None and momentum.is_zero:
            basis, result = zero_block
        else:
            basis, op = build(momentum)
            if not basis.size:
                continue
            result = lowest_eigenpairs(op, settings)
        results.append(result)
        levels = sorted(levels + list(result.eigenvalues) * copies)
        if ground is None or (result.ground_energy, momentum) < ground[:2]:
            ground = result.ground_energy, momentum, result, basis
    _, _, result, basis = ground
    merged = EDResult(
        eigenvalues=tuple(levels[:wanted]),
        ground_vector=result.ground_vector,
        residual_norm=result.residual_norm,
        iterations=sum(r.iterations for r in results),
        converged=all(r.converged for r in results),
        method="davidson" if any(r.method == "davidson" for r in results) else "dense",
    )
    return merged, basis


@dataclass(frozen=True, eq=False)
class ParticleSector:
    """The lowest levels of model's whole N sector, solved block by block.

    dimension is the sector's state count, in closed form. basis is the own
    basis of the block holding the ground, and merged the result on the
    sector (see solve_particle_sector), its ground vector on basis.
    """

    dimension: int
    basis: FockBasis
    merged: EDResult


def solve_particle_sector(
    model: TorusModel, settings: EDSettings = EDSettings()
) -> ParticleSector:
    """Lowest levels of model's whole N sector, from the blocks that can hold them.

    No operator exists before a block is solved: the blocks are visited in
    increasing order of block_energy_bound, K = 0 and of each pair {K, -K}
    the greater, whose levels count for its mirror too, and the loop
    (_solve_blocks) stops once the next bound lies above the max(k, 2)
    lowest levels found. Each block visited is enumerated alone
    (momentum_block, through enumerate_basis, which builds only rows that
    can reach it), skipped when empty, refused when its route is over the
    memory budget (ResourceLimitError) before assembly, and else assembled
    and solved by lowest_eigenpairs at settings.

    So the memory budget refuses a block the loop must solve, never the
    sector for its size, and only the ground block's basis is kept: each
    other block's basis and operator go once it is solved. merged holds the
    max(k, 2) lowest levels that solving every block would give, with the
    ground vector on the ground block and its residual measured there. A
    mode set not closed under negation raises ValueError.
    """
    merged, basis = _solve_blocks(
        _particle_visits(model, model.N),
        lambda momentum: momentum_block(model, model.N, momentum, settings),
        settings,
    )
    modes = model.mode_set()
    return ParticleSector(
        dimension=math.comb(model.N + len(modes) - 1, len(modes) - 1),
        basis=basis,
        merged=merged,
    )


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
    return _assemble([rows], [cols], [vals], (basis_to.size, basis_from.size))


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
    model: TorusModel,
    max_dim: int = 4000,
    sector: tuple[FockBasis, scipy.sparse.csr_matrix, float, np.ndarray] | None = None,
) -> IdentityResiduals:
    """Verify both identities with explicit matrices on the N-1, N, N+1 sectors.

    sector, when given, is (basis, ham, energy, ground) on the whole N
    sector: its basis, H on it, and an eigenpair of H, the ground vector on
    basis. Else the sector is enumerated and assembled here, and its ground
    comes from solve_particle_sector at default settings, placed in the
    whole basis. A momentum-filtered sector raises ValueError.
    """
    modes = model.mode_set()
    if not any(p.is_zero for p in modes):
        raise ValueError("identities involve a_0; include the zero mode")
    n = model.N
    if sector is not None and sector[0].momentum_sector is not None:
        raise ValueError("the identities need the whole N sector, not one momentum block")
    total = 0
    for particles in (n - 1, n, n + 1):
        total += math.comb(particles + len(modes) - 1, len(modes) - 1)
        if total > max_dim:
            raise ResourceLimitError(
                f"identity check needs {total} states, budget is {max_dim}"
            )
    bases = {s: enumerate_basis(modes, n_particles=s) for s in (n - 1, n + 1)}
    h = {s: build_hamiltonian(model, b) for s, b in bases.items()}
    if sector is None:
        basis = enumerate_basis(modes, n_particles=n)
        whole = solve_particle_sector(model)
        psi = np.zeros(basis.size)
        psi[basis.find(whole.basis.states)] = whole.merged.ground_vector
        sector = basis, build_hamiltonian(model, basis), whole.merged.ground_energy, psi
    bases[n], h[n], energy, psi = sector
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

    result_N and result_Nm1 are the K = 0 block solves at the settings
    given, each with its residual measured on the block. basis_* and ham_*
    are those blocks' own bases and operators. sector_minimum and
    sector_minimum_Nm1 are the least levels of the whole N and N - 1
    sectors, and k0_is_global says whether both K = 0 grounds attain them;
    all three are None without the global check.
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
    sector_minimum_Nm1: float | None = None


def binding_from_ed(
    model: TorusModel,
    settings: EDSettings = EDSettings(),
    check_global: bool = True,
) -> BindingResult:
    """Ground energies of the N and N-1 sectors (K = 0) and their difference.

    Both sectors share the coupling and mode set, and the K = 0 block of each
    is enumerated, assembled and solved once (momentum_block,
    lowest_eigenpairs). With check_global, each sector's least level comes
    from the block loop at one level (_solve_blocks), started from its K = 0
    solve: the reported K = 0 ground (a Rayleigh quotient, or a dense
    eigenvalue) lies above the block's true ground up to rounding, so where
    block_energy_bound at |K|_1 = 1 lies above it by 1e-10 max(1, |E|), K = 0
    holds the ground and nothing more is solved; else the blocks are solved
    in bound order until the next bound lies above the least level found.
    The binding is converged only if every block solved is and both K = 0
    grounds attain their sector minimum. An empty K = 0 sector raises
    ValueError.
    """
    if model.N < 2:
        raise ValueError("binding energy needs N >= 2")
    k0 = zero_momentum(model.d)
    blocks = {}
    for n in (model.N, model.N - 1):
        basis, ham = momentum_block(model, n, k0, settings)
        if not basis.size:
            raise ValueError(f"the K = 0 sector of {n} particles holds no state")
        blocks[n] = basis, ham, lowest_eigenpairs(ham, settings)
    (basis_n, ham_n, result_n), (basis_m, ham_m, result_m) = blocks.values()
    converged = result_n.converged and result_m.converged
    minima: dict[int, float | None] = dict.fromkeys(blocks)
    k0_is_global: bool | None = None
    if check_global:
        k0_is_global = True
        for n, (basis, _, result) in blocks.items():
            merged, _ = _solve_blocks(
                _particle_visits(model, n),
                lambda momentum, n=n: momentum_block(model, n, momentum, settings),
                settings,
                zero_block=(basis, result),
                wanted=1,
            )
            minima[n] = minimum = merged.ground_energy
            k0_is_global = k0_is_global and (
                abs(minimum - result.ground_energy) <= 1e-10 * max(1.0, abs(minimum))
            )
            converged = converged and merged.converged
        converged = converged and k0_is_global
    return BindingResult(
        E_N=result_n.ground_energy,
        E_Nm1=result_m.ground_energy,
        delta_E=result_n.ground_energy - result_m.ground_energy,
        result_N=result_n,
        result_Nm1=result_m,
        basis_N=basis_n,
        basis_Nm1=basis_m,
        ham_N=ham_n,
        ham_Nm1=ham_m,
        sector_minimum=minima[model.N],
        k0_is_global=k0_is_global,
        converged=converged,
        sector_minimum_Nm1=minima[model.N - 1],
    )


@dataclass(frozen=True)
class SandwichResult:
    """Rayleigh-quotient bracket around the computed binding energy.

    lower = E_N - <a_0 Psi_N, H a_0 Psi_N>/||a_0 Psi_N||^2 and
    upper = <a_0* Psi_{N-1}, H a_0* Psi_{N-1}>/||a_0* Psi_{N-1}||^2 - E_{N-1};
    the variational principle forces lower <= delta_E <= upper. Where
    a_0 Psi_N = 0 (a ground with no zero-mode particle) there is no trial
    state, and lower is -inf, the vacuous bound. ||a_0* Psi_{N-1}||^2 =
    <Psi_{N-1}, (n_0 + 1) Psi_{N-1}> is at least 1, so upper always has one.
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
    lower = binding.E_N - float(v @ (binding.ham_Nm1 @ v)) / vv if vv else -math.inf
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
    """The pair Hamiltonian's lowest levels at cutoff_used.

    result is the merged result on the whole <= M space, its ground vector
    on basis, the own basis of the block holding the ground; dimension is
    the space's state count, in closed form.
    """

    result: EDResult
    basis: FockBasis
    dimension: int
    cutoff_used: int
    delta_achieved: float
    converged: bool


def converged_bogoliubov_ground(
    modes: Sequence[Momentum],
    potential: PotentialSpec,
    hb: HBSettings = HBSettings(),
    settings: EDSettings = EDSettings(),
) -> HBGround:
    """Raise the excitation cutoff in steps of 2 until the K = 0 ground settles.

    HB's ground lies in its K = 0 block, so each rung builds and solves that
    block alone at settings, as the block loop does. Convergence means two
    successive converged K = 0 grounds differ by less than hb.cutoff_delta.
    At the accepted (or last) cutoff the <= M space is solved block by
    block (_solve_blocks), each block built alone and bounded by
    _pair_block_bound, the last rung's solve standing in for K = 0, so no
    block is built or solved twice. A block whose route is over the memory
    budget is refused before it is assembled (build_bogoliubov_hamiltonian).
    The space holds C(M + m, m) states over m modes.
    """
    modes = tuple(modes)
    k0 = zero_momentum(modes[0].d) if modes else None  # no modes: the builder raises
    prev: EDResult | None = None
    last_delta = math.inf
    settled = False
    for cutoff in range(hb.start_cutoff, hb.max_cutoff + 1, 2):
        basis, op = build_bogoliubov_hamiltonian(modes, cutoff, potential, k0, settings)
        result = lowest_eigenpairs(op, settings)
        if prev is not None:
            last_delta = abs(result.ground_energy - prev.ground_energy)
            settled = last_delta < hb.cutoff_delta and result.converged and prev.converged
            if settled:
                break
        prev = result
    merged, ground_basis = _solve_blocks(
        _block_visits(basis.modes, cutoff, _pair_block_bound(modes, potential)),
        lambda p: build_bogoliubov_hamiltonian(modes, cutoff, potential, p, settings),
        settings,
        zero_block=(basis, result),
    )
    dimension = math.comb(cutoff + len(modes), len(modes))
    return HBGround(merged, ground_basis, dimension, cutoff, last_delta, settled and merged.converged)
