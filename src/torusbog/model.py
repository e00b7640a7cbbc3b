"""Problem definition: momentum lattice of the unit torus, interaction tables, model instances.

Momenta live on (2*pi*Z)^d and are stored as integer lattice vectors; the physical
value 2*pi*n is computed on demand so that set membership, hashing and negation are
exact integer operations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

TWO_PI = 2.0 * math.pi

# Enumeration guard: mode sets and bases beyond this are refused, not attempted.
DEFAULT_MAX_MODES = 200_000


class ResourceLimitError(RuntimeError):
    """A requested enumeration would exceed the configured size budget."""


class Momentum(tuple):
    """Integer lattice point n of a torus momentum p = 2*pi*n."""

    def __new__(cls, coords: Iterable[int]) -> "Momentum":
        vals = tuple(coords)
        if not vals:
            raise ValueError("momentum needs at least one component")
        if not all(isinstance(v, int) for v in vals):
            raise ValueError(f"momentum coordinates must be integers, got {vals!r}")
        return super().__new__(cls, vals)

    @property
    def d(self) -> int:
        return len(self)

    @property
    def is_zero(self) -> bool:
        return not any(self)

    def __neg__(self) -> "Momentum":
        return Momentum(-v for v in self)

    @property
    def norm2(self) -> float:
        """|p|^2 = (2*pi)^2 * sum(n_i^2); one rounding on top of exact integers."""
        return (TWO_PI * TWO_PI) * float(sum(v * v for v in self))

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm2)


def zero_momentum(d: int) -> Momentum:
    return Momentum((0,) * d)


@dataclass(frozen=True)
class PotentialSpec:
    """Finite Fourier table of an even interaction with nonnegative coefficients.

    entries holds (p, w_hat(p)) pairs sorted by integer coordinates; this is the
    canonical representation that feeds hashing and serialization.
    """

    entries: tuple[tuple[Momentum, float], ...]
    support_radius: float
    _table: Mapping[Momentum, float] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        table = {}
        for p, value in self.entries:
            if not isinstance(p, Momentum):
                p = Momentum(p)
            if p in table:
                raise ValueError(f"duplicate potential entry at {tuple(p)}")
            table[p] = float(value)
        canonical = tuple(sorted((p, v) for p, v in table.items()))
        object.__setattr__(self, "entries", canonical)
        object.__setattr__(self, "_table", table)

    @staticmethod
    def from_table(
        table: Mapping[Iterable[int], float], support_radius: float | None = None
    ) -> "PotentialSpec":
        entries = tuple((Momentum(k), float(v)) for k, v in table.items())
        if support_radius is None:
            support_radius = max((p.norm for p, _ in entries), default=0.0)
        return PotentialSpec(entries, support_radius)

    @staticmethod
    def band(d: int, radius: float, value: float, w0: float = 0.0) -> "PotentialSpec":
        """Constant coefficient on 0 < |p| <= radius, plus an optional zero-mode value."""
        table: dict[Momentum, float] = {}
        for p in build_mode_set(d, radius, include_zero=True):
            table[p] = w0 if p.is_zero else value
        return PotentialSpec.from_table(table, support_radius=radius)

    def w_hat(self, p: Momentum) -> float:
        return self._table.get(p, 0.0)

    @property
    def w_zero(self) -> float:
        """w_hat at p = 0 (0.0 when absent)."""
        for p, v in self.entries:
            if p.is_zero:
                return v
        return 0.0

    def nonzero_momenta(self) -> tuple[Momentum, ...]:
        return tuple(p for p, v in self.entries if not p.is_zero and v != 0.0)

    @property
    def coefficient_sum(self) -> float:
        """sum_p w_hat(p), the real-space value w(0)."""
        return math.fsum(v for _, v in self.entries)

    @property
    def dimension(self) -> int | None:
        return self.entries[0][0].d if self.entries else None


def validate_potential(spec: PotentialSpec) -> list[str]:
    """Collect every violated assumption; an empty list means the table is valid."""
    report: list[str] = []
    dims = {p.d for p, _ in spec.entries}
    if len(dims) > 1:
        report.append(f"mixed momentum dimensions {sorted(dims)}")
    for p, v in spec.entries:
        if not math.isfinite(v):
            report.append(f"non-finite coefficient at p={tuple(p)}")
        if v < 0.0:
            report.append(f"negative coefficient at p={tuple(p)}")
        if spec.w_hat(-p) != v:
            report.append(f"evenness violated at p={tuple(p)}")
        if v != 0.0 and p.norm > spec.support_radius:
            report.append(f"support exceeds support_radius at p={tuple(p)}")
    if not math.isfinite(spec.support_radius) or spec.support_radius < 0.0:
        report.append("support_radius must be finite and nonnegative")
    return report


def real_space_eval(spec: PotentialSpec, x: Iterable[float]) -> float:
    """w(x) = sum_p w_hat(p) exp(i p.x); evenness makes the result real."""
    xs = tuple(float(c) for c in x)
    total = 0.0 + 0.0j
    for p, v in spec.entries:
        if p.d != len(xs):
            raise ValueError(f"point dimension {len(xs)} does not match momentum {tuple(p)}")
        phase = TWO_PI * sum(n * c for n, c in zip(p, xs))
        total += v * complex(math.cos(phase), math.sin(phase))
    scale = max(1.0, math.fsum(abs(v) for _, v in spec.entries))
    if abs(total.imag) > 1e-12 * scale:
        raise ValueError(
            f"imaginary residue {total.imag:.3e} exceeds tolerance; coefficient table is not even"
        )
    return total.real


def normalize_zero_mode(
    spec: PotentialSpec,
) -> tuple[PotentialSpec, Callable[[float, int], float]]:
    """Zero out w_hat(0); return the shifted spec and the exact energy offset.

    The offset lambda * w_hat(0) * N(N-1)/2 is the zero-mode interaction energy,
    constant on every fixed-N sector.
    """
    w0 = spec.w_zero
    if w0 == 0.0:
        return spec, lambda lam, N: 0.0
    entries = tuple((p, v) for p, v in spec.entries if not p.is_zero)
    shifted = PotentialSpec(entries, spec.support_radius)
    return shifted, lambda lam, N: lam * w0 * N * (N - 1) / 2.0


def build_mode_set(
    d: int,
    cutoff: float,
    include_zero: bool = True,
    max_modes: int = DEFAULT_MAX_MODES,
) -> tuple[Momentum, ...]:
    """All p in (2*pi*Z)^d with |p| <= cutoff, lexicographic in integer coordinates.

    The symmetric coordinate range makes the set closed under negation.
    """
    if d <= 0:
        raise ValueError(f"dimension must be positive, got {d}")
    if cutoff < 0.0 or not math.isfinite(cutoff):
        raise ValueError(f"cutoff must be finite and nonnegative, got {cutoff}")
    nmax = int(cutoff / TWO_PI)
    if (2 * nmax + 1) ** d > max_modes:
        raise ResourceLimitError(
            f"mode box (2*{nmax}+1)^{d} exceeds the budget of {max_modes}"
        )
    limit = cutoff * cutoff
    modes = []
    for coords in product(range(-nmax, nmax + 1), repeat=d):
        p = Momentum(coords)
        if p.is_zero and not include_zero:
            continue
        if p.norm2 <= limit:
            modes.append(p)
    modes.sort()
    return tuple(modes)


@dataclass(frozen=True)
class TorusModel:
    """Full problem instance on the unit torus.

    lam is the coupling; passing None selects the mean-field default 1/N.
    """

    d: int
    N: int
    potential: PotentialSpec
    mode_cutoff: float
    lam: float | None = None
    include_zero_mode: bool = True

    def __post_init__(self) -> None:
        if self.d <= 0:
            raise ValueError(f"dimension must be positive, got {self.d}")
        if self.N <= 0:
            raise ValueError(f"particle count must be positive, got {self.N}")
        if self.lam is None:
            object.__setattr__(self, "lam", 1.0 / self.N)
        if not math.isfinite(self.lam) or self.lam < 0.0:
            raise ValueError(f"coupling must be finite and nonnegative, got {self.lam}")
        if not math.isfinite(self.mode_cutoff) or self.mode_cutoff < 0.0:
            raise ValueError(f"mode_cutoff must be finite and nonnegative, got {self.mode_cutoff}")
        report = validate_potential(self.potential)
        if report:
            raise ValueError("invalid potential: " + "; ".join(report))
        pdim = self.potential.dimension
        if pdim is not None and pdim != self.d:
            raise ValueError(f"potential dimension {pdim} does not match d={self.d}")

    def mode_set(self) -> tuple[Momentum, ...]:
        return self._modes

    @cached_property
    def _modes(self) -> tuple[Momentum, ...]:
        # Built on first use and kept, since the model is frozen; a refused
        # build is not kept, so every call on a too-large set raises.
        return build_mode_set(self.d, self.mode_cutoff, self.include_zero_mode)

    @cached_property
    def transfers(
        self,
    ) -> tuple[
        tuple[tuple[tuple[int, int], ...], tuple[tuple[float, int, int, int, int], ...]], ...
    ]:
        """Every term a*_{p-l} a*_{q+l} a_p a_q, l != 0, inside the mode set,
        grouped by the occupation change it makes, one group (change, terms)
        per change in the order of its first term. change lists the
        (position, amount) pairs of the modes whose occupation the term
        changes, by position, so it is () for the exchange terms l = p - q.
        terms holds (w_hat(l), iq, ip, i1, i2), the positions of q, p, p - l
        and q + l, q outer, p inner and l in potential.nonzero_momenta()
        order. Built on first use and kept, since the model is frozen.
        """
        modes = self.mode_set()
        pos = {p: i for i, p in enumerate(modes)}
        # For every transfer l, its weight and the positions of p - l and
        # p + l for every mode p, -1 outside the mode set.
        table = [
            (
                self.w_hat(ell),
                [pos.get(tuple(a - b for a, b in zip(p, ell)), -1) for p in modes],
                [pos.get(tuple(a + b for a, b in zip(p, ell)), -1) for p in modes],
            )
            for ell in self.potential.nonzero_momenta()
        ]
        groups: dict[tuple[tuple[int, int], ...], list] = {}
        for iq, ip in product(range(len(modes)), repeat=2):
            for wl, minus, plus in table:
                i1, i2 = minus[ip], plus[iq]
                if i1 < 0 or i2 < 0:
                    continue
                change = ()  # i1 == iq: the exchange terms, l = p - q
                if i1 != iq:
                    # No mode both loses and gains a particle: that takes
                    # l = 0 or l = p - q.
                    down, up = -1 - (ip == iq), 1 + (i2 == i1)
                    change = tuple(sorted({iq: down, ip: down, i1: up, i2: up}.items()))
                groups.setdefault(change, []).append((wl, iq, ip, i1, i2))
        return tuple((change, tuple(terms)) for change, terms in groups.items())

    def nonzero_modes(self) -> tuple[Momentum, ...]:
        return tuple(p for p in self.mode_set() if not p.is_zero)

    def w_hat(self, p: Momentum) -> float:
        return self.potential.w_hat(p)

    def to_canonical_dict(self) -> dict:
        """Canonical serialization; feeds reports and the result-cache digest."""
        return {
            "d": self.d,
            "N": self.N,
            "lambda": self.lam,
            "mode_cutoff": self.mode_cutoff,
            "include_zero_mode": self.include_zero_mode,
            "potential": {
                "entries": [[*p, v] for p, v in self.potential.entries],
                "support_radius": self.potential.support_radius,
            },
        }
