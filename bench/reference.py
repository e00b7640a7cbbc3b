"""Independent reference values for the benchmark's checks.

Nothing here imports torusbog. Lattice balls, sector dimensions, the quasi-free
sums and small-sector Hamiltonians are rebuilt from the model definition:

    H = sum_p |p|^2 n_p + (lambda/2) sum_{p,q,l} w(l) a*_{p+l} a*_{q-l} a_q a_p

with p = 2*pi*n, every mode index restricted to the ball |p| <= cutoff, and
terms that would create a particle outside the ball dropped.
"""
from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction

import mpmath
import numpy as np

# Configs write cutoffs as multiples of this double (e.g. 20 * 2*pi). Reading a
# cutoff in these units makes ball membership exact: a point on the sphere
# |n| = 20 is inside, as the program treats it.
LATTICE_UNIT = 2.0 * math.pi
TWO_PI_SQ = LATTICE_UNIT * LATTICE_UNIT

Mode = tuple[int, ...]


def ball(d: int, cutoff: float, include_zero: bool = True) -> list[Mode]:
    """Integer points n with |2*pi*n| <= cutoff, in lexicographic order."""
    radius = Fraction(cutoff) / Fraction(LATTICE_UNIT)
    nmax = math.floor(radius)
    # |n|^2 is an integer, so |n|^2 <= radius^2 iff |n|^2 <= floor(radius^2).
    limit = math.floor(radius * radius)
    points = [
        n
        for n in itertools.product(range(-nmax, nmax + 1), repeat=d)
        if sum(x * x for x in n) <= limit and (include_zero or any(n))
    ]
    return sorted(points)


def _norm2(n: Mode) -> int:
    return sum(x * x for x in n)


def quasifree_sums(modes: list[Mode], table: dict[Mode, float], dps: int = 40) -> dict:
    """e_B, D and the HB lower-bound constant over the nonzero modes, at dps digits.

    The textbook forms are used as they stand, cancellations included; the
    working precision absorbs them.
    """
    with mpmath.workdps(dps):
        two_pi_sq = (2 * mpmath.pi) ** 2
        e_b = mpmath.mpf(0)
        depletion = mpmath.mpf(0)
        hb_constant = mpmath.mpf(0)
        for n in modes:
            w = table.get(n, 0.0)
            if not any(n) or w == 0.0:
                continue
            w = mpmath.mpf(w)
            p2 = two_pi_sq * _norm2(n)
            e_p = mpmath.sqrt(p2 * p2 + 2 * p2 * w)
            e_b -= (p2 + w - e_p) / 2
            # alpha is the root in [0, 1) of w alpha^2 - 2 (p2 + w) alpha + w = 0.
            alpha = (p2 + w - e_p) / w
            depletion += p2 * alpha**2 / (1 - alpha**2)
            hb_constant += (p2 + 2 * w - mpmath.sqrt(p2 * p2 + 4 * p2 * w)) / 4
        return {"e_B": float(e_b), "D": float(depletion), "hb_constant": float(hb_constant)}


def count_states(
    modes: list[Mode], budget: int, exact: bool = True, momentum: Mode | None = None
) -> int:
    """Occupation vectors over modes with total N == budget (exact) or <= budget,
    optionally with fixed total momentum, counted by a DP over the modes."""
    d = len(modes[0])
    zero = (0,) * d
    counts: dict[tuple[int, Mode], int] = {(0, zero): 1}
    for mode in modes:
        nxt: dict[tuple[int, Mode], int] = defaultdict(int)
        for (used, mom), c in counts.items():
            for occ in range(budget - used + 1):
                key = (used + occ, tuple(m + occ * x for m, x in zip(mom, mode)))
                nxt[key] += c
        counts = nxt
    return sum(
        c
        for (used, mom), c in counts.items()
        if (used == budget or not exact) and (momentum is None or mom == tuple(momentum))
    )


def sector_states(modes: list[Mode], n: int, momentum: Mode) -> list[tuple[int, ...]]:
    """All occupation vectors with n particles and the given total momentum."""
    m = len(modes)
    target = tuple(momentum)
    out = []

    def rec(prefix: list[int], remaining: int) -> None:
        if len(prefix) == m - 1:
            occ = prefix + [remaining]
            total = tuple(
                sum(c * mode[j] for c, mode in zip(occ, modes)) for j in range(len(target))
            )
            if total == target:
                out.append(tuple(occ))
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c)

    rec([], n)
    return out


def sector_ground_energy(
    modes: list[Mode], table: dict[Mode, float], lam: float, n: int, momentum: Mode
) -> tuple[float, int]:
    """Lowest eigenvalue of H on one (N, K) sector from a dense matrix, and the
    sector dimension."""
    states = sector_states(modes, n, momentum)
    index = {s: i for i, s in enumerate(states)}
    position = {mode: i for i, mode in enumerate(modes)}
    kinetic = [TWO_PI_SQ * _norm2(mode) for mode in modes]
    transfers = [(ell, w) for ell, w in table.items() if w != 0.0]
    m = len(modes)
    h = np.zeros((len(states), len(states)))
    for col, s in enumerate(states):
        h[col, col] += sum(k * c for k, c in zip(kinetic, s))
        for i in range(m):
            if s[i] == 0:
                continue
            s1 = list(s)
            amp1 = math.sqrt(s1[i])
            s1[i] -= 1
            for j in range(m):
                if s1[j] == 0:
                    continue
                s2 = list(s1)
                amp2 = amp1 * math.sqrt(s2[j])
                s2[j] -= 1
                for ell, w in transfers:
                    up = position.get(tuple(a + b for a, b in zip(modes[i], ell)))
                    down = position.get(tuple(a - b for a, b in zip(modes[j], ell)))
                    if up is None or down is None:
                        continue
                    s3 = list(s2)
                    s3[down] += 1
                    amp3 = amp2 * math.sqrt(s3[down])
                    s3[up] += 1
                    amp4 = amp3 * math.sqrt(s3[up])
                    h[index[tuple(s3)], col] += 0.5 * lam * w * amp4
    asymmetry = float(np.max(np.abs(h - h.T))) if len(states) else 0.0
    if asymmetry > 1e-12 * max(1.0, float(np.max(np.abs(h)))):
        raise RuntimeError(f"reference Hamiltonian is not symmetric ({asymmetry:.3e})")
    return float(np.linalg.eigvalsh(h)[0]), len(states)
