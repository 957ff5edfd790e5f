"""Multiscale entropy chain: output entropy vs summed projected block entropies.

For a smooth map F with 1-d range, the entropy of the pushforward at depth M
dominates (up to a per-interval constant) the mu-average over base points x of
the block entropies of the linearized projection of the magnified measure at
each scale interval [A_j, B_j].  This module evaluates both sides numerically
for the pinned-distance map and the planar radial map, and fits the implicit
per-interval constant over instance panels.

The rhs bins all base points of a level-A ancestor at once, O(2^(B - A)) cells
each; above _SAMPLE_LIMIT leaves its outer integral is a mass-quantile subsample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicMeasure, _centers, _entropies, _find_rows, _group_rows
from .geometry import _pin_offsets, _quantile_leaves, value_entropy
from .sigma import IntervalDecomposition

_TOL = 1e-9

_SAMPLE_LIMIT = 4096  # exact leaf integration up to this support size

# The robust rhs caps each block cell at this multiple of Theta.
_ROBUST_CAP = 4.0

# _rhs_sum takes base points in blocks whose (base points, leaves) projections
# and (base points, cells) histograms each hold at most about this many entries.
_BLOCK_CELLS = 1 << 19


@dataclass(frozen=True)
class ScaleSchedule:
    """Disjoint increasing scale intervals (A_j, B_j) inside [0, M] with the
    doubling constraint B_j <= 2 A_j."""

    M: int
    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "intervals", tuple((int(a), int(b)) for a, b in self.intervals)
        )
        prev_b = 0
        for a, b in self.intervals:
            if not (0 <= a < b <= self.M):
                raise ValueError(f"interval ({a}, {b}) outside [0, {self.M}]")
            if b > 2 * a:
                raise ValueError(f"interval ({a}, {b}) violates B <= 2A")
            if a < prev_b:
                raise ValueError("intervals must be disjoint and increasing")
            prev_b = b

    @property
    def J(self) -> int:
        return len(self.intervals)


def schedule_from_decomposition(
    dec: IntervalDecomposition, m: int
) -> tuple[ScaleSchedule, int]:
    """Scale endpoints A_j = round(m a_j), B_j = round(m b_j).

    Allowability (b - a <= a) gives B <= 2A before rounding; returns the
    schedule and the max rounding drift in levels.
    """
    intervals = []
    drift = 0
    for a, b, _sigma in dec.entries:
        A = round(m * a)
        B = round(m * b)
        drift = max(drift, abs(A - m * a), abs(B - m * b))
        if B <= A:
            raise ValueError(f"interval [{a}, {b}] collapsed at depth {m}")
        intervals.append((A, B))
    if drift > 1 + _TOL:
        raise ValueError(f"rounding drift {drift} exceeds one level")
    return ScaleSchedule(m, tuple(intervals)), int(math.ceil(drift - _TOL))


def linearization_direction(map_kind: str, x, y) -> np.ndarray:
    """Unit direction of the derivative of the scalar map at the point x, or
    one row per row of an (n, d) array x.

    pinned_distance: (y - x)/|y - x|.  radial_2d: its rotation by pi/2
    (the direction along which the angle map varies), d = 2 only.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = y - x
    norm = np.linalg.norm(diff, axis=-1, keepdims=True)
    if not (norm > 0).all():
        raise ValueError("base point coincides with the pin")
    u = diff / norm
    if map_kind == "pinned_distance":
        return u
    if map_kind == "radial_2d":
        if u.shape[-1] != 2:
            raise ValueError("radial_2d requires ambient dimension 2")
        return np.stack([-u[..., 1], u[..., 0]], axis=-1)
    raise ValueError(f"unknown map kind {map_kind!r}")


def _map_values(map_kind: str, diff: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Scalar pushforward values of the map at the points with offsets diff
    from the pin and squared offset norms sq."""
    if map_kind == "pinned_distance":
        return np.sqrt(sq)
    if map_kind == "radial_2d":
        # angle map parameterized to [0, 1) so dyadic bins apply
        return np.mod(np.arctan2(diff[:, 1], diff[:, 0]), 2.0 * math.pi) / (2.0 * math.pi)
    raise ValueError(f"unknown map kind {map_kind!r}")


def _integration_leaves(mu: DyadicMeasure):
    """Leaf coordinates and normalized weights for the outer integral; exact
    when the support is small, mass-weighted quantile subsample
    (deterministic) above the limit."""
    w = mu.masses
    if len(w) <= _SAMPLE_LIMIT:
        return mu.coords, w / w.sum()
    idx = _quantile_leaves(w, _SAMPLE_LIMIT)
    sub_w = w[idx]
    return mu.coords[idx], sub_w / sub_w.sum()


def _rhs_sum(mu: DyadicMeasure, map_kind: str, y: np.ndarray, schedule: ScaleSchedule,
             base: np.ndarray, base_w: np.ndarray, cap: float | None) -> float:
    """Integral over the base points (leaf rows `base`, weights `base_w`) of
    their block entropy sums, capped at `cap` if given.  Per interval and
    level-A ancestor, one matmul projects the ancestor's local leaf centers on
    its base points' directions, and one bincount bins all their rows."""
    dirs = linearization_direction(map_kind, _centers(base, mu.m), y)
    n = len(mu.coords)
    rhs = 0.0
    for A, B in schedule.intervals:
        shift = mu.m - A
        ancestors, group = _group_rows(np.concatenate([mu.coords, base]) >> shift)
        order = np.argsort(group, kind="stable")  # per group: its leaves, then its base points
        at = np.concatenate(([0], np.cumsum(np.bincount(group))))
        # leaf centers relative to their level-A ancestor, in level-B cell widths
        centers = _centers(mu.coords & ((1 << shift) - 1), mu.m - B)
        # a row's values span at most the cube's diameter sqrt(d)
        width = int(math.sqrt(mu.d) * 2 ** (B - A)) + 2
        for g in np.flatnonzero(np.bincount(group[n:], minlength=len(ancestors))):
            rows = order[at[g] : at[g + 1]]
            k = int(np.searchsorted(rows, n))
            c, w, members = centers[rows[:k]], mu.masses[rows[:k]], rows[k:] - n
            w = w / w.sum()
            step = max(1, _BLOCK_CELLS // max(len(w), width))
            for i0 in range(0, len(members), step):
                idx = members[i0 : i0 + step]
                bins = np.floor(dirs[idx] @ c.T).astype(np.int64)
                bins -= bins.min(axis=1, keepdims=True)
                span = int(bins.max()) + 1
                bins += np.arange(len(idx))[:, None] * span
                cells = np.bincount(bins.ravel(), np.tile(w, len(idx)), len(idx) * span)
                h = _entropies(cells.reshape(len(idx), span), cap)
                rhs += float(base_w[idx] @ h)
    return rhs


def _sides(mu: DyadicMeasure, mu_prime: DyadicMeasure, map_kind: str, y,
           schedule: ScaleSchedule, cap: float | None) -> tuple[float, float, int]:
    """lhs from mu'; rhs integrated against mu' over the blocks of mu."""
    if schedule.M > mu.m:
        raise ValueError("schedule depth exceeds measure depth")
    y = np.asarray(y, dtype=float)
    sep = 2.0 * 2.0 ** (-mu.m)
    diff, sq = _pin_offsets(mu, y, sep)
    if mu_prime is not mu:
        diff, sq = _pin_offsets(mu_prime, y, sep)
    lhs = value_entropy(_map_values(map_kind, diff, sq), mu_prime.masses, schedule.M)
    base, w = _integration_leaves(mu_prime)
    return lhs, _rhs_sum(mu, map_kind, y, schedule, base, w, cap), schedule.J


def chain_sides(
    mu: DyadicMeasure, map_kind: str, y, schedule: ScaleSchedule
) -> tuple[float, float, int]:
    """Both sides of the chain inequality, in bits.

    lhs: entropy of the scalar pushforward at level M.  rhs: mu-weighted sum
    over base points of block entropies of the linearized projections of the
    magnified measures.
    """
    if mu.trivial:
        return 0.0, 0.0, schedule.J
    if not mu.normalized:
        raise ValueError("chain_sides requires a normalized measure")
    return _sides(mu, mu, map_kind, y, schedule, None)


def chain_sides_robust(
    mu: DyadicMeasure,
    mu_prime: DyadicMeasure,
    map_kind: str,
    y,
    schedule: ScaleSchedule,
    Theta: float,
) -> tuple[float, float, int]:
    """Robust chain sides: mu' <= Theta * mu verified leafwise; the rhs uses
    the capped (robust) block entropy at 4 * Theta and integrates against
    mu'."""
    if not (1.0 <= Theta < math.inf):
        raise ValueError(f"Theta must be in [1, inf), got {Theta}")
    if mu.m != mu_prime.m or mu.d != mu_prime.d:
        raise ValueError("mu and mu' must share shape")
    at = _find_rows(mu.coords, mu_prime.coords)
    w = np.zeros(len(at))
    w[at >= 0] = mu.masses[at[at >= 0]]
    ratio = np.divide(mu_prime.masses, w, out=np.full(len(w), math.inf), where=w > 0)
    worst = float(ratio.max(initial=0.0))
    if worst > Theta * (1.0 + 1e-9):
        raise ValueError(f"domination violated: worst leaf ratio {worst} > {Theta}")
    if mu.trivial or mu_prime.trivial:
        return 0.0, 0.0, schedule.J
    if not mu.normalized or not mu_prime.normalized:
        raise ValueError("both measures must be normalized")
    return _sides(mu, mu_prime, map_kind, y, schedule, _ROBUST_CAP * Theta)


def fit_chain_constant(panel) -> float:
    """Smallest C with lhs >= rhs - C*J across the panel (clamped at 0).

    Panel entries are (lhs, rhs, J) triples.
    """
    if not panel:
        raise ValueError("empty panel")
    C = 0.0
    for lhs, rhs, J in panel:
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise ValueError(f"panel entry ({lhs}, {rhs}, {J}) is not finite")
        if J > 0:
            C = max(C, (rhs - lhs) / J)
    return C

