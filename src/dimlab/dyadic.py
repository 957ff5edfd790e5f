"""Sparse dyadic-tree measures on [0,1)^d.

A measure is stored as a map from integer leaf coordinates at the finest
level m to positive masses.  Masses of coarser cubes are obtained by
summation in a fixed (sorted-key) order, so cube/children consistency is
bit-exact and runs are reproducible.  All instances are immutable; every
operation returns a new object.

Entropies are in bits throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "CubeRef",
    "FrostmanFit",
    "DyadicMeasure",
    "build_from_atoms",
    "restrict_normalize",
    "magnify",
]

# Entropy terms below this mass contribute < 1e-290 bits and are dropped.
_MASS_FLOOR = 1e-300

_NORM_TOL = 1e-9

# Rows of the pairwise distance matrix per block in riesz_energy; bounds the
# temporaries to _RIESZ_CHUNK * n * d doubles.
_RIESZ_CHUNK = 2048


def _shannon(p: np.ndarray) -> float:
    """Shannon entropy (bits) of the probability vector p, clamped at 0."""
    p = p[p > _MASS_FLOOR]
    return max(0.0, float(-(p * np.log2(p)).sum()))


def _capped_fill_entropy(masses, Theta: float) -> float:
    """Entropy of the greedy extreme point: fill cells by mass descending,
    each up to its cap Theta * mass, until total mass 1."""
    remaining = 1.0
    h = 0.0
    for p in sorted(masses, reverse=True):
        take = min(Theta * p, remaining)
        if take > _MASS_FLOOR:
            h -= take * math.log2(take)
        remaining -= take
        if remaining <= 0.0:
            break
    return max(0.0, h)


def _sum_by_key(keys: np.ndarray, weights) -> dict[tuple[int, ...], float]:
    """Sum the weights of equal rows of the (n, k) integer array `keys`.

    bincount adds each key's weights in input order, as a per-key dict loop
    would, so the sums are bit-identical to that loop; the keys come back as
    int tuples in sorted order.  Memory is O(n) whatever the key range.
    """
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    sums = np.bincount(inv.reshape(-1), weights=weights, minlength=len(uniq))
    return dict(zip(map(tuple, uniq.tolist()), sums.tolist()))


@dataclass(frozen=True)
class CubeRef:
    """A dyadic cube: level j and integer coordinates in [0, 2^j)^d."""

    level: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"negative level {self.level}")
        top = 1 << self.level
        for c in self.coords:
            if not (0 <= c < top):
                raise ValueError(
                    f"coordinate {c} out of range for level {self.level}"
                )


@dataclass(frozen=True)
class FrostmanFit:
    """Power-law envelope mu(Q) <= C * side(Q)^s over a dyadic scale range.

    `residual` is the worst log2-violation (in bits) of the envelope at the
    reported (s, C); it is zero when C is the exact envelope constant.
    """

    s: float
    C: float
    scale_range: tuple[float, float]  # (delta_lo, delta_hi)
    residual: float

    def __post_init__(self):
        lo, hi = self.scale_range
        if lo > hi:
            raise ValueError("scale_range must be (delta_lo, delta_hi) with lo <= hi")
        if self.C < 1.0:
            raise ValueError("envelope constant must be >= 1")
        if self.residual < 0:
            raise ValueError("residual must be >= 0")


class DyadicMeasure:
    """Finitely supported mass assignment on the level-m dyadic grid of [0,1)^d.

    The zero measure is representable; it carries ``trivial=True`` and all
    operations on it return defined sentinel values.
    """

    def __init__(self, d: int, m: int, leaf_masses: Mapping[tuple[int, ...], float]):
        if not (1 <= d <= 3):
            raise ValueError(f"ambient dimension must be 1..3, got {d}")
        if not (0 <= m <= 40):
            raise ValueError(f"depth must be in 0..40, got {m}")
        self.d = d
        self.m = m
        top = 1 << m
        leaves = {}
        for coords, mass in leaf_masses.items():
            if not (0.0 <= mass < math.inf):
                raise ValueError(f"mass {mass} at {coords} is negative or not finite")
            if mass == 0.0:
                continue
            coords = tuple(int(c) for c in coords)
            if len(coords) != d:
                raise ValueError(f"leaf {coords} has wrong dimension")
            for c in coords:
                if not (0 <= c < top):
                    raise ValueError(f"leaf coordinate {c} out of range at depth {m}")
            leaves[coords] = float(mass)
        self.leaves = leaves
        self.trivial = not leaves
        self._level_cache: dict[int, dict[tuple[int, ...], float]] = {}
        self._sorted_keys = sorted(leaves)
        self._centers_cache: np.ndarray | None = None

    # -- basic structure ---------------------------------------------------

    @property
    def total_mass(self) -> float:
        # fixed left-to-right summation over sorted leaves
        return math.fsum(self.leaves[k] for k in self._sorted_keys)

    @property
    def normalized(self) -> bool:
        return abs(self.total_mass - 1.0) <= _NORM_TOL

    def level_masses(self, level: int) -> dict[tuple[int, ...], float]:
        """Masses of all positive cubes at the given level (cached)."""
        if not (0 <= level <= self.m):
            raise ValueError(f"level {level} outside [0, {self.m}]")
        if level not in self._level_cache:
            shift = self.m - level
            acc: dict[tuple[int, ...], float] = {}
            for key in self._sorted_keys:
                coarse = tuple(c >> shift for c in key)
                acc[coarse] = acc.get(coarse, 0.0) + self.leaves[key]
            self._level_cache[level] = acc
        return self._level_cache[level]

    def mass_of(self, cube: CubeRef) -> float:
        if cube.level > self.m:
            raise ValueError("cube finer than measure depth")
        return self.level_masses(cube.level).get(cube.coords, 0.0)

    def leaf_centers(self) -> np.ndarray:
        """(n, d) array of leaf-cube centers, rows sorted by leaf key."""
        if self._centers_cache is None:
            side = 2.0 ** (-self.m)
            arr = np.array(self._sorted_keys, dtype=float).reshape(-1, self.d)
            self._centers_cache = (arr + 0.5) * side
        return self._centers_cache

    def leaf_mass_vector(self) -> np.ndarray:
        return np.array([self.leaves[k] for k in self._sorted_keys])

    def support_cubes(self, level: int) -> set[CubeRef]:
        return {CubeRef(level, c) for c in self.level_masses(level)}

    def normalize(self) -> "DyadicMeasure":
        if self.trivial:
            return self
        tot = self.total_mass
        return DyadicMeasure(self.d, self.m, {k: v / tot for k, v in self.leaves.items()})

    # -- entropy and counting ----------------------------------------------

    def entropy(self, level: int) -> float:
        """Shannon entropy (bits) of the measure over level-`level` cubes."""
        if self.trivial:
            return 0.0
        if not self.normalized:
            raise ValueError("entropy requires a normalized measure")
        cells = self.level_masses(level)
        return _shannon(np.fromiter(cells.values(), float, len(cells)))

    def robust_entropy(self, level: int, Theta: float) -> float:
        """Minimal level-entropy over probability vectors dominated by Theta*mu.

        The minimizer is the greedy extreme point: sort cells by mass
        descending and fill each to its cap Theta*mu(cell) until total mass 1.
        (Greedy majorizes every feasible vector; entropy is Schur-concave.)
        """
        if Theta < 1.0:
            raise ValueError(f"Theta must be >= 1, got {Theta}")
        if self.trivial:
            return 0.0
        if not self.normalized:
            raise ValueError("robust_entropy requires a normalized measure")
        return _capped_fill_entropy(self.level_masses(level).values(), Theta)

    def box_count(self, level: int) -> int:
        """Number of level-`level` dyadic cubes carrying positive mass."""
        if self.trivial:
            return 0
        return len(self.level_masses(level))

    # -- regularity diagnostics --------------------------------------------

    def frostman_fit(self, scale_range: tuple[int, int], max_log2_C: float = 10.0) -> FrostmanFit:
        """Fit the largest exponent s with max_Q mu(Q) * 2^{j s} bounded.

        Two-pass log-log envelope fit over the dyadic levels in
        ``scale_range = (j_lo, j_hi)``: a least-squares slope through the
        per-level worst-case masses, capped so that the envelope constant C
        stays below 2^max_log2_C.  Ball-vs-cube constants are absorbed into C.
        """
        j_lo, j_hi = scale_range
        if self.trivial:
            raise ValueError("frostman_fit undefined for the trivial measure")
        if j_hi - j_lo + 1 < 3:
            raise ValueError("need at least 3 dyadic scales")
        if not (0 <= j_lo <= j_hi <= self.m):
            raise ValueError("scale_range outside measure depth")
        levels = list(range(j_lo, j_hi + 1))
        worst = [max(self.level_masses(j).values()) for j in levels]
        logm = np.array([math.log2(w) for w in worst])
        js = np.array(levels, dtype=float)

        # pass 1: least-squares slope of -log2(max mass) against level
        s_ls = float(np.polyfit(js, -logm, 1)[0])
        s_ls = min(max(s_ls, 0.0), float(self.d) + 1.0)

        def log2_C(s: float) -> float:
            return max(0.0, float(np.max(logm + js * s)))

        # pass 2: shrink s until the envelope constant is within budget
        s = s_ls
        if log2_C(s) > max_log2_C:
            lo, hi = 0.0, s
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if log2_C(mid) <= max_log2_C:
                    lo = mid
                else:
                    hi = mid
            s = lo
        C = 2.0 ** log2_C(s)
        residual = max(0.0, float(np.max(logm + js * s - math.log2(max(C, 1.0)))))
        return FrostmanFit(
            s=s, C=max(C, 1.0), scale_range=(2.0 ** (-j_hi), 2.0 ** (-j_lo)), residual=residual
        )

    def robustness_check(
        self, level: int, s: float, r: float
    ) -> tuple[bool, list[CubeRef] | None]:
        """Check that any set of mass > r needs more than 2^{level*s} cubes.

        The minimal cell count achieving mass > r is the greedy descending
        prefix (swapping any chosen cell for a heavier one never increases
        the count).  Returns (ok, witness); the witness is the offending
        greedy cell set when the check fails.
        """
        if not (0.0 < r < 1.0):
            raise ValueError(f"r must be in (0,1), got {r}")
        if self.trivial:
            return True, None
        if not self.normalized:
            raise ValueError("robustness_check requires a normalized measure")
        cells = sorted(
            self.level_masses(level).items(), key=lambda kv: (-kv[1], kv[0])
        )
        acc = 0.0
        prefix: list[CubeRef] = []
        for coords, p in cells:
            acc += p
            prefix.append(CubeRef(level, coords))
            if acc > r:
                break
        else:
            # total mass never exceeds r: no violating set exists
            return True, None
        needed = len(prefix)
        threshold = 2.0 ** (level * s)
        if needed > threshold:
            return True, None
        return False, prefix

    # -- energies ------------------------------------------------------------

    def riesz_energy(self, s: float) -> float:
        """Truncated discrete Riesz s-energy over leaf-cube centers.

        Off-diagonal pairs use the center distance; same-leaf pairs use the
        truncation separation 2^{-m}.
        """
        if s <= 0:
            raise ValueError("s must be positive")
        if self.trivial:
            return 0.0
        pts = self.leaf_centers()
        w = self.leaf_mass_vector()
        n = len(w)
        diag_sep = 2.0 ** (-self.m)
        total = float(np.sum(w * w)) * diag_sep ** (-s)
        for i0 in range(0, n, _RIESZ_CHUNK):
            p = pts[i0 : i0 + _RIESZ_CHUNK]
            dist = np.sqrt(
                np.maximum(
                    np.sum((p[:, None, :] - pts[None, :, :]) ** 2, axis=2), 0.0
                )
            )
            kern = np.zeros_like(dist)
            np.divide(1.0, dist ** s, out=kern, where=dist > 0)
            total += float(w[i0 : i0 + _RIESZ_CHUNK] @ kern @ w)
        return total

    def l2_density_norm(self, level: int) -> float:
        """Squared L2 norm of the level-resolution density."""
        if self.trivial:
            return 0.0
        cells = self.level_masses(level)
        return math.fsum(p * p for p in cells.values()) * 2.0 ** (level * self.d)

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.d} {self.m}"]
        for key in self._sorted_keys:
            coords = " ".join(str(c) for c in key)
            lines.append(f"{coords} {self.leaves[key]!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DyadicMeasure":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty measure file")
        head = lines[0].split()
        if len(head) != 2:
            raise ValueError(f"bad header {lines[0]!r}; expected 'd m'")
        d, m = int(head[0]), int(head[1])
        leaves: dict[tuple[int, ...], float] = {}
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != d + 1:
                raise ValueError(f"bad leaf line {ln!r}")
            coords = tuple(int(p) for p in parts[:d])
            if coords in leaves:
                raise ValueError(f"duplicate leaf coordinates {coords}")
            leaves[coords] = float(parts[d])
        return cls(d, m, leaves)

    def __repr__(self):
        tag = "trivial " if self.trivial else ""
        return f"DyadicMeasure({tag}d={self.d}, m={self.m}, leaves={len(self.leaves)})"


# -- constructors ---------------------------------------------------------


def build_from_atoms(
    points: Iterable[tuple[Sequence[float], float]], depth: int
) -> DyadicMeasure:
    """Bin weighted atoms in [0,1)^d onto the level-`depth` dyadic grid.

    Zero-weight atoms are dropped.  A zero total yields the flagged trivial
    measure.
    """
    if not (0 <= depth <= 40):
        raise ValueError(f"depth must be in 0..40, got {depth}")
    pts = list(points)
    if not pts:
        raise ValueError("no atoms given")
    d = len(pts[0][0])
    top = 1 << depth
    keys, weights = [], []
    for coords, w in pts:
        if w < 0:
            raise ValueError(f"negative weight {w}")
        if len(coords) != d:
            raise ValueError("inconsistent atom dimensions")
        for x in coords:
            if not (0.0 <= x < 1.0):
                raise ValueError(f"coordinate {x} outside [0,1)")
        if w == 0:
            continue
        keys.append([min(int(x * top), top - 1) for x in coords])
        weights.append(float(w))
    keys = np.array(keys, dtype=np.int64).reshape(-1, d)
    return DyadicMeasure(d, depth, _sum_by_key(keys, weights))


def restrict_normalize(mu: DyadicMeasure, keep: Iterable[CubeRef]) -> DyadicMeasure:
    """Restrict mu to the kept cubes (all at one level) and renormalize."""
    keep = list(keep)
    if not keep:
        raise ValueError("empty kept set")
    level = keep[0].level
    if any(c.level != level for c in keep):
        raise ValueError("kept cubes must share a level")
    shift = mu.m - level
    kept_coords = {c.coords for c in keep}
    leaves = {
        k: v for k, v in mu.leaves.items() if tuple(c >> shift for c in k) in kept_coords
    }
    sub = DyadicMeasure(mu.d, mu.m, leaves)
    if sub.trivial:
        raise ValueError("kept set carries zero mass")
    return sub.normalize()


def magnify(mu: DyadicMeasure, Q: CubeRef) -> DyadicMeasure:
    """Renormalized restriction of mu to Q, rescaled to the unit cube.

    The result has depth m - Q.level.
    """
    if Q.level > mu.m:
        raise ValueError("cube finer than measure depth")
    mass = mu.mass_of(Q)
    if mass <= 0.0:
        raise ValueError("cube carries zero mass")
    shift = mu.m - Q.level
    leaves: dict[tuple[int, ...], float] = {}
    for k, v in mu.leaves.items():
        if tuple(c >> shift for c in k) == Q.coords:
            rel = tuple(c - (q << shift) for c, q in zip(k, Q.coords))
            leaves[rel] = leaves.get(rel, 0.0) + v / mass
    return DyadicMeasure(mu.d, shift, leaves)
