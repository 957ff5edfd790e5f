"""Sparse dyadic-tree measures on [0,1)^d.

A measure is stored as two arrays: ``coords``, the int64 coordinates of the
leaves at the finest level m that carry positive mass, rows in
lexicographic order, and ``masses``, their float64 masses.  Masses of
coarser cubes are summed by np.bincount in that leaf order, so
cube/children consistency is bit-exact and runs are reproducible.  All
instances are immutable (their arrays reject writes); every operation
returns a new object.  Other modules read and build measures only through
these arrays and the helpers here, never a per-leaf Python loop.

Entropies are in bits throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "FrostmanFit",
    "DyadicMeasure",
    "build_from_atoms",
    "restrict_normalize",
]

# Entropy terms below this mass contribute < 1e-290 bits and are dropped.
_MASS_FLOOR = 1e-300

_NORM_TOL = 1e-9


def _entropies(p: np.ndarray, cap: float | None = None) -> np.ndarray:
    """Shannon entropy (bits, clamped at 0) of each row of the (k, n) array p
    of normalized cell masses; zero entries are empty cells.  The rows are not
    renormalized.

    With `cap`, the entropy of each row's greedy extreme point instead: fill
    cells by mass descending, each up to cap * mass, until total mass 1.
    """
    if cap is not None:
        p = cap * np.sort(p, axis=1)[:, ::-1]
        p = np.clip(1.0 - (np.cumsum(p, axis=1) - p), 0.0, p)
    h = (p * np.log2(np.where(p > _MASS_FLOOR, p, 1.0))).sum(axis=1)
    return np.where(h < 0.0, -h, 0.0)


def _group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of the (n, k) integer array `keys` in lexicographic
    order, and the index of each input row among them.

    The columns are combined mixed-radix into one int64 code that orders
    like the rows, each with radix its value span.  Where that would
    overflow, the code so far and the column are first replaced by their
    1-d np.unique ranks, which bounds the radix by n^2.
    """
    code = np.zeros(len(keys), dtype=np.int64)
    radix = 1
    for col in keys.T:
        col = col - col.min(initial=0)
        span = int(col.max(initial=0)) + 1
        if radix * span >= 1 << 62:
            vals, col = np.unique(col, return_inverse=True)
            distinct, code = np.unique(code, return_inverse=True)
            span, radix = len(vals), len(distinct)
        code = code * span + col
        radix *= span
    _, first, inv = np.unique(code, return_index=True, return_inverse=True)
    return keys[first], inv


def _sum_by_key(keys: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of the (n, k) integer array `keys` in lexicographic
    order, and the summed weights of each.

    bincount adds each row's weights in input order, as a per-key dict loop
    would, so the sums are bit-identical to that loop.
    """
    rows, inv = _group_rows(keys)
    return rows, np.bincount(inv, weights=weights, minlength=len(rows))


def _find_rows(table: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Index of a row of `table` equal to each row of `query`, or -1."""
    _, inv = _group_rows(np.concatenate([table, query]))
    pos = np.full(len(table) + len(query), -1)
    pos[inv[: len(table)]] = np.arange(len(table))
    return pos[inv[len(table):]]


def _check_shape(d: int, m: int) -> None:
    if not (1 <= d <= 3):
        raise ValueError(f"ambient dimension must be 1..3, got {d}")
    if not (0 <= m <= 40):
        raise ValueError(f"depth must be in 0..40, got {m}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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

    ``coords`` is the read-only (n, d) int64 array of the leaves carrying
    positive mass, rows in lexicographic order, and ``masses`` the read-only
    (n,) float64 array of their masses.  The zero measure is representable;
    it carries ``trivial=True`` and all operations on it return defined
    sentinel values.
    """

    def __init__(self, d: int, m: int, leaf_masses: Mapping[tuple[int, ...], float]):
        _check_shape(d, m)
        top = 1 << m
        leaves = {}
        for coords, mass in leaf_masses.items():
            if not (0.0 <= mass < math.inf):
                raise ValueError(f"mass {mass} at {coords} is negative or not finite")
            if mass == 0.0:
                continue
            if len(coords) != d:
                raise ValueError(f"leaf {coords} has wrong dimension")
            for c in coords:
                if not (0 <= c < top):
                    raise ValueError(f"leaf coordinate {c} out of range at depth {m}")
                if int(c) != c:
                    raise ValueError(f"leaf coordinate {c} is not an integer")
            leaves[tuple(map(int, coords))] = float(mass)
        coords = np.array(list(leaves), dtype=np.int64).reshape(-1, d)
        order = np.lexsort(coords.T[::-1])
        self._set(d, m, coords[order], np.array(list(leaves.values()))[order])

    @classmethod
    def _from_arrays(cls, d: int, m: int, coords: np.ndarray,
                     masses: np.ndarray) -> "DyadicMeasure":
        """Measure on leaves already known to be valid: distinct in-range rows
        of the int64 array `coords` in lexicographic order, with finite
        non-negative `masses`."""
        _check_shape(d, m)
        mu = cls.__new__(cls)
        mu._set(d, m, coords, masses)
        return mu

    def _set(self, d: int, m: int, coords: np.ndarray, masses: np.ndarray) -> None:
        keep = masses > 0.0
        self.d = d
        self.m = m
        self.coords = _frozen(coords[keep].reshape(-1, d))
        self.masses = _frozen(np.asarray(masses, dtype=float)[keep])
        self.trivial = not len(self.masses)
        self._cells: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._centers: np.ndarray | None = None

    # -- basic structure ---------------------------------------------------

    @property
    def total_mass(self) -> float:
        return math.fsum(self.masses.tolist())

    @property
    def normalized(self) -> bool:
        return abs(self.total_mass - 1.0) <= _NORM_TOL

    def cells(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (coords, masses) arrays of the positive cubes at `level`,
        rows in lexicographic order (cached).  Each cube's mass is summed
        over its leaves in leaf order; at level m they are the leaf arrays."""
        if not (0 <= level <= self.m):
            raise ValueError(f"level {level} outside [0, {self.m}]")
        if level == self.m:
            return self.coords, self.masses
        if level not in self._cells:
            self._cache_levels(level, level)
        return self._cells[level]

    def _cache_levels(self, lo: int, hi: int) -> None:
        """Cache cells() at levels hi down to lo, finest first: each level
        groups the next finer level's rows >> 1, and the leaf -> cube index
        is composed through that parent map in place (take reads an entry
        before overwriting it).  The sums stay one bincount over the leaves
        in leaf order, bit-identical to grouping the leaves at each level."""
        if hi == self.m:
            rows, idx = self.coords, None  # None: the identity
        else:
            rows, idx = _group_rows(self.coords >> (self.m - hi))
        for j in range(hi, lo - 1, -1):
            if j < hi:
                rows, parent = _group_rows(rows >> 1)
                idx = parent if idx is None else np.take(parent, idx, out=idx, mode="clip")
            if j < self.m and j not in self._cells:
                sums = np.bincount(idx, weights=self.masses, minlength=len(rows))
                self._cells[j] = (_frozen(rows), _frozen(sums))

    def level_masses(self, level: int) -> dict[tuple[int, ...], float]:
        """Masses of all positive cubes at the given level, keyed by coordinate tuple."""
        rows, sums = self.cells(level)
        return dict(zip(map(tuple, rows.tolist()), sums.tolist()))

    def leaf_centers(self) -> np.ndarray:
        """Read-only (n, d) array of leaf-cube centers, rows in leaf order."""
        if self._centers is None:
            self._centers = _frozen((self.coords + 0.5) * 2.0 ** (-self.m))
        return self._centers

    def normalize(self) -> "DyadicMeasure":
        return self._from_arrays(self.d, self.m, self.coords, self.masses / self.total_mass)

    # -- entropy and counting ----------------------------------------------

    def entropy(self, level: int) -> float:
        """Shannon entropy (bits) of the measure over level-`level` cubes."""
        if self.trivial:
            return 0.0
        if not self.normalized:
            raise ValueError("entropy requires a normalized measure")
        return float(_entropies(self.cells(level)[1][None])[0])

    def robust_entropy(self, level: int, Theta: float) -> float:
        """Minimal level-entropy over probability vectors dominated by Theta*mu.

        The minimizer is the greedy extreme point: sort cells by mass
        descending and fill each to its cap Theta*mu(cell) until total mass 1.
        (Greedy majorizes every feasible vector; entropy is Schur-concave.)
        """
        if not (1.0 <= Theta < math.inf):
            raise ValueError(f"Theta must be in [1, inf), got {Theta}")
        if self.trivial:
            return 0.0
        if not self.normalized:
            raise ValueError("robust_entropy requires a normalized measure")
        return float(_entropies(self.cells(level)[1][None], Theta)[0])

    def box_count(self, level: int) -> int:
        """Number of level-`level` dyadic cubes carrying positive mass."""
        return len(self.cells(level)[1])

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
        self._cache_levels(j_lo, j_hi)
        worst = [float(self.cells(j)[1].max()) for j in levels]
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
    ) -> tuple[bool, np.ndarray | None]:
        """Check that any set of mass > r needs more than 2^{level*s} cubes.

        The minimal cell count achieving mass > r is the greedy descending
        prefix (swapping any chosen cell for a heavier one never increases
        the count); ties in mass go to the lexicographically smaller cube.
        Returns (ok, witness); when the check fails, the witness is the (k, d)
        int64 array of the offending greedy cells' coordinates, heaviest first.
        """
        if not (0.0 < r < 1.0):
            raise ValueError(f"r must be in (0,1), got {r}")
        if self.trivial:
            return True, None
        if not self.normalized:
            raise ValueError("robustness_check requires a normalized measure")
        rows, sums = self.cells(level)
        order = np.argsort(-sums, kind="stable")
        over = np.flatnonzero(np.cumsum(sums[order]) > r)
        if not len(over):
            # total mass never exceeds r: no violating set exists
            return True, None
        needed = int(over[0]) + 1
        threshold = 2.0 ** (level * s)
        if needed > threshold:
            return True, None
        return False, rows[order[:needed]]

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.d} {self.m}"]
        for key, mass in zip(self.coords.tolist(), self.masses.tolist()):
            lines.append(f"{' '.join(map(str, key))} {mass!r}")
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
        return f"DyadicMeasure({tag}d={self.d}, m={self.m}, leaves={len(self.masses)})"


# -- constructors ---------------------------------------------------------


def build_from_atoms(
    points: Iterable[tuple[Sequence[float], float]], depth: int
) -> DyadicMeasure:
    """Bin weighted atoms in [0,1)^d onto the level-`depth` dyadic grid.

    Zero-weight atoms are dropped.  A zero total yields the flagged trivial
    measure.
    """
    pts = list(points)
    if not pts:
        raise ValueError("no atoms given")
    d = len(pts[0][0])
    _check_shape(d, depth)
    if any(len(coords) != d for coords, _ in pts):
        raise ValueError("inconsistent atom dimensions")
    xs = np.array([coords for coords, _ in pts], dtype=float).reshape(-1, d)
    w = np.array([w for _, w in pts], dtype=float)
    bad = w[~((w >= 0.0) & (w < math.inf))]
    if len(bad):
        raise ValueError(f"weight {bad[0]} is negative or not finite")
    bad = xs[~((xs >= 0.0) & (xs < 1.0))]
    if len(bad):
        raise ValueError(f"coordinate {bad[0]} outside [0,1)")
    top = 1 << depth
    keys = np.minimum((xs * top).astype(np.int64), top - 1)
    return DyadicMeasure._from_arrays(d, depth, *_sum_by_key(keys, w))


def restrict_normalize(mu: DyadicMeasure, keep: np.ndarray) -> DyadicMeasure:
    """Restrict mu to the leaves selected by the boolean mask `keep` (one
    entry per row of mu.coords) and renormalize."""
    keep = np.asarray(keep)
    if keep.dtype != bool or keep.shape != mu.masses.shape:
        # an integer array would select rows by index instead
        raise ValueError(
            f"keep must be a bool mask of shape {mu.masses.shape}, "
            f"got {keep.dtype} of shape {keep.shape}"
        )
    if not keep.any():
        raise ValueError("kept set carries zero mass")
    return DyadicMeasure._from_arrays(mu.d, mu.m, mu.coords[keep], mu.masses[keep]).normalize()
