"""Sparse dyadic-tree measures on [0,1)^d.

A measure is stored as two arrays: ``coords``, the int64 coordinates of the
leaves at the finest level m that carry positive mass, rows in
lexicographic order, and ``masses``, their float64 masses.  Masses of
coarser cubes are summed by np.bincount in that leaf order, so
cube/children consistency is bit-exact and runs are reproducible.  All
instances are immutable (their arrays reject writes), with ``trivial`` and
``total_mass`` fixed at construction; every operation returns a new object.
Other modules read and build measures only through these arrays and the
helpers here, never a per-leaf Python loop.

Entropies are in bits throughout.
"""

from __future__ import annotations

import itertools
import math
import numbers
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
_MAX_LOG2_C = 10.0  # frostman_fit keeps its envelope constant C below 2^_MAX_LOG2_C


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
    1-d np.unique ranks, which bounds the radix by n^2.  A stable argsort
    of the codes groups them: each row out is its group's first in input
    order, as np.unique's return_index picks it.
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
        code *= span
        code += col
        radix *= span
        del col
    order = np.argsort(code, kind="stable")
    code = code[order]
    new = np.empty(len(code), dtype=bool)  # new[i]: sorted code i starts a group
    new[:1] = True
    np.not_equal(code[1:], code[:-1], out=new[1:])
    code[:] = new  # then each sorted code's group number, in place
    np.cumsum(code, out=code)
    code -= 1
    inv = np.empty_like(code)
    inv[order] = code
    first = order[new]
    del order, code
    # np.take and np.compress with axis=0 copy the rows of an (n, k) array
    # as fancy indexing does, in about a tenth of the time
    return np.take(keys, first, axis=0), inv


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


def _fsum(a: np.ndarray) -> float:
    """math.fsum(a.tolist()), correctly rounded, without a list of all of a."""
    return math.fsum(itertools.chain.from_iterable(
        a[i : i + 4096].tolist() for i in range(0, len(a), 4096)))


def _mass_total(masses: np.ndarray) -> float:
    """The math.fsum total of finite non-negative masses (n * w for n masses of
    w: one rounding of the same exact sum)."""
    n = len(masses)
    try:
        total = n * float(masses[0]) if n and masses.min() == masses.max() else _fsum(masses)
    except OverflowError:  # fsum's; n * w overflows to inf
        total = math.inf
    if total == math.inf:
        raise ValueError(f"the total of the {n} masses overflows a float")
    return total


def _is_number(value, kind=numbers.Real) -> bool:
    """A `kind` other than a bool (a string is no number, though float() parses it)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _finite(name: str, value) -> float:
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _positive(name: str, value) -> float:
    value = _finite(name, value)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _positive_int(name: str, value) -> int:
    if not _is_number(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


def _masses(values, names) -> np.ndarray:
    """float64 `values`, which must be finite non-negative numbers; an error
    names the first bad one by its row of `names`."""
    masses = np.asarray(values)
    if masses.dtype.kind not in "iuf":
        raise ValueError(f"masses must be numbers, not {masses.dtype}")
    bad = np.flatnonzero(~((masses >= 0) & (masses < math.inf)))
    if len(bad):
        raise ValueError(f"mass {masses[bad[0]]} at {tuple(names[bad[0]].tolist())} "
                         "is negative or not finite")
    return masses.astype(float)


def _cell_table(keys, masses, top: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Int64 rows of the (n, k) `keys` in lexicographic order and their
    float64 `masses`; raises, naming the first bad cell, unless the rows are
    distinct integers in [0, top) and the masses finite non-negative numbers."""
    try:
        keys = np.asarray(keys).reshape(len(masses), k)
    except ValueError:
        keys = None
    if keys is None or keys.dtype.kind not in "iuf":
        raise ValueError(f"each of the {len(masses)} cells must be {k} integers")
    masses = _masses(masses, keys)
    bad = np.flatnonzero(((keys < 0) | (keys >= top) | (keys != np.round(keys))).any(axis=1))
    if len(bad):
        raise ValueError(f"cell {tuple(keys[bad[0]].tolist())} is off the grid [0, {top})^{k}")
    order = np.lexsort(keys.T[::-1])
    rows = keys.astype(np.int64)[order]
    dup = order[1:][(rows[1:] == rows[:-1]).all(axis=1)]
    if len(dup):
        raise ValueError(f"cell {tuple(keys[dup.min()].tolist())} appears twice")
    return rows, masses[order]


def _read_cells(text: str, header: str, tag: str = "") -> tuple[list[int], np.ndarray, np.ndarray]:
    """The integer header fields, integer cells and float masses of a text
    table: a line of `tag` (if given) and an integer for each word of
    `header`, then per cell its integers and mass."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    spec = [tag] * bool(tag) + header.split()
    if not lines or len(lines[0]) != len(spec) or lines[0][: bool(tag)] != spec[: bool(tag)]:
        raise ValueError(f"bad header; expected {' '.join(spec)!r}")
    try:
        table = np.array(lines[1:] or np.empty((0, 1)), dtype=str)
    except ValueError:
        raise ValueError("the lines of cells differ in length") from None
    try:
        head = np.array(lines[0][bool(tag):]).astype(np.int64).tolist()
        return head, table[:, :-1].astype(np.int64), table[:, -1].astype(float)
    except (ValueError, OverflowError):
        # name the first field that does not convert, by its line of the text
        cells = [(n, ln.split()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        for i, (n, words) in enumerate(cells):
            skip = 0 if i else bool(tag)  # the tag, checked above
            for k, word in enumerate(words[skip:], skip + 1):
                kind = float if i and k == len(words) else np.int64
                where = f"line {n}: field {k} ({word!r})"
                try:
                    np.array(word).astype(kind)
                except ValueError:
                    what = "a number" if kind is float else "an integer"
                    raise ValueError(f"{where} is not {what}") from None
                except OverflowError:
                    raise ValueError(f"{where} is out of range") from None
        raise


def _cells_text(head: str, keys: np.ndarray, masses: np.ndarray) -> str:
    """The table _read_cells reads: the line `head`, then per row of the
    (n, k) integer `keys` its integers and the repr of its mass."""
    lines = [head] + [f"{' '.join(map(str, key))} {mass!r}"
                      for key, mass in zip(keys.tolist(), masses.tolist())]
    return "\n".join(lines) + "\n"


def _check_shape(d: int, m: int) -> None:
    if not (1 <= d <= 3):
        raise ValueError(f"ambient dimension must be 1..3, got {d}")
    if not (0 <= m <= 40):
        raise ValueError(f"depth must be in 0..40, got {m}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _centers(coords: np.ndarray, m: int) -> np.ndarray:
    """Centers (c + 1/2) * 2^-m of the level-m dyadic cubes at the integer
    coordinates `coords`, as one new float64 array."""
    out = coords + 0.5
    out *= 2.0 ** -m
    return out


@dataclass(frozen=True)
class FrostmanFit:
    """Power-law envelope mu(Q) <= C * side(Q)^s over a dyadic scale range.

    `residual` is the worst log2-violation (in bits) of the envelope at the
    reported (s, C); it is zero when C is the exact envelope constant.
    """

    s: float
    C: float
    residual: float


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
        self._set(d, m, *_cell_table(list(leaf_masses), list(leaf_masses.values()), 1 << m, d))

    @classmethod
    def _from_arrays(cls, d: int, m: int, coords: np.ndarray,
                     masses: np.ndarray) -> "DyadicMeasure":
        """Measure on a valid cell table, as _cell_table returns one (not
        checked again).  When every mass is positive the arrays are frozen
        and kept as given, so they must be fresh or already frozen."""
        _check_shape(d, m)
        mu = cls.__new__(cls)
        mu._set(d, m, coords, masses)
        return mu

    def _set(self, d: int, m: int, coords: np.ndarray, masses: np.ndarray) -> None:
        masses = np.asarray(masses, dtype=float)
        keep = masses > 0.0
        if not keep.all():
            coords, masses = np.compress(keep, coords, axis=0), masses[keep]
        self.d, self.m = d, m
        self.coords = _frozen(coords.reshape(-1, d))
        self.masses = _frozen(masses)
        self.trivial = not len(self.masses)
        self.total_mass = _mass_total(self.masses)

    # -- basic structure ---------------------------------------------------

    @property
    def normalized(self) -> bool:
        return abs(self.total_mass - 1.0) <= _NORM_TOL

    def cells(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (coords, masses) arrays of the positive cubes at `level`,
        rows in lexicographic order.  Each cube's mass is summed over its
        leaves in leaf order; at level m they are the leaf arrays."""
        if not (0 <= level <= self.m):
            raise ValueError(f"level {level} outside [0, {self.m}]")
        _, rows, sums = next(self._walk(level, level))
        return _frozen(rows), _frozen(sums)

    def _walk(self, lo: int, hi: int):
        """Yield (j, *cells(j)) for j from hi down to lo: each level groups
        the next finer level's rows >> 1, and the leaf -> cube index is
        composed through that parent map in place (take reads an entry
        before overwriting it).  The sums stay one bincount over the leaves
        in leaf order, bit-identical to grouping the leaves at each level."""
        if hi == self.m:
            rows, idx = self.coords, None  # None: the identity
        else:
            rows, idx = _group_rows(self.coords >> (self.m - hi))
        for j in range(hi, lo - 1, -1):
            if j < hi:
                keys, rows = rows >> 1, None  # no finer rows alive while grouping
                rows, parent = _group_rows(keys)
                idx = parent if idx is None else np.take(parent, idx, out=idx, mode="clip")
            yield j, rows, (self.masses if idx is None else
                            np.bincount(idx, weights=self.masses, minlength=len(rows)))

    def level_masses(self, level: int) -> dict[tuple[int, ...], float]:
        """Masses of all positive cubes at the given level, keyed by coordinate tuple."""
        rows, sums = self.cells(level)
        return dict(zip(map(tuple, rows.tolist()), sums.tolist()))

    def leaf_centers(self) -> np.ndarray:
        """Read-only (n, d) array of leaf-cube centers, rows in leaf order."""
        return _frozen(_centers(self.coords, self.m))

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

    def frostman_fit(self, scale_range: tuple[int, int]) -> FrostmanFit:
        """Fit the largest exponent s with max_Q mu(Q) * 2^{j s} bounded.

        Two-pass log-log envelope fit over the dyadic levels in
        ``scale_range = (j_lo, j_hi)``: a least-squares slope through the
        per-level worst-case masses, capped so that the envelope constant C
        stays below 2^_MAX_LOG2_C.  Ball-vs-cube constants are absorbed into C.
        One _walk holds one level's cells at a time.
        """
        j_lo, j_hi = scale_range
        if self.trivial:
            raise ValueError("frostman_fit undefined for the trivial measure")
        if j_hi - j_lo + 1 < 3:
            raise ValueError("need at least 3 dyadic scales")
        if not (0 <= j_lo <= j_hi <= self.m):
            raise ValueError("scale_range outside measure depth")
        # map keeps no level alive while the walk makes the next
        worst = list(map(lambda cells: float(cells[2].max()), self._walk(j_lo, j_hi)))[::-1]
        logm = np.array([math.log2(w) for w in worst])
        js = np.arange(j_lo, j_hi + 1, dtype=float)

        # pass 1: least-squares slope of -log2(max mass) against level
        s_ls = float(np.polyfit(js, -logm, 1)[0])
        s_ls = min(max(s_ls, 0.0), float(self.d) + 1.0)

        def log2_C(s: float) -> float:
            return max(0.0, float(np.max(logm + js * s)))

        # pass 2: shrink s until the envelope constant is within budget
        s = s_ls
        if log2_C(s) > _MAX_LOG2_C:
            lo, hi = 0.0, s
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if log2_C(mid) <= _MAX_LOG2_C else (lo, mid)
            s = lo
        C = 2.0 ** log2_C(s)
        residual = max(0.0, float(np.max(logm + js * s - math.log2(max(C, 1.0)))))
        return FrostmanFit(s=s, C=max(C, 1.0), residual=residual)

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
        s = _finite("s", s)
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
        return _cells_text(f"{self.d} {self.m}", self.coords, self.masses)

    @classmethod
    def from_text(cls, text: str) -> "DyadicMeasure":
        (d, m), keys, masses = _read_cells(text, "d m")
        _check_shape(d, m)
        return cls._from_arrays(d, m, *_cell_table(keys, masses, 1 << m, d))

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
    coords, weights = zip(*pts)
    d = len(coords[0])
    _check_shape(d, depth)
    xs = np.array(coords, dtype=float)  # raises unless every atom has d coordinates
    w = _masses(weights, xs)
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
    return DyadicMeasure._from_arrays(mu.d, mu.m, np.compress(keep, mu.coords, axis=0),
                                      mu.masses[keep]).normalize()
