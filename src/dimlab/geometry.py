"""Discretized projections: linear, radial, pinned-distance, and tube queries.

Direction cells are arcs of the circle or Fibonacci-spiral caps of the sphere.
Planar tube and concentration maxima are exact, by one sort sweep over the arcs
of directions that hold each leaf or cell (_heaviest_point); 3-d ones are grid
lower bounds.  Pushforwards act on leaf-cube centers and conserve mass exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import (DyadicMeasure, _cell_table, _cells_text, _centers, _check_shape,
                     _entropies, _finite, _frozen, _mass_total, _positive, _positive_int,
                     _read_cells, _sum_by_key)

_TOL = 1e-9

# Rows per block of the 3-d direction products in _heaviest_direction, and of
# the cell centers project_radial makes; bounds their temporaries.
# The direction loop reuses one work array for every block: fresh temporaries
# of this size would each be mapped and zero-filled anew by the allocator,
# which costs more than the product itself.
_DIRECTION_CHUNK = 128
# Entries per block of project_radial's leaf-by-cell products (512 KB), so its
# memory is the 24 bytes a cell of the centers, whatever the number of cells.
_DIRECTION_ENTRIES = 1 << 16


# -- output measure types ---------------------------------------------------


@dataclass
class LineMeasure:
    """A 1-d dyadic measure over a stated affine range [lo, hi)."""

    measure: DyadicMeasure
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.hi - self.lo > 0):
            raise ValueError("range length must be positive")

    def to_text(self) -> str:
        return f"range {self.lo!r} {self.hi!r}\n" + self.measure.to_text()


class DirectionMeasure:
    """Discretized measure on the unit sphere.

    d=2: equal arcs of the circle; d=3: near-equal-area caps around a
    deterministic Fibonacci spiral lattice (cell areas within a factor 2 of
    nominal).  ``index`` (ascending int64) and ``masses`` (float64) are
    read-only arrays of the cells that carry positive mass.
    """

    def __init__(self, d: int, n_cells: int, index, masses):
        if d not in (2, 3):
            raise ValueError("direction measures support d = 2 or 3")
        if n_cells < 2:
            raise ValueError("need at least 2 cells")
        self.d = d
        self.n_cells = n_cells
        index, masses = _cell_table(index, masses, n_cells, 1)
        live = masses > 0.0
        if not live.any():
            raise ValueError("direction measure has no mass")
        self.index = _frozen(index[live, 0])
        self.masses = _frozen(masses[live])
        self.total_mass = _mass_total(self.masses)

    @property
    def resolution(self) -> float:
        if self.d == 2:
            return 2.0 * math.pi / self.n_cells
        return math.sqrt(4.0 * math.pi / self.n_cells)

    def cell_centers(self) -> np.ndarray:
        """(len(index), d) unit vectors at the centers of the cells that
        carry mass, row for row with ``index``."""
        if self.d == 2:
            ang = (self.index + 0.5) * (2.0 * math.pi / self.n_cells)
            return np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return _sphere_lattice(self.n_cells, self.index)

    def to_text(self) -> str:
        return _cells_text(f"sphere {self.d} {self.n_cells}", self.index[:, None], self.masses)

    @classmethod
    def from_text(cls, text: str) -> "DirectionMeasure":
        (d, n_cells), index, masses = _read_cells(text, "d n_cells", tag="sphere")
        return cls(d, n_cells, index, masses)


@dataclass
class ThinTubeProfile:
    """Worst-tube decay through one pin: mass(r-tube) <= K * r^t after
    discarding a 1-c fraction, with c = 1: no exceptional mass is removed."""

    pin: tuple[float, ...]
    t: float
    K: float
    table: list[tuple[float, float]] = field(repr=False)  # (r, worst tube mass)


def _sphere_lattice(n: int, rows: np.ndarray) -> np.ndarray:
    """Points `rows` of the deterministic Fibonacci spiral of n near-uniform
    points on S^2; the formula is elementwise, so a row has the same bits
    whichever others are asked for."""
    i = rows + 0.5
    z = 1.0 - 2.0 * i / n
    rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    ang = golden * i
    return np.stack([rad * np.cos(ang), rad * np.sin(ang), z], axis=1)


# -- absolute dyadic binning helpers ----------------------------------------


def value_bins(values: np.ndarray, level: int) -> np.ndarray:
    """Absolute dyadic cell indices floor(v * 2^level) on the real line."""
    return np.floor(np.asarray(values) * 2.0 ** level).astype(np.int64)


def value_entropy(values, weights, level: int) -> float:
    """Entropy (bits) of a weighted value cloud over absolute dyadic cells
    (0 for zero total weight)."""
    idx = value_bins(values, level)
    w = np.asarray(weights, dtype=float)
    tot = float(w.sum())
    if tot <= 0:
        return 0.0
    order = np.argsort(idx, kind="stable")
    cuts = np.flatnonzero(np.diff(idx[order])) + 1
    cells = np.add.reduceat(w[order], np.concatenate(([0], cuts))) / tot
    return float(_entropies(cells[None])[0])


def value_box_counts(values, levels) -> list[int]:
    """Occupied absolute dyadic cells of `values` at each level in `levels`
    (0 for no values).  The values are binned once, at the finest level J:
    floor(v * 2^j) is floor(v * 2^J) >> (J - j), and the shift keeps the
    order of the sorted cell indices, so a count is 1 + the number of steps
    in them.  Neighbours a < b step at level j exactly when a ^ b, as uint64,
    is at least 2^min(J - j, 63), so one sort of the XORs counts every level."""
    top = max(levels, default=0)
    idx = np.sort(value_bins(np.asarray(values, dtype=float), top), axis=None)
    steps = np.sort((idx[1:] ^ idx[:-1]).view(np.uint64))
    shifts = np.minimum(top - np.array(levels, dtype=np.int64), 63).astype(np.uint64)
    return (len(idx) - np.searchsorted(steps, np.uint64(1) << shifts)).tolist()


def value_box_count(values, level: int) -> int:
    """value_box_counts at one level."""
    return value_box_counts(values, [level])[0]


# -- projections ------------------------------------------------------------


def _bin_line(values: np.ndarray, weights: np.ndarray, lo: float, hi: float,
              out_depth: int) -> LineMeasure:
    _check_shape(1, out_depth)  # before building a grid of 2^out_depth cells
    n = 1 << out_depth
    if hi - lo <= 0:
        hi = lo + 2.0 ** (-out_depth)
    idx = np.minimum(((values - lo) / (hi - lo) * n).astype(np.int64), n - 1)
    idx = np.maximum(idx, 0)
    cells = DyadicMeasure._from_arrays(1, out_depth, *_sum_by_key(idx[:, None], weights))
    return LineMeasure(cells, lo, hi)


def project_linear(mu: DyadicMeasure, theta, out_depth: int) -> LineMeasure:
    """Pushforward of leaf-center masses under x -> <x, theta>, binned at
    resolution 2^{-out_depth} over the exact attainable range."""
    theta = np.asarray(theta, dtype=float)
    if abs(np.linalg.norm(theta) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    if mu.trivial:
        raise ValueError("cannot project the trivial measure")
    vals = mu.leaf_centers() @ theta
    return _bin_line(vals, mu.masses, float(vals.min()), float(vals.max()), out_depth)


def _sq_norms(pts: np.ndarray) -> np.ndarray:
    """Squared row norms, column by column (equal to np.sum(pts * pts, axis=1)
    and cheaper for few columns)."""
    return sum(pts[:, i] * pts[:, i] for i in range(pts.shape[1]))


def _pin_offsets(mu: DyadicMeasure, y, min_dist: float) -> tuple[np.ndarray, np.ndarray]:
    """Leaf-center offsets from the pin y and their squared norms; raises
    unless y has mu.d finite coordinates and every leaf center is at least min_dist
    from y.  np.sqrt of the squared norms equals np.linalg.norm of the rows."""
    y = np.asarray(y, dtype=float)
    if y.shape != (mu.d,):
        raise ValueError(f"pin has {y.size} coordinates; the measure has d = {mu.d}")
    if not np.isfinite(y).all():
        raise ValueError(f"pin {tuple(y.tolist())} is not finite")
    diff = _centers(mu.coords, mu.m)
    for i in range(mu.d):  # the subtractions of diff -= y, faster by column
        diff[:, i] -= y[i]
    sq = _sq_norms(diff)
    dmin = math.sqrt(float(sq.min(initial=math.inf)))
    if dmin < min_dist:
        raise ValueError(f"pin is at distance {dmin} from the support, below {min_dist}")
    return diff, sq


def project_radial(mu: DyadicMeasure, y, n_cells: int) -> DirectionMeasure:
    """Pushforward under the direction map x -> (x - y)/|x - y|."""
    if mu.trivial:
        raise ValueError("cannot project the trivial measure")
    if n_cells < 2 or mu.d not in (2, 3):
        raise ValueError(f"need at least 2 cells and d = 2 or 3, not {n_cells} and d = {mu.d}")
    diff, sq = _pin_offsets(mu, y, 2.0 * 2.0 ** (-mu.m))
    if mu.d == 2:
        ang = np.mod(np.arctan2(diff[:, 1], diff[:, 0]), 2.0 * math.pi)
        idx = np.minimum((ang / (2.0 * math.pi) * n_cells).astype(np.int64), n_cells - 1)
    else:
        unit = diff / np.sqrt(sq)[:, None]
        centers = np.empty((n_cells, 3))
        for j0 in range(0, n_cells, _DIRECTION_CHUNK):
            rows = np.arange(j0, min(j0 + _DIRECTION_CHUNK, n_cells))
            centers[j0 : j0 + _DIRECTION_CHUNK] = _sphere_lattice(n_cells, rows)
        idx = np.empty(len(unit), dtype=np.intp)
        step = max(1, _DIRECTION_ENTRIES // n_cells)
        for i0 in range(0, len(unit), step):
            np.argmax(unit[i0 : i0 + step] @ centers.T, axis=1, out=idx[i0 : i0 + step])
    cells, masses = _sum_by_key(idx[:, None], mu.masses)
    return DirectionMeasure(mu.d, n_cells, cells[:, 0], masses)


def pinned_distance(mu: DyadicMeasure, y, out_depth: int) -> LineMeasure:
    """Pushforward under x -> |x - y|, binned over [0, max distance]."""
    if mu.trivial:
        raise ValueError("cannot project the trivial measure")
    dist = np.sqrt(_pin_offsets(mu, y, 2.0 * 2.0 ** (-mu.m))[1])
    return _bin_line(dist, mu.masses, 0.0, float(dist.max()), out_depth)


# -- tubes ------------------------------------------------------------------


def _hemisphere_blocks(step: float):
    """Deterministic grid of 3-d line directions with angular step <= `step`,
    yielded in blocks of _DIRECTION_CHUNK rows: the first n points of the
    2n-point spiral, which are its points with z >= 0.  Memory is one block;
    n = ceil(2 pi / step^2), and the time, still grow as 1/step^2."""
    n = max(8, int(math.ceil(2.0 * math.pi / (step * step))))
    for i0 in range(0, n, _DIRECTION_CHUNK):
        yield _sphere_lattice(2 * n, np.arange(i0, min(i0 + _DIRECTION_CHUNK, n)))


def tube_mass_max(nu: DyadicMeasure, x, r: float) -> tuple[float, np.ndarray]:
    """Max of nu(tube) over r-tubes (closed slabs of half-width r about a
    line) through x, with a direction of a heaviest tube.

    d=2: exact, by an angular sweep over the arcs of directions whose slab
    holds each leaf center (O(N log N)); the direction attains the mass up to
    the rounding of one arc endpoint.  d=3: sampled on a direction grid with
    step r/4, so a lower bound for the true maximum.
    """
    _check_tube_radius(nu, r)
    return _pin_tubes(nu, x, [r], 0.0)[0]


def _check_tube_radius(nu: DyadicMeasure, r: float) -> None:
    """Raises unless r is finite and at least nu's grid scale, and nu has d = 2 or 3."""
    if not math.isfinite(r):
        raise ValueError(f"tube radius {r} is not finite")
    if r < 2.0 ** (-nu.m):
        raise ValueError("tube radius below the grid scale")
    if nu.d not in (2, 3):
        raise ValueError(f"tubes need d = 2 or 3, not d = {nu.d}")


def _pin_tubes(nu: DyadicMeasure, x, rs, min_dist: float) -> list[tuple[float, np.ndarray]]:
    """tube_mass_max's (mass, direction) at each radius in rs, with the leaf
    offsets from the pin x (checked by _pin_offsets against min_dist), their
    squared norms and, in d = 2, their angles computed once for all radii.
    The radii must have passed _check_tube_radius."""
    pts, sq = _pin_offsets(nu, x, min_dist)
    if nu.d == 2:
        ang = np.arctan2(pts[:, 1], pts[:, 0])
        del pts  # the sweeps read only sq and ang
        return [_tube_mass_sweep(sq, ang, nu.masses, r) for r in rs]
    return [_tube_mass_grid(pts, sq, nu.masses, r, _hemisphere_blocks(r / 4.0)) for r in rs]


def _tube_mass_sweep(sq: np.ndarray, ang: np.ndarray, w: np.ndarray,
                     r: float) -> tuple[float, np.ndarray]:
    """Exact planar maximum over line directions theta in [0, pi), given the
    leaves' squared distances sq and angles ang from the pin and their masses w.

    A leaf at offset p with |p|^2 > r^2 + _TOL lies in the slab of direction
    theta exactly when theta is within alpha = arcsin(sqrt(r^2 + _TOL)/|p|) of
    p's angle mod pi; leaves with |p|^2 <= r^2 + _TOL lie in every slab.
    """
    r2 = r * r + _TOL
    far = sq > r2
    alpha = np.arcsin(np.sqrt(r2 / sq[far]))
    start = np.mod(ang[far] - alpha, math.pi)
    mass, theta = _heaviest_point(start, start + 2.0 * alpha, w[far])
    near = float(w[~far].sum()) if len(start) < len(w) else 0.0
    return near + mass, np.array([math.cos(theta), math.sin(theta)])


def _heaviest_point(start: np.ndarray, end: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """(mass, theta) of a heaviest point theta in [0, pi) of the closed arcs
    [start, end] of masses w on the circle of length pi, given
    0 <= start < pi and start <= end <= fl(start + pi); (0.0, 0.0) without arcs.

    Coverage rises only at starts, so its maximum is at one.  With starts
    and ends in value order (stable argsorts), the k-th start's cover is the
    mass of the first k + 1 starts, less the ends below it, plus the arcs
    that wrap past pi and are still open there (the ends >= fl(start + pi));
    the first maximum wins.
    """
    if not len(start):
        return 0.0, 0.0
    s_order = np.argsort(start, kind="stable")
    s = start[s_order]
    e_order = np.argsort(end, kind="stable")
    e = end[e_order]
    ended = np.zeros(len(w) + 1)  # ended[j]: mass of the j lowest ends
    np.cumsum(w[e_order], out=ended[1:])
    cover = np.cumsum(w[s_order])
    cover -= ended[np.searchsorted(e, s)]
    cover += ended[-1] - ended[np.searchsorted(e, s + math.pi)]
    k = int(np.argmax(cover))
    return float(cover[k]), float(s[k])


def _tube_mass_grid(pts: np.ndarray, sq: np.ndarray, w: np.ndarray, r: float,
                    blocks) -> tuple[float, np.ndarray]:
    """Max slab mass over the directions in `blocks`, with leaf offsets
    `pts` from the pin and their squared norms `sq`."""
    sq = sq[:, None]
    r2 = r * r + _TOL

    def slab(proj):  # |p|^2 - <p, u>^2 <= r^2 + _TOL
        np.subtract(sq, np.multiply(proj, proj, out=proj), out=proj)
        return np.less_equal(proj, r2, out=proj)

    return _heaviest_direction(pts, w, blocks, slab)


def _heaviest_direction(pts: np.ndarray, w: np.ndarray, blocks,
                        inside) -> tuple[float, np.ndarray]:
    """(mass, direction) of a heaviest unit direction u in `blocks`, an
    iterable of (k, d) arrays with k <= _DIRECTION_CHUNK: the w-mass of the
    rows of pts that inside(proj) marks 1.0, where proj holds <p, u> for each
    row p and column u and inside overwrites it with 1.0 or 0.0."""
    best = -1.0
    best_dir = None
    buf = np.empty((len(pts), _DIRECTION_CHUNK))
    for U in blocks:
        masses = w @ inside(np.matmul(pts, U.T, out=buf[:, : len(U)]))
        j = int(np.argmax(masses))
        if masses[j] > best:
            best = float(masses[j])
            best_dir = U[j]
    return best, best_dir


def _quantile_leaves(w: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct indices of the leaves holding the mass quantiles
    (k + 1/2)/n, k < n: a deterministic mass-weighted panel of the support.
    `w` holds the leaf masses in leaf order."""
    cum = np.cumsum(w) / w.sum()
    idx = np.searchsorted(cum, (np.arange(n) + 0.5) / n)
    return np.unique(np.minimum(idx, len(w) - 1))


def thin_tubes_profile(
    mu: DyadicMeasure,
    nu: DyadicMeasure,
    r_levels,
    n_pins: int = 32,
) -> list[ThinTubeProfile]:
    """Fit the worst-tube decay exponent through a deterministic panel of
    pins from the support of mu, against tubes in nu.

    No exceptional-mass removal is performed (c = 1); the reported exponent
    is the log-log least-squares slope of the worst-tube curve.
    """
    if mu.d != nu.d:
        raise ValueError(f"pin measure has dimension {mu.d}, tube measure {nu.d}")
    if n_pins < 1:
        raise ValueError(f"need at least one pin, not {n_pins}")
    rs = sorted(float(r) for r in r_levels)
    if len(rs) < 2:
        raise ValueError("need at least two tube radii")
    if len(set(rs)) != len(rs):
        raise ValueError(f"tube radii must be distinct: {rs}")
    for r in rs:
        _check_tube_radius(nu, r)
    pins = _centers(mu.coords[_quantile_leaves(mu.masses, n_pins)], mu.m)
    out = []
    for pin in pins:
        # the supports must be separated by 4 times the largest radius
        tubes = _pin_tubes(nu, pin, rs, 4.0 * rs[-1])
        table = [(r, mass) for r, (mass, _) in zip(rs, tubes)]
        logs_r = np.log2([r for r, _ in table])
        logs_m = np.log2([max(m, 1e-300) for _, m in table])
        t, logK = np.polyfit(logs_r, logs_m, 1)
        out.append(
            ThinTubeProfile(
                pin=tuple(float(v) for v in pin),
                t=max(0.0, float(t)),
                K=float(2.0 ** logK),
                table=table,
            )
        )
    return out


# -- direction-measure audits ----------------------------------------------


def hyperplane_concentration(rho: DirectionMeasure, a: float) -> float:
    """Max rho-mass of an a-neighborhood of a central hyperplane section of
    the sphere.  d=2: exact, by the tube sweep: a cell centred at angle phi lies
    within a of the line through 0 at angle theta exactly when theta is within
    arcsin(a + _TOL) of phi (mod pi).  d=3: sampled on a normal grid with
    step <= a/4, so a lower bound; the grid is made a block at a time, but
    its ceil(32 pi / a^2) normals make the time grow as 1/a^2."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must be in (0, 1)")
    if rho.d == 2:
        if a + _TOL >= 1.0:  # every cell is within a of every line
            return rho.total_mass
        alpha = math.asin(a + _TOL)
        phi = (rho.index + 0.5) * (2.0 * math.pi / rho.n_cells)
        start = np.mod(phi - alpha, math.pi)
        return _heaviest_point(start, start + 2.0 * alpha, rho.masses)[0]
    return _heaviest_direction(
        rho.cell_centers(), rho.masses, _hemisphere_blocks(a / 4.0),
        lambda inner: np.less_equal(np.abs(inner, out=inner), a + _TOL, out=inner))[0]


def _failing_direction_mass(rho: DirectionMeasure, mu: DyadicMeasure, level: int,
                            fails) -> float:
    """rho-mass fraction of the cell directions theta for which
    fails(project_linear(mu, theta, level)) holds."""
    failed = [fails(project_linear(mu, u / np.linalg.norm(u), level))
              for u in rho.cell_centers()]
    return sum(rho.masses[np.array(failed, dtype=bool)].tolist()) / sum(rho.masses.tolist())


def adapted_audit(
    rho: DirectionMeasure,
    mu: DyadicMeasure,
    delta_level: int,
    s: float,
    eps: float,
) -> float:
    """rho-mass fraction of directions whose linear projection of mu fails
    the robustness check at exponent s - eps and threshold 2^{-eps * level},
    for eps > 0 and an integer level >= 1."""
    delta_level = _positive_int("level", delta_level)
    r = 2.0 ** (-_positive("eps", eps) * delta_level)
    return _failing_direction_mass(
        rho, mu, delta_level,
        lambda proj: not proj.measure.robustness_check(delta_level, s - eps, r)[0],
    )


def entropy_projection_bound(
    rho: DirectionMeasure,
    mu: DyadicMeasure,
    m: int,
    a: float,
    b: float,
    fitted_constant: float,
) -> tuple[float, bool]:
    """Mass of directions with anomalously small projected entropy, checked
    against the budget b; requires the hyperplane-concentration hypothesis."""
    b, fitted_constant = _finite("b", b), _finite("fitted_constant", fitted_constant)
    conc = hyperplane_concentration(rho, a)
    if conc > b + _TOL:
        raise ValueError(
            f"hyperplane concentration {conc} exceeds budget {b}; hypothesis fails"
        )
    h_mu = mu.entropy(m)
    threshold = h_mu / mu.d - math.log2(1.0 / a) - fitted_constant
    bad_mass = _failing_direction_mass(rho, mu, m, lambda p: p.measure.entropy(m) < threshold)
    return bad_mass, bad_mass <= b + _TOL
