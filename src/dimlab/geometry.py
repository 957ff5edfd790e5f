"""Discretized projections: linear, radial, pinned-distance, and tube queries.

Direction grids are deterministic (uniform arcs on the circle, a Fibonacci
spiral on the sphere) so every sweep is reproducible.  All pushforwards act
on leaf-cube centers and conserve mass exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicMeasure, _shannon, _sum_by_key

_TOL = 1e-9

# Directions per block in _tube_mass_grid; bounds the (leaves, chunk) temporaries.
_DIRECTION_CHUNK = 128


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

    @property
    def depth(self) -> int:
        return self.measure.m

    def entropy(self, level: int | None = None) -> float:
        return self.measure.entropy(self.depth if level is None else level)

    def box_count(self, level: int | None = None) -> int:
        return self.measure.box_count(self.depth if level is None else level)

    def to_text(self) -> str:
        return f"range {self.lo!r} {self.hi!r}\n" + self.measure.to_text()


class DirectionMeasure:
    """Discretized measure on the unit sphere.

    d=2: equal arcs of the circle; d=3: near-equal-area caps around a
    deterministic Fibonacci spiral lattice (cell areas within a factor 2 of
    nominal).
    """

    def __init__(self, d: int, n_cells: int, cells: dict[int, float]):
        if d not in (2, 3):
            raise ValueError("direction measures support d = 2 or 3")
        if n_cells < 2:
            raise ValueError("need at least 2 cells")
        self.d = d
        self.n_cells = n_cells
        for i, m in cells.items():
            if not (0 <= i < n_cells):
                raise ValueError(f"cell index {i} out of range")
            if not (0.0 <= m < math.inf):
                raise ValueError(f"cell mass {m} is negative or not finite")
        self.cells = {int(i): float(m) for i, m in cells.items() if m > 0}

    @property
    def resolution(self) -> float:
        if self.d == 2:
            return 2.0 * math.pi / self.n_cells
        return math.sqrt(4.0 * math.pi / self.n_cells)

    @property
    def total_mass(self) -> float:
        return math.fsum(self.cells[i] for i in sorted(self.cells))

    def cell_centers(self) -> np.ndarray:
        """(n_cells, d) unit vectors at the cell centers."""
        if self.d == 2:
            ang = (np.arange(self.n_cells) + 0.5) * (2.0 * math.pi / self.n_cells)
            return np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return _sphere_lattice(self.n_cells)

    def to_text(self) -> str:
        lines = [f"sphere {self.d} {self.n_cells}"]
        for i in sorted(self.cells):
            lines.append(f"{i} {self.cells[i]!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DirectionMeasure":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = lines[0].split() if lines else []
        if len(head) != 3 or head[0] != "sphere":
            raise ValueError("bad direction-measure header; expected 'sphere d n_cells'")
        d, n = int(head[1]), int(head[2])
        cells = {}
        for ln in lines[1:]:
            i, m = ln.split()
            if int(i) in cells:
                raise ValueError(f"duplicate cell {i}")
            cells[int(i)] = float(m)
        return cls(d, n, cells)


@dataclass
class ThinTubeProfile:
    """Worst-tube decay through one pin: mass(r-tube) <= K * r^t after
    discarding a 1-c fraction (c = 1 here: no exceptional mass removed)."""

    pin: tuple[float, ...]
    t: float
    K: float
    c: float
    scale_range: tuple[float, float]
    table: list[tuple[float, float]] = field(repr=False)  # (r, worst tube mass)

    def __post_init__(self):
        if self.t < -1e-6:
            raise ValueError("fitted exponent must be >= 0")
        if not (0 < self.c <= 1):
            raise ValueError("retained fraction must be in (0, 1]")


def _sphere_lattice(n: int) -> np.ndarray:
    """Deterministic Fibonacci spiral: n near-uniform points on S^2."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    ang = golden * i
    return np.stack([rad * np.cos(ang), rad * np.sin(ang), z], axis=1)


# -- absolute dyadic binning helpers ----------------------------------------


def value_bins(values: np.ndarray, level: int) -> np.ndarray:
    """Absolute dyadic cell indices floor(v * 2^level) on the real line."""
    return np.floor(np.asarray(values) * 2.0 ** level).astype(np.int64)


def _value_cell_masses(values, weights, level: int) -> np.ndarray:
    """Normalized masses of a weighted value cloud's occupied absolute dyadic
    cells, in cell order (empty for zero total weight)."""
    idx = value_bins(values, level)
    w = np.asarray(weights, dtype=float)
    tot = float(w.sum())
    if tot <= 0:
        return np.zeros(0)
    order = np.argsort(idx, kind="stable")
    idx, w = idx[order], w[order]
    cuts = np.nonzero(np.diff(idx))[0] + 1
    return np.add.reduceat(w, np.concatenate(([0], cuts))) / tot


def value_entropy(values, weights, level: int) -> float:
    """Entropy (bits) of a weighted value cloud over absolute dyadic cells."""
    return _shannon(_value_cell_masses(values, weights, level))


def value_box_count(values, level: int) -> int:
    return int(len(np.unique(value_bins(values, level))))


# -- projections ------------------------------------------------------------


def _bin_line(values: np.ndarray, weights: np.ndarray, lo: float, hi: float,
              out_depth: int) -> LineMeasure:
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


def _check_pin_separation(mu: DyadicMeasure, y) -> np.ndarray:
    """Leaf-center offsets from the pin y; raises unless y has mu.d
    coordinates and every leaf center is at least two grid cells from y."""
    y = np.asarray(y, dtype=float)
    if y.shape != (mu.d,):
        raise ValueError(f"pin has {y.size} coordinates; the measure has d = {mu.d}")
    diff = mu.leaf_centers() - y
    dist = np.linalg.norm(diff, axis=1)
    if float(dist.min()) < 2.0 * 2.0 ** (-mu.m):
        raise ValueError(
            "pin is too close to the support (separation below twice the grid scale)"
        )
    return diff


def project_radial(mu: DyadicMeasure, y, n_cells: int) -> DirectionMeasure:
    """Pushforward under the direction map x -> (x - y)/|x - y|."""
    if mu.trivial:
        raise ValueError("cannot project the trivial measure")
    diff = _check_pin_separation(mu, y)
    if mu.d == 2:
        ang = np.mod(np.arctan2(diff[:, 1], diff[:, 0]), 2.0 * math.pi)
        idx = np.minimum((ang / (2.0 * math.pi) * n_cells).astype(np.int64), n_cells - 1)
    else:
        unit = diff / np.linalg.norm(diff, axis=1, keepdims=True)
        centers = _sphere_lattice(n_cells)
        idx = np.argmax(unit @ centers.T, axis=1)
    cells, masses = _sum_by_key(idx[:, None], mu.masses)
    return DirectionMeasure(mu.d, n_cells, dict(zip(cells[:, 0].tolist(), masses.tolist())))


def pinned_distance(mu: DyadicMeasure, y, out_depth: int) -> LineMeasure:
    """Pushforward under x -> |x - y|, binned over [0, max distance]."""
    if mu.trivial:
        raise ValueError("cannot project the trivial measure")
    diff = _check_pin_separation(mu, y)
    dist = np.linalg.norm(diff, axis=1)
    return _bin_line(dist, mu.masses, 0.0, float(dist.max()), out_depth)


# -- tubes ------------------------------------------------------------------


def _direction_grid(d: int, step: float) -> np.ndarray:
    """Deterministic grid of line directions with angular step <= `step`."""
    if d == 2:
        n = max(4, int(math.ceil(math.pi / step)))
        ang = np.arange(n) * (math.pi / n)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    n = max(8, int(math.ceil(2.0 * math.pi / (step * step))))
    pts = _sphere_lattice(2 * n)
    return pts[pts[:, 2] >= 0][:n]


def tube_mass_max(nu: DyadicMeasure, x, r: float) -> tuple[float, np.ndarray]:
    """Max of nu(tube) over r-tubes (closed slabs of half-width r about a
    line) through x, with a direction of a heaviest tube.

    d=2: exact, by an angular sweep over the arcs of directions whose slab
    holds each leaf center (O(N log N)); the direction attains the mass up to
    the rounding of one arc endpoint.  d=3: sampled on a direction grid with
    step r/4, so a lower bound for the true maximum.
    """
    if not math.isfinite(r):
        raise ValueError(f"tube radius {r} is not finite")
    if r < 2.0 ** (-nu.m):
        raise ValueError("tube radius below the grid scale")
    if nu.d not in (2, 3):
        raise ValueError(f"tubes need d = 2 or 3, not d = {nu.d}")
    x = np.asarray(x, dtype=float)
    if x.shape != (nu.d,):
        raise ValueError(f"pin has {x.size} coordinates; the measure has d = {nu.d}")
    pts = nu.leaf_centers() - x
    if nu.d == 2:
        return _tube_mass_sweep(pts, nu.masses, r)
    return _tube_mass_grid(pts, nu.masses, r, _direction_grid(3, r / 4.0))


def _tube_mass_sweep(pts: np.ndarray, w: np.ndarray, r: float) -> tuple[float, np.ndarray]:
    """Exact planar maximum over line directions theta in [0, pi).

    A leaf at offset p with |p|^2 > r^2 + _TOL lies in the slab of direction
    theta exactly when theta is within alpha = arcsin(sqrt(r^2 + _TOL)/|p|) of
    p's angle mod pi; leaves with |p|^2 <= r^2 + _TOL lie in every slab.
    """
    r2 = r * r + _TOL
    sq = np.sum(pts * pts, axis=1)
    far = sq > r2
    p = pts[far]
    alpha = np.arcsin(np.sqrt(r2 / sq[far]))
    start = np.mod(np.arctan2(p[:, 1], p[:, 0]) - alpha, math.pi)
    mass, theta = _heaviest_point(start, start + 2.0 * alpha, w[far])
    return float(w[~far].sum()) + mass, np.array([math.cos(theta), math.sin(theta)])


def _heaviest_point(start: np.ndarray, end: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """(mass, theta) of a heaviest point theta in [0, pi) of the closed
    weighted arcs [start, end] on the circle of length pi, given
    0 <= start < pi and end - start < pi; (0.0, 0.0) without arcs.

    Coverage rises only at starts, so its maximum is at one.  At theta it is
    the mass of the starts <= theta, less the ends < theta, plus the arcs
    that wrap past pi and are still open at theta (ends >= theta + pi).
    """
    if not len(w):
        return 0.0, 0.0
    s_order = np.argsort(start, kind="stable")
    s = start[s_order]
    e_order = np.argsort(end, kind="stable")
    e = end[e_order]
    ended = np.concatenate(([0.0], np.cumsum(w[e_order])))  # mass of the first k ends
    cover = (np.cumsum(w[s_order]) - ended[np.searchsorted(e, s)]
             + (ended[-1] - ended[np.searchsorted(e, s + math.pi)]))
    k = int(np.argmax(cover))
    return float(cover[k]), float(s[k])


def _tube_mass_grid(pts: np.ndarray, w: np.ndarray, r: float,
                    dirs: np.ndarray) -> tuple[float, np.ndarray]:
    """Max slab mass over the directions `dirs`, leaf offsets `pts` from the
    pin, in blocks of _DIRECTION_CHUNK directions."""
    sq = np.sum(pts * pts, axis=1)
    best = -1.0
    best_dir = dirs[0]
    r2 = r * r
    for i0 in range(0, len(dirs), _DIRECTION_CHUNK):
        U = dirs[i0 : i0 + _DIRECTION_CHUNK]
        proj = pts @ U.T
        inside = (sq[:, None] - proj * proj) <= r2 + _TOL
        masses = w @ inside
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
    if not all(map(math.isfinite, rs)):
        raise ValueError(f"tube radii must be finite: {rs}")
    if len(set(rs)) != len(rs):
        raise ValueError(f"tube radii must be distinct: {rs}")
    max_r = rs[-1]
    pins = mu.leaf_centers()[_quantile_leaves(mu.masses, n_pins)]
    nu_pts = nu.leaf_centers()
    out = []
    for pin in pins:
        dmin = float(np.linalg.norm(nu_pts - pin, axis=1).min())
        if dmin < 4.0 * max_r:
            raise ValueError(
                f"supports not separated: pin at distance {dmin} < 4*max r"
            )
        table = []
        for r in rs:
            mass, _ = tube_mass_max(nu, pin, r)
            table.append((r, mass))
        logs_r = np.log2([r for r, _ in table])
        logs_m = np.log2([max(m, 1e-300) for _, m in table])
        t, logK = np.polyfit(logs_r, logs_m, 1)
        out.append(
            ThinTubeProfile(
                pin=tuple(float(v) for v in pin),
                t=max(0.0, float(t)),
                K=float(2.0 ** logK),
                c=1.0,
                scale_range=(rs[0], rs[-1]),
                table=table,
            )
        )
    return out


# -- direction-measure audits ----------------------------------------------


def hyperplane_concentration(rho: DirectionMeasure, a: float) -> float:
    """Max rho-mass of an a-neighborhood of a central hyperplane section of
    the sphere, over a deterministic normal grid with step <= a/4."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must be in (0, 1)")
    centers = rho.cell_centers()
    live = sorted(rho.cells)
    vecs = centers[live]
    masses = np.array([rho.cells[i] for i in live])
    normals = _direction_grid(rho.d, a / 4.0)
    inner = np.abs(vecs @ normals.T)  # distance from the hyperplane
    near = inner <= a + _TOL
    return float((masses @ near).max())


def _failing_direction_mass(rho: DirectionMeasure, mu: DyadicMeasure, level: int,
                            fails) -> float:
    """rho-mass fraction of the cell directions theta for which
    fails(project_linear(mu, theta, level)) holds."""
    centers = rho.cell_centers()
    bad = 0.0
    total = 0.0
    for i in sorted(rho.cells):
        mass = rho.cells[i]
        total += mass
        theta = centers[i] / np.linalg.norm(centers[i])
        if fails(project_linear(mu, theta, level)):
            bad += mass
    return bad / total if total > 0 else 0.0


def adapted_audit(
    rho: DirectionMeasure,
    mu: DyadicMeasure,
    delta_level: int,
    s: float,
    eps: float,
) -> float:
    """rho-mass fraction of directions whose linear projection of mu fails
    the robustness check at exponent s - eps and threshold 2^{-eps * level}."""
    r = 2.0 ** (-eps * delta_level)
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
    conc = hyperplane_concentration(rho, a)
    if conc > b + _TOL:
        raise ValueError(
            f"hyperplane concentration {conc} exceeds budget {b}; hypothesis fails"
        )
    h_mu = mu.entropy(m)
    threshold = h_mu / mu.d - math.log2(1.0 / a) - fitted_constant
    bad_mass = _failing_direction_mass(rho, mu, m, lambda proj: proj.entropy(m) < threshold)
    return bad_mass, bad_mass <= b + _TOL
