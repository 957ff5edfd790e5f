"""Deterministic fractal measure generators aligned to the dyadic grid.

Every generator emits exact leaf masses (no sampling), so Frostman fits and
box counts over aligned scale windows match closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from .dyadic import DyadicMeasure, _check_shape, _finite, _sum_by_key

__all__ = [
    "gen_cantor_product",
    "gen_lattice_falconer",
    "gen_train_track",
    "gen_circle_pair",
    "gen_product_set",
]


# most leaves a product measure may have: twice the depth-20 cantor scene
_LEAF_BUDGET = 1 << 21


def _dyadic_log(r: float, depth: int) -> int:
    """k with r = 2^{-k} to a relative 1e-12, or raise; k is bounded so that
    `_cantor_1d(k, depth)`'s points, integers below 2^{k ceil(depth/k)}, fit
    in int64."""
    k = round(-math.log2(r)) if math.isfinite(r) and r > 0.0 else 0
    if k < 1 or abs(math.ldexp(r, k) - 1.0) > 1e-12:
        raise ValueError(f"ratio {r} is not of the form 2^-k")
    if k * max(1, math.ceil(depth / k)) > 63:
        raise ValueError(f"ratio {r} = 2^-{k} is too fine for depth {depth}: its points "
                         f"need more than 63 bits")
    return k


def _cantor_1d(k: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-branch self-similar set with contraction 2^{-k}: keep the first
    and last subinterval of length r in each parent, uniform mass."""
    gens = max(1, math.ceil(depth / k))
    # left endpoints as integers at scale 2^{-k*gens}, then truncated to depth
    pts = np.zeros(1, dtype=np.int64)
    step_bits = k * gens
    for g in range(1, gens + 1):
        # offset of the right branch at generation g: (1 - 2^{-k}) * 2^{-k(g-1)}
        off = ((1 << k) - 1) << (step_bits - k * g)
        pts = np.concatenate([pts, pts + off])
    return _uniform_1d(pts, step_bits, depth)


def _uniform_1d(pts: np.ndarray, step_bits: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal masses on integer points at scale 2^{-step_bits}, binned to the
    coarser level-`depth` grid (step_bits >= depth)."""
    cells, masses = _sum_by_key((pts >> (step_bits - depth))[:, None],
                                np.full(len(pts), 1.0 / len(pts)))
    return cells[:, 0], masses


def _product(factors: list[tuple[np.ndarray, np.ndarray]], depth: int) -> DyadicMeasure:
    """Product of 1-d factors, each a pair (sorted distinct int64 cells at
    `depth`, their masses), of at most _LEAF_BUDGET leaves (checked first).
    Earlier factors vary slowest, so the rows come out in lexicographic order."""
    d = len(factors)
    _check_shape(d, depth)
    sizes = [len(cells) for cells, _ in factors]
    n = math.prod(sizes)
    if n > _LEAF_BUDGET:
        raise ValueError(f"the product has {n:,} leaves, more than the leaf budget of "
                         f"{_LEAF_BUDGET:,}")
    coords = np.empty((n, d), dtype=np.int64)
    masses = np.ones(1)
    for i, (cells, w) in enumerate(factors):
        # rows indexed (earlier factors, this factor's cell, later factors)
        rows = coords.reshape(math.prod(sizes[:i]), sizes[i], math.prod(sizes[i + 1:]), d)
        rows[..., i] = cells[:, None]
        masses = np.outer(masses, w).ravel()
    return DyadicMeasure._from_arrays(d, depth, coords, masses)


def gen_cantor_product(r: float, d: int, depth: int) -> DyadicMeasure:
    """Product of d copies of the two-branch Cantor measure with ratio r.

    r = 2^{-k} aligns the construction with the dyadic grid; each factor has
    exact similarity dimension 1/k (r = 1/2 degenerates to Lebesgue).
    """
    return _product([_cantor_1d(_dyadic_log(r, depth), depth)] * d, depth)


def _lattice_1d(p: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Base-q digits (q = 2^p) with every even-position digit forced to zero:
    a lattice-aligned set of dimension 1/2, on the level-`depth` grid.  Only
    the bits above 2^-depth are made: the free digit block of generation g
    (odd g) keeps its top min(p, depth - p(g - 1)) bits, so the cells are
    distinct and of equal mass."""
    blocks = [(min(p, depth - p * (g - 1)), max(0, depth - p * g))  # (bits, shift)
              for g in range(1, math.ceil(depth / p) + 1, 2)]
    n = 1 << sum(bits for bits, _ in blocks)
    if n > _LEAF_BUDGET:
        raise ValueError(f"the 1-d factor has {n:,} cells, more than the leaf budget of "
                         f"{_LEAF_BUDGET:,}")
    pts = np.zeros(1, dtype=np.int64)
    for bits, shift in blocks:
        offs = np.arange(1 << bits, dtype=np.int64) << shift
        pts = (pts[:, None] + offs[None, :]).ravel()
    return pts, np.full(n, 1.0 / n)


def gen_lattice_falconer(q: int, d: int, depth: int) -> DyadicMeasure:
    """Lattice-block construction: base-q expansions with alternate digit
    blocks zeroed, dimension d/2.  At the construction scales q^{-g} the
    distance set clusters near lattice values; the anomaly is a measured
    output, not an invariant."""
    p = int(q).bit_length() - 1
    if q < 2 or (1 << p) != q:
        raise ValueError(f"q must be a power of 2, got {q}")
    if q == 2:
        # degenerate: single-bit blocks leave no room for a zero block pattern
        # at alternate generations below depth 2; emit the full uniform
        # measure (the ratio-1/2 Cantor factor)
        return _product([_cantor_1d(1, depth)] * d, depth)
    return _product([_lattice_1d(p, depth)] * d, depth)


def gen_train_track(delta_level: int, depth: int) -> DyadicMeasure:
    """Parallel horizontal tracks: about 2^{delta_level/2} rows spaced
    2^{-delta_level} apart (a band of height ~ 2^{-delta_level/2}), each
    carrying the 1/4-Cantor measure along x.

    Pinned distances from a far pin look one-scale degenerate at the track
    scale 2^{-delta_level} but spread out at finer scales.
    """
    if delta_level % 2 != 0:
        raise ValueError("delta_level must be even")
    if not (0 < delta_level < depth):
        raise ValueError("need 0 < delta_level < depth")
    n_tracks = 1 << (delta_level // 2)
    rows = np.arange(n_tracks, dtype=np.int64) << (depth - delta_level)
    return _product([_cantor_1d(2, depth), (rows, np.full(n_tracks, 1.0) / n_tracks)], depth)


def gen_circle_pair(depth: int, radius: float = 0.25) -> DyadicMeasure:
    """Arc-length measure on two opposite quarter-circle arcs of the circle
    about (1/2, 1/2).

    A smooth curve of dimension 1 whose two components are separated in x,
    so the standard split-and-project pipeline applies; used as a
    calibration scene where every projection-type exponent is known."""
    if not (0.0 < radius < 0.5):
        raise ValueError(f"radius {radius} outside (0, 1/2): the arcs leave the unit square")
    n = 4 << min(depth, 16)
    ts = (np.arange(n) + 0.5) / n
    # two arcs of half-width pi/4 centered at angles 0 and pi
    half_width = math.pi / 4.0
    ang = np.where(ts < 0.5, (4 * ts - 1) * half_width,
                   math.pi + (4 * (ts - 0.5) - 1) * half_width)
    pts = 0.5 + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    top = 1 << depth
    keys = np.minimum((pts * top).astype(np.int64), top - 1)
    return DyadicMeasure._from_arrays(2, depth, *_sum_by_key(keys, np.full(n, 1.0 / n)))


def gen_product_set(A_spec: dict, depth: int) -> DyadicMeasure:
    """Square product A x A of a 1-d generator given as {kind, params}."""
    kind = A_spec.get("kind")
    params = A_spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"params of the 1-d generator must be an object, not {params!r}")
    if kind == "cantor":
        f = _cantor_1d(_dyadic_log(_finite("parameter 'r'", params.get("r", 0.25)), depth), depth)
    elif kind == "lebesgue":
        f = _cantor_1d(1, depth)
    elif kind == "point":
        x = _finite("parameter 'x'", params.get("x", 0.0))
        if not (0.0 <= x <= 1.0):
            raise ValueError(f"point x = {x} outside [0, 1]")
        top = 1 << depth
        f = (np.array([min(int(x * top), top - 1)], dtype=np.int64), np.ones(1))
    else:
        raise ValueError(f"unknown 1-d generator kind {kind!r}")
    return _product([f, f], depth)
