"""Deterministic fractal measure generators aligned to the dyadic grid.

Every generator emits exact leaf masses (no sampling), so Frostman fits and
box counts over aligned scale windows match closed forms.

The product generators (Cantor products, lattice sets, train tracks, A x A
products) restrict base-2^k digits.  Each 1-d factor is an offset plus digit
blocks: a block (shift, bits, full) is one digit's bits above 2^-depth, as
the integer bits shift .. shift + bits - 1 of a level-depth cell, and takes
every value (full) or only all zeros and all ones.  So a factor's size is
known before any cell exists, and `_product` checks the leaf budget first.
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


def _dyadic_log(r: float) -> int:
    """k with r = 2^{-k} to a relative 1e-12, or raise."""
    k = round(-math.log2(r)) if math.isfinite(r) and r > 0.0 else 0
    if k < 1 or abs(math.ldexp(r, k) - 1.0) > 1e-12:
        raise ValueError(f"ratio {r} is not of the form 2^-k")
    return k


def _digits(k: int, depth: int, gens, full: bool) -> list[tuple[int, int, bool]]:
    """The blocks of the base-2^k digits of generations `gens` (1 is the top
    digit, none past ceil(depth / k)), each cut to its bits above 2^-depth,
    of which it keeps at least one."""
    return [(max(0, depth - k * g), min(k, depth - k * (g - 1)), full) for g in gens]


def _cantor(k: int, depth: int) -> tuple[int, list]:
    """Two-branch self-similar set with contraction 2^{-k}: every digit all
    zeros or all ones, uniform mass (k = 1 is Lebesgue measure)."""
    return 0, _digits(k, depth, range(1, math.ceil(depth / k) + 1), False)


def _cells(factor: tuple[int, list]) -> np.ndarray:
    """The sorted distinct int64 cells of a factor (offset, blocks), blocks
    listed top digit first: the offset plus one value of each block."""
    offset, blocks = factor
    cells = np.full(1, offset, dtype=np.int64)
    for shift, bits, full in blocks:
        values = (np.arange(1 << bits, dtype=np.int64) if full
                  else np.array([0, (1 << bits) - 1], dtype=np.int64))
        cells = (cells[:, None] + (values << shift)).ravel()
    return cells


def _product(factors: list[tuple[int, list]], depth: int) -> DyadicMeasure:
    """Product of 1-d factors (offset, blocks) with equal masses, of at most
    _LEAF_BUDGET leaves, checked before any array exists.  Earlier factors
    vary slowest, so the rows come out in lexicographic order."""
    d = len(factors)
    _check_shape(d, depth)
    sizes = [math.prod(1 << bits if full else 2 for _, bits, full in blocks)
             for _, blocks in factors]
    n = math.prod(sizes)
    if n > _LEAF_BUDGET:
        raise ValueError(f"the product has {n:,} leaves, more than the leaf budget of "
                         f"{_LEAF_BUDGET:,}")
    coords = np.empty((n, d), dtype=np.int64)
    for i, factor in enumerate(factors):
        # rows indexed (earlier factors, this factor's cell, later factors)
        rows = coords.reshape(math.prod(sizes[:i]), sizes[i], math.prod(sizes[i + 1:]), d)
        rows[..., i] = _cells(factor)[:, None]
    return DyadicMeasure._from_arrays(d, depth, coords, np.full(n, 1.0 / n))


def gen_cantor_product(r: float, d: int, depth: int) -> DyadicMeasure:
    """Product of d copies of the two-branch Cantor measure with ratio r.

    r = 2^{-k} aligns the construction with the dyadic grid; each factor has
    exact similarity dimension 1/k (r = 1/2 degenerates to Lebesgue).
    """
    return _product([_cantor(_dyadic_log(r), depth)] * d, depth)


def gen_lattice_falconer(q: int, d: int, depth: int) -> DyadicMeasure:
    """Lattice-block construction: base-q expansions with alternate digit
    blocks zeroed, dimension d/2.  At the construction scales q^{-g} the
    distance set clusters near lattice values; the anomaly is a measured
    output, not an invariant."""
    p = int(q).bit_length() - 1
    if q < 2 or (1 << p) != q:
        raise ValueError(f"q must be a power of 2, got {q}")
    # q = 2 degenerates: single-bit blocks leave no room for a zero block
    # pattern at alternate generations below depth 2; emit the full uniform
    # measure (the ratio-1/2 Cantor factor).  Otherwise the odd generations'
    # digits are free and the even ones zero.
    factor = _cantor(1, depth) if q == 2 else (
        0, _digits(p, depth, range(1, math.ceil(depth / p) + 1, 2), True))
    return _product([factor] * d, depth)


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
    rows = (0, [(depth - delta_level, delta_level // 2, True)])
    return _product([_cantor(2, depth), rows], depth)


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
        f = _cantor(_dyadic_log(_finite("parameter 'r'", params.get("r", 0.25))), depth)
    elif kind == "lebesgue":
        f = _cantor(1, depth)
    elif kind == "point":
        x = _finite("parameter 'x'", params.get("x", 0.0))
        if not (0.0 <= x <= 1.0):
            raise ValueError(f"point x = {x} outside [0, 1]")
        top = 1 << depth
        f = (min(int(x * top), top - 1), [])
    else:
        raise ValueError(f"unknown 1-d generator kind {kind!r}")
    return _product([f, f], depth)
