import math

import numpy as np
import pytest

from dimlab import uniformize
from dimlab.dyadic import DyadicMeasure
from dimlab.uniformize import (
    branching_profile,
    decompose_uniform,
    extract_uniform,
    lift_to_class,
)
from dimlab.plf import PLFunction
from oracles import leaf_dict, random_measure


def test_extract_uniform_invariant_and_mass():
    rng = np.random.default_rng(0)
    d, T = 2, 2
    for _ in range(50):
        m = 8
        ell = m // T
        mu = random_measure(rng, d=d, m=m, n_leaves=int(rng.integers(5, 80)))
        piece = extract_uniform(mu, T)
        piece.check_invariant()  # exact two-sided ratio classes
        bound = (2 * d * T + 2) ** (-ell)
        assert piece.mass_retained >= bound
        assert len(piece.beta) == ell
        assert all(0.0 <= b <= d for b in piece.beta)
        assert abs(piece.measure.total_mass - 1.0) < 1e-9


def test_extract_uniform_rejects_bad_input():
    mu = DyadicMeasure(2, 8, {(0, 0): 2.0})
    with pytest.raises(ValueError):
        extract_uniform(mu, 2)  # not normalized
    with pytest.raises(ValueError):
        extract_uniform(mu.normalize(), 3)  # 8 % 3 != 0
    with pytest.raises(ValueError):
        extract_uniform(DyadicMeasure(2, 8, {}), 2)
    mu = random_measure(np.random.default_rng(5), d=2, m=8, n_leaves=30)
    for T in (0, -2, 2.0, "2"):
        with pytest.raises(ValueError):
            extract_uniform(mu, T)
        with pytest.raises(ValueError):
            decompose_uniform(mu, T, 0.2)
    for eps in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            decompose_uniform(mu, 2, eps)
    with pytest.raises(ValueError):
        decompose_uniform(mu, 3, 0.2)
    with pytest.raises(ValueError):
        decompose_uniform(DyadicMeasure(2, 8, {}), 2, 0.2)


def test_decomposition_groups_block_cubes_once(monkeypatch):
    """decompose_uniform groups the leaves by block-level cube once, ell
    calls in all; its pruning passes only bincount over those labels, and
    the other ell calls per piece are check_invariant's."""
    calls = []
    group_rows = uniformize._group_rows
    monkeypatch.setattr(uniformize, "_group_rows",
                        lambda keys: calls.append(len(keys)) or group_rows(keys))
    mu = random_measure(np.random.default_rng(6), d=2, m=8, n_leaves=300)
    pieces = decompose_uniform(mu, 2, 0.2)
    assert len(pieces) > 1
    assert calls[:4] == [len(mu.masses)] * 4
    assert len(calls) == 4 * (1 + len(pieces))


def test_box_count_sandwich():
    # |supp| at block level j sits between 2^{T sum beta} and 2^j 2^{T sum beta}
    rng = np.random.default_rng(1)
    T = 2
    for _ in range(30):
        mu = random_measure(rng, d=2, m=8, n_leaves=60)
        piece = extract_uniform(mu, T)
        for j in range(1, piece.ell + 1):
            count = piece.measure.box_count(j * T)
            base = 2.0 ** (T * sum(piece.beta[:j]))
            assert base * (1.0 - 1e-9) <= count <= (2.0 ** j) * base * (1.0 + 1e-9)


def test_decompose_uniform_residual_and_disjointness():
    rng = np.random.default_rng(2)
    for _ in range(20):
        mu = random_measure(rng, d=2, m=8, n_leaves=50)
        eps = 0.2
        pieces = decompose_uniform(mu, 2, eps)
        seen = set()
        covered = 0.0
        for p in pieces:
            keys = set(map(tuple, p.measure.coords.tolist()))
            assert not (keys & seen)
            seen |= keys
            covered += p.mass_retained
        residual = 1.0 - covered
        assert residual < 2.0 ** (-eps * mu.m) + 1e-9
        for p in pieces:
            p.check_invariant()


def test_uniform_piece_text_roundtrip_header():
    rng = np.random.default_rng(3)
    mu = random_measure(rng, d=2, m=4, n_leaves=10)
    piece = extract_uniform(mu, 2)
    text = piece.to_text()
    assert text.startswith("beta ")
    assert f"T {piece.T}" in text
    body = text.split("\n", 3)[3]
    back = DyadicMeasure.from_text(body)
    assert leaf_dict(back) == leaf_dict(piece.measure)


def test_branching_profile_shape():
    rng = np.random.default_rng(4)
    for _ in range(30):
        mu = random_measure(rng, d=2, m=8, n_leaves=40)
        piece = extract_uniform(mu, 2)
        f = branching_profile(piece)
        slopes = f.slopes()
        # slope on segment j is beta_j, bounded by the ambient dimension
        assert np.all(slopes >= -1e-12)
        assert np.all(slopes <= mu.d + 1e-12)
        assert float(f(1.0)) == pytest.approx(sum(piece.beta) / piece.ell)
        assert float(f(0.0)) == 0.0


def test_lift_to_class():
    f = PLFunction((0.0, 0.5, 1.0), (0.1, 0.6, 1.1))
    eps = 0.01  # cut at 0.4
    lifted = lift_to_class(f, 1.0, eps, 2.0)
    assert lifted.in_class(2.0, 1.0 - math.sqrt(eps))
    assert float(lifted(0.0)) == 0.0
    # a profile below the line fails with a witness
    g = PLFunction((0.0, 1.0), (0.0, 0.2))
    with pytest.raises(ValueError):
        lift_to_class(g, 1.0, eps, 2.0)
    with pytest.raises(ValueError):
        lift_to_class(f, 1.0, 0.1, 2.0)  # 4 sqrt(eps) > 1: no room for the chord
