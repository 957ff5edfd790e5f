import math

import numpy as np
import pytest

from dimlab.generators import (
    _LEAF_BUDGET,
    gen_cantor_product,
    gen_circle_pair,
    gen_lattice_falconer,
    gen_product_set,
    gen_train_track,
)
from oracles import cantor_1d_reference, lattice_1d_reference, product_reference


def test_cantor_product_exponents():
    mu = gen_cantor_product(0.25, 2, 12)
    assert abs(mu.total_mass - 1.0) < 1e-9
    fit = mu.frostman_fit((2, 10))
    assert abs(fit.s - 1.0) < 0.05
    mu1 = gen_cantor_product(0.25, 1, 12)
    assert abs(mu1.frostman_fit((2, 10)).s - 0.5) < 0.05
    # exact masses at aligned levels: 2^{-j} per generation-j cube, d=1
    for g in (1, 2, 3):
        cells = mu1.level_masses(2 * g)
        assert len(cells) == 2 ** g
        for v in cells.values():
            assert abs(v - 2.0 ** -g) < 1e-12


def test_cantor_half_is_lebesgue():
    mu = gen_cantor_product(0.5, 1, 6)
    assert len(mu.masses) == 64
    assert all(abs(v - 1.0 / 64) < 1e-12 for v in mu.masses)


def test_cantor_rejects_non_dyadic_ratio():
    with pytest.raises(ValueError):
        gen_cantor_product(0.3, 2, 8)
    with pytest.raises(ValueError):
        gen_cantor_product(0.25, 4, 8)
    # within 1e-12 of 2^-43 in absolute terms, but 12% off it
    with pytest.raises(ValueError, match="ratio 1e-13 is not of the form 2"):
        gen_cantor_product(1e-13, 2, 8)
    # any ratio 2^-k builds: at depth 8 a digit of 2^-63 or 2^-64 keeps its
    # top 8 bits
    assert len(gen_cantor_product(2.0 ** -63, 2, 8).masses) == 4
    assert len(gen_cantor_product(2.0 ** -64, 2, 8).masses) == 4


def test_cantor_factor_equals_full_construction():
    """The Cantor factor has the cells and masses, byte for byte, of all its
    points made in full and binned to depth, for every ratio 2^-k
    (k = 1-64) and depth whose full construction has at most 2^12 points,
    and so has every product of it of at most 2^12 leaves."""
    checked = 0
    for k in range(1, 65):
        for depth in range(1, 41):
            if math.ceil(depth / k) > 12:
                continue
            want = cantor_1d_reference(k, depth)
            mu = gen_cantor_product(2.0 ** -k, 1, depth)
            assert [mu.coords[:, 0].tobytes(), mu.masses.tobytes()] == \
                [a.tobytes() for a in want], (k, depth)
            checked += 1
            for d in (2, 3):
                if len(want[0]) ** d <= 1 << 12:
                    mu = gen_cantor_product(2.0 ** -k, d, depth)
                    ref = product_reference(want, d)
                    assert mu.coords.tobytes() == ref[0].tobytes()
                    assert mu.masses.tobytes() == ref[1].tobytes()
    assert checked > 2000


def test_lattice_falconer_aligned_exponent():
    mu = gen_lattice_falconer(4, 2, 12)
    assert abs(mu.total_mass - 1.0) < 1e-9
    # aligned block levels are multiples of 2p = 4: slope there is d/2
    m4 = max(mu.level_masses(4).values())
    m8 = max(mu.level_masses(8).values())
    slope = (math.log2(m4) - math.log2(m8)) / 4.0
    assert abs(slope - 1.0) < 0.05
    with pytest.raises(ValueError):
        gen_lattice_falconer(3, 2, 8)
    # q = 2 degenerates to the full uniform measure
    full = gen_lattice_falconer(2, 1, 4)
    assert len(full.masses) == 16


def test_lattice_factor_makes_only_the_cells_at_depth():
    """The lattice factor has the cells and masses, byte for byte, of its
    full digit blocks binned to depth, for every q = 2^p and depth whose
    full blocks hold at most 2^16 points, and so has every product of it;
    q = 2^22 at depth 8, whose full block of 4,194,304 points is over the
    leaf budget, has its 256 cells, and a product over the budget is
    rejected before its cells exist."""
    checked = 0
    for p in range(2, 23):
        for depth in range(1, 41):
            if p * math.ceil(math.ceil(depth / p) / 2) > 16:
                continue
            want = lattice_1d_reference(p, depth)
            mu = gen_lattice_falconer(1 << p, 1, depth)
            assert [mu.coords[:, 0].tobytes(), mu.masses.tobytes()] == \
                [a.tobytes() for a in want], (p, depth)
            checked += 1
            for d in (1, 2, 3):
                if len(want[0]) ** d <= 1 << 12:
                    mu = gen_lattice_falconer(1 << p, d, depth)
                    ref = product_reference(want, d)
                    assert mu.coords.tobytes() == ref[0].tobytes()
                    assert mu.masses.tobytes() == ref[1].tobytes()
    assert checked > 300
    mu = gen_lattice_falconer(1 << 22, 2, 8)
    assert len(mu.masses) == 256 ** 2 and mu.masses.min() == mu.masses.max() == 2.0 ** -16
    assert gen_lattice_falconer(1 << 22, 1, 8).coords[:, 0].tolist() == list(range(256))
    assert len(gen_lattice_falconer(1 << 22, 1, 21).masses) == _LEAF_BUDGET
    with pytest.raises(ValueError, match="the product has 4,194,304 leaves, more than the leaf "
                                         "budget"):
        gen_lattice_falconer(1 << 22, 1, 22)


def test_train_track_geometry():
    delta, depth = 6, 12
    mu = gen_train_track(delta, depth)
    ys = sorted(set(mu.coords[:, 1].tolist()))
    assert len(ys) == 2 ** (delta // 2)
    # rows spaced 2^{-delta} apart, starting at 0
    step = 1 << (depth - delta)
    assert ys == [k * step for k in range(len(ys))]
    with pytest.raises(ValueError):
        gen_train_track(5, 12)
    with pytest.raises(ValueError):
        gen_train_track(12, 12)


def test_circle_pair_two_components():
    mu = gen_circle_pair(8)
    xs = mu.leaf_centers()[:, 0]
    assert xs.max() > 0.7 and xs.min() < 0.3
    # x-gap between the two arcs
    mid = np.sort(xs)
    gaps = np.diff(mid)
    assert gaps.max() > 0.2
    assert abs(mu.total_mass - 1.0) < 1e-9


def test_product_set():
    mu = gen_product_set({"kind": "cantor", "params": {"r": 0.25}}, 10)
    assert abs(mu.frostman_fit((2, 8)).s - 1.0) < 0.05
    leb = gen_product_set({"kind": "lebesgue"}, 4)
    assert len(leb.masses) == 256
    pt = gen_product_set({"kind": "point", "params": {"x": 0.3}}, 6)
    assert len(pt.masses) == 1
    with pytest.raises(ValueError):
        gen_product_set({"kind": "nope"}, 6)


def test_generators_give_equal_masses_but_circle_pair():
    """Cantor products, lattice sets, train tracks and product sets carry
    equal leaf masses; the circle pair does not."""
    for mu in (gen_cantor_product(0.25, 2, 8), gen_cantor_product(0.25, 1, 10),
               gen_lattice_falconer(4, 2, 8), gen_train_track(4, 10),
               gen_product_set({"kind": "cantor", "params": {"r": 0.25}}, 8),
               gen_product_set({"kind": "lebesgue"}, 5), gen_product_set({"kind": "point"}, 5)):
        assert mu.masses.min() == mu.masses.max()
        assert mu.total_mass == math.fsum(mu.masses.tolist())
        nu = mu.normalize()
        assert nu.masses.min() == nu.masses.max()
    mu = gen_circle_pair(10)
    assert mu.masses.min() < mu.masses.max()
