import math

import numpy as np
import pytest

from dimlab.dyadic import DyadicMeasure
from dimlab.generators import gen_cantor_product
from dimlab.geometry import (
    DirectionMeasure,
    LineMeasure,
    _direction_grid,
    _heaviest_point,
    _tube_mass_grid,
    adapted_audit,
    entropy_projection_bound,
    hyperplane_concentration,
    pinned_distance,
    project_linear,
    project_radial,
    thin_tubes_profile,
    tube_mass_max,
    value_bins,
    value_box_count,
    value_entropy,
)
from oracles import random_measure, tube_mass_max_bruteforce


def test_value_binning_helpers():
    vals = np.array([0.1, 0.26, 0.26, 0.9])
    w = np.array([0.25, 0.25, 0.25, 0.25])
    assert value_bins(vals, 2).tolist() == [0, 1, 1, 3]
    assert value_box_count(vals, 2) == 3
    h = value_entropy(vals, w, 2)
    assert h == pytest.approx(-(0.25 * math.log2(0.25) * 2 + 0.5 * math.log2(0.5)))


def test_project_linear_mass_and_marginal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu = random_measure(rng, d=2, m=6, n_leaves=30)
        line = project_linear(mu, (1.0, 0.0), 6)
        assert abs(line.measure.total_mass - 1.0) < 1e-9
        # axis projection reproduces the x-marginal cell masses
        marg = {}
        for (x, _y), v in mu.leaves.items():
            marg[x] = marg.get(x, 0.0) + v
        assert len(line.measure.leaves) == len(marg)


def test_project_linear_requires_unit_vector():
    mu = random_measure(np.random.default_rng(1), d=2, m=4, n_leaves=5)
    with pytest.raises(ValueError):
        project_linear(mu, (1.0, 1.0), 4)


def test_project_radial_against_manual_binning():
    rng = np.random.default_rng(2)
    for _ in range(20):
        mu = random_measure(rng, d=2, m=8, n_leaves=40)
        y = (-0.7, 0.3)
        n = 64
        rho = project_radial(mu, y, n)
        assert abs(rho.total_mass - 1.0) < 1e-9
        manual = {}
        for key, v in mu.leaves.items():
            c = (np.array(key) + 0.5) * 2.0 ** (-8)
            ang = math.atan2(c[1] - y[1], c[0] - y[0]) % (2 * math.pi)
            i = min(int(ang / (2 * math.pi) * n), n - 1)
            manual[i] = manual.get(i, 0.0) + v
        assert set(rho.cells) == set(manual)
        for i in manual:
            assert abs(rho.cells[i] - manual[i]) < 1e-12


def test_pin_separation_enforced():
    mu = DyadicMeasure(2, 6, {(32, 32): 1.0})
    with pytest.raises(ValueError):
        pinned_distance(mu, (0.51, 0.51), 6)
    with pytest.raises(ValueError):
        project_radial(mu, (0.51, 0.51), 16)
    # well-separated pin is fine and conserves mass
    line = pinned_distance(mu, (0.0, 0.0), 6)
    assert abs(line.measure.total_mass - 1.0) < 1e-9


def test_sphere_lattice_covers():
    rho = DirectionMeasure(3, 200, {0: 1.0})
    pts = rho.cell_centers()
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
    # nearest-neighbor spacing below twice the nominal resolution
    d2 = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(d2, np.inf)
    assert d2.min(axis=1).max() < 2.0 * rho.resolution


def test_direction_measure_roundtrip_and_validation():
    rho = DirectionMeasure(2, 16, {0: 0.5, 3: 0.5})
    back = DirectionMeasure.from_text(rho.to_text())
    assert back.cells == rho.cells and back.n_cells == 16
    with pytest.raises(ValueError):
        DirectionMeasure.from_text("sphere 2 16\n0 0.5\n0 0.5\n")
    with pytest.raises(ValueError):
        DirectionMeasure(2, 8, {9: 1.0})
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            DirectionMeasure(2, 4, {0: bad, 1: 1.0})
    for text in ("", "sphere 2\n", "2 16\n0 1.0\n"):
        with pytest.raises(ValueError):
            DirectionMeasure.from_text(text)


def test_tube_mass_basics():
    # mass on a horizontal line: aligned tube catches everything
    mu = DyadicMeasure(2, 6, {(i, 32): 1.0 / 48 for i in range(8, 56)})
    mass, direction = tube_mass_max(mu, (-0.5, 0.5078125), 2 ** -4)
    assert mass == pytest.approx(1.0)
    assert abs(direction[0]) > 0.99
    # two rows at distance exactly r on both sides: only the closed slab
    # about the horizontal line holds them both
    rows = DyadicMeasure(2, 6, {(i, j): 1.0 / 96 for i in range(8, 56) for j in (28, 36)})
    mass, direction = tube_mass_max(rows, (-0.5, 0.5078125), 2 ** -4)
    assert mass == pytest.approx(1.0)
    assert abs(direction[0]) > 0.99
    with pytest.raises(ValueError):
        tube_mass_max(mu, (-0.5, 0.5), 2 ** -8)  # radius below grid scale
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="not finite"):
            tube_mass_max(mu, (-0.5, 0.5), bad)
    with pytest.raises(ValueError, match="coordinates"):
        tube_mass_max(mu, (-0.5,), 2 ** -4)
    with pytest.raises(ValueError, match="d = 2 or 3"):
        tube_mass_max(DyadicMeasure(1, 4, {(3,): 1.0}), (-0.5,), 2 ** -3)


def test_tube_sweep_matches_bruteforce_and_bounds_grid():
    rng = np.random.default_rng(5)
    for _ in range(30):
        mu = random_measure(rng, d=2, m=6, n_leaves=int(rng.integers(1, 60)))
        centers = mu.leaf_centers()
        leaf = centers[rng.integers(len(centers))]
        # outside the support, at the square's center, and within r of leaves
        pins = [(-0.5, 0.5), (1.25, -0.75), (0.5, 0.5), tuple(leaf),
                tuple(leaf + rng.uniform(-2 ** -5, 2 ** -5, 2))]
        for pin in pins:
            pts = centers - np.asarray(pin)
            sq = np.sum(pts * pts, axis=1)
            for r in (2 ** -6, 2 ** -4, 2 ** -2):
                mass, u = tube_mass_max(mu, pin, r)
                assert abs(mass - tube_mass_max_bruteforce(mu, pin, r)) <= 1e-12
                grid, _ = _tube_mass_grid(pts, mu.masses, r, _direction_grid(2, r / 4.0))
                assert grid <= mass + 1e-12
                # the returned direction's slab holds the returned mass
                slab = sq - (pts @ u) ** 2 <= r * r + 1e-9 + 1e-12
                assert abs(float(mu.masses[slab].sum()) - mass) <= 1e-12


def test_heaviest_point_closed_arcs_and_wrap():
    assert _heaviest_point(np.zeros(0), np.zeros(0), np.zeros(0)) == (0.0, 0.0)
    # closed arcs: two arcs that touch at 1.0 both hold that point
    assert _heaviest_point(np.array([0.5, 1.0]), np.array([1.0, 1.5]),
                           np.array([1.0, 2.0])) == (3.0, 1.0)
    # an arc past pi wraps to [0, 4 - pi], touching the arc that starts there
    start = 4.0 - math.pi
    assert start + math.pi == 4.0
    assert _heaviest_point(np.array([3.0, start]), np.array([4.0, start + 0.5]),
                           np.array([2.0, 4.0])) == (6.0, start)


def test_tube_mass_monotone_in_radius():
    rng = np.random.default_rng(3)
    mu = random_measure(rng, d=2, m=7, n_leaves=60)
    x = (-0.5, 0.5)
    masses = [tube_mass_max(mu, x, r)[0] for r in (2 ** -5, 2 ** -4, 2 ** -3)]
    assert masses[0] <= masses[1] + 1e-12 <= masses[2] + 2e-12
    assert masses[-1] <= 1.0 + 1e-12


def test_thin_tubes_profile_contract():
    mu = gen_cantor_product(0.25, 2, 8)
    from dimlab.experiment import split_separated

    mu_half, nu_half = split_separated(mu.normalize())
    radii = [2 ** -6, 2 ** -5, 2 ** -4]
    profiles = thin_tubes_profile(mu_half, nu_half, radii, n_pins=4)
    assert profiles
    for p in profiles:
        assert p.t >= 0.0 and p.K > 0.0 and p.c == 1.0
        rs = [r for r, _ in p.table]
        ms = [m for _, m in p.table]
        assert rs == sorted(rs)
        assert all(b >= a - 1e-12 for a, b in zip(ms, ms[1:]))  # mass grows with r
    # separation contract: huge radii must be rejected
    with pytest.raises(ValueError):
        thin_tubes_profile(mu_half, nu_half, [0.25, 0.5], n_pins=2)
    for n_pins in (0, -3):
        with pytest.raises(ValueError, match="at least one pin"):
            thin_tubes_profile(mu_half, nu_half, radii, n_pins=n_pins)
    with pytest.raises(ValueError, match="distinct"):
        thin_tubes_profile(mu_half, nu_half, [2 ** -5, 2 ** -5], n_pins=4)
    with pytest.raises(ValueError, match="dimension"):
        thin_tubes_profile(mu_half, gen_cantor_product(0.25, 3, 4), radii, n_pins=4)


def test_hyperplane_concentration_uniform_vs_atom():
    n = 256
    uniform = DirectionMeasure(2, n, {i: 1.0 / n for i in range(n)})
    a = 0.1
    conc = hyperplane_concentration(uniform, a)
    # the a-slab around a line cuts four arcs of angular width ~ a each
    assert conc <= 4.5 * a
    atom = DirectionMeasure(2, n, {0: 1.0})
    assert hyperplane_concentration(atom, 0.1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        hyperplane_concentration(uniform, 1.5)


def test_adapted_audit_lebesgue_is_clean():
    # uniform directions + Lebesgue square: no failing directions at s = 0.9
    n = 64
    rho = DirectionMeasure(2, n, {i: 1.0 / n for i in range(n)})
    mu = DyadicMeasure(
        2, 8, {(i, j): 2.0 ** -16 for i in range(0, 256, 4) for j in range(0, 256, 4)}
    ).normalize()
    frac = adapted_audit(rho, mu, 8, 0.9, 0.1)
    assert frac == 0.0


def test_entropy_projection_bound_hypothesis_checked():
    n = 64
    rho = DirectionMeasure(2, n, {0: 1.0})
    mu = random_measure(np.random.default_rng(4), d=2, m=8, n_leaves=100)
    with pytest.raises(ValueError):
        # a point mass on the sphere concentrates on every hyperplane slab
        entropy_projection_bound(rho, mu, 8, 0.1, 0.05, 4.0)
    uniform = DirectionMeasure(2, n, {i: 1.0 / n for i in range(n)})
    bad, ok = entropy_projection_bound(uniform, mu, 8, 0.2, 0.5, 4.0)
    assert 0.0 <= bad <= 1.0


def test_line_measure_serialization():
    lm = LineMeasure(DyadicMeasure(1, 3, {(2,): 1.0}), 0.0, 2.0)
    text = lm.to_text()
    assert text.startswith("range ")
    with pytest.raises(ValueError):
        LineMeasure(DyadicMeasure(1, 3, {(2,): 1.0}), 1.0, 1.0)
