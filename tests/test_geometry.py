import math
import tracemalloc

import numpy as np
import pytest

from dimlab.dyadic import DyadicMeasure
from dimlab.experiment import _split_gap, split_separated
from dimlab.generators import gen_cantor_product, gen_circle_pair
from dimlab.geometry import (
    _DIRECTION_CHUNK,
    DirectionMeasure,
    _hemisphere_blocks,
    _sphere_lattice,
    LineMeasure,
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
    value_box_counts,
    value_entropy,
)
from oracles import (
    heaviest_point_reference,
    hyperplane_concentration_bruteforce,
    hyperplane_concentration_grid,
    leaf_dict,
    planar_direction_grid,
    random_measure,
    tube_mass_max_bruteforce,
    value_box_count_reference,
    value_box_counts_shift_reference,
)


def test_value_binning_helpers():
    vals = np.array([0.1, 0.26, 0.26, 0.9])
    w = np.array([0.25, 0.25, 0.25, 0.25])
    assert value_bins(vals, 2).tolist() == [0, 1, 1, 3]
    assert value_box_count(vals, 2) == 3
    h = value_entropy(vals, w, 2)
    assert h == pytest.approx(-(0.25 * math.log2(0.25) * 2 + 0.5 * math.log2(0.5)))


def test_value_box_counts_match_unique_oracle():
    rng = np.random.default_rng(7)
    levels = list(range(0, 18))
    cases = [rng.uniform(0.0, 1.5, int(rng.integers(1, 400))) for _ in range(20)]
    # every value on a dyadic boundary k/2^j, repeated values, one element
    cases += [np.arange(64) / 2.0 ** 5, np.repeat(rng.uniform(0.0, 1.0, 7), 5),
              np.array([0.25, 0.25, 0.25]), np.array([0.7]), np.array([0.0]),
              rng.permutation(np.concatenate([np.arange(33) / 32.0, np.arange(17) / 16.0]))]
    for vals in cases:
        assert value_box_counts(vals, levels) == [
            value_box_count_reference(vals, j) for j in levels]
        assert value_box_counts(vals, [0]) == [value_box_count_reference(vals, 0)]
        # unsorted and repeated levels, as acceptance 09 passes [delta] + levels
        mixed = [8, 3, 17, 0, 8, 12]
        assert value_box_counts(vals, mixed) == [
            value_box_count_reference(vals, j) for j in mixed]
    assert value_box_counts(np.zeros(0), levels) == [0] * len(levels)
    assert value_box_count_reference(np.zeros(0), 3) == 0
    assert value_box_counts(np.array([0.5]), []) == []


def test_value_box_counts_equal_the_per_level_loop():
    """One sort of the sorted cells' neighbour XORs gives the per-level
    loop's counts: on negative and positive values, ties, values on dyadic
    boundaries, unsorted and repeated levels, negative levels, and shifts
    of 63 and more, where only the sign bit is left."""
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(0, 300))
        vals = rng.uniform(-2.0, 2.0, n) * 2.0 ** rng.integers(-8, 4)
        if n and rng.random() < 0.5:  # ties and dyadic points
            vals = np.concatenate([vals, rng.choice(vals, n), rng.integers(-64, 64, n) / 32.0])
        top = int(rng.integers(0, 56))
        levels = [int(j) for j in rng.integers(-12, top + 1, int(rng.integers(0, 12)))]
        levels += [top] * (rng.random() < 0.5)
        assert value_box_counts(vals, levels) == value_box_counts_shift_reference(vals, levels)
    # cells past 2^62 at level 62, where a shift of 63 leaves only the sign
    vals = rng.uniform(-1.99, 1.99, 1000)
    for levels in ([62, 0, -1, -3], [61, -5, -2, 0, 61], [40, 30], [62, 1]):
        assert value_box_counts(vals, levels) == value_box_counts_shift_reference(vals, levels)
    assert value_box_counts(vals, [62, -1, 1]) == [1000, 2, 8]


def test_project_linear_mass_and_marginal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu = random_measure(rng, d=2, m=6, n_leaves=30)
        line = project_linear(mu, (1.0, 0.0), 6)
        assert abs(line.measure.total_mass - 1.0) < 1e-9
        # axis projection reproduces the x-marginal cell masses
        marg = {}
        for (x, _y), v in leaf_dict(mu).items():
            marg[x] = marg.get(x, 0.0) + v
        assert len(line.measure.masses) == len(marg)


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
        for key, v in leaf_dict(mu).items():
            c = (np.array(key) + 0.5) * 2.0 ** (-8)
            ang = math.atan2(c[1] - y[1], c[0] - y[0]) % (2 * math.pi)
            i = min(int(ang / (2 * math.pi) * n), n - 1)
            manual[i] = manual.get(i, 0.0) + v
        assert rho.index.tolist() == sorted(manual)
        for i, m in zip(rho.index.tolist(), rho.masses.tolist()):
            assert abs(m - manual[i]) < 1e-12


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
    rho = DirectionMeasure(3, 200, np.arange(200), np.ones(200))
    pts = rho.cell_centers()
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
    # nearest-neighbor spacing below twice the nominal resolution
    d2 = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(d2, np.inf)
    assert d2.min(axis=1).max() < 2.0 * rho.resolution


def test_cell_centers_are_the_live_rows():
    """cell_centers gives the centers of the cells that carry mass, row for
    row with index, with the bits of those rows of all cells' centers."""
    rng = np.random.default_rng(19)
    for d in (2, 3):
        for n in (2, 1000, 100_003):
            index = np.unique(np.concatenate([[0, n - 1], rng.integers(0, n, 50)]))
            rho = DirectionMeasure(d, n, index, rng.uniform(0.5, 1.5, len(index)))
            whole = DirectionMeasure(d, n, np.arange(n), np.ones(n)).cell_centers()
            assert rho.cell_centers().tobytes() == whole[index].tobytes()


def test_direction_audits_hold_only_the_live_cells():
    """Both audits of a one-cell `sphere 3 N` measure build the center of
    its one cell, not one per declared cell: at N = 10^6 the N centers
    were about 72 MB traced."""
    rho = DirectionMeasure(3, 10 ** 6, [123_457], [1.0])
    mu = gen_cantor_product(0.25, 3, 4)
    for audit in (lambda: hyperplane_concentration(rho, 0.5),
                  lambda: adapted_audit(rho, mu, 4, 0.5, 0.1)):
        _, peak = _peak_bytes(audit)
        assert peak < 1e6, peak


def test_direction_measure_roundtrip_and_validation():
    rho = DirectionMeasure(2, 16, [0, 3], [0.5, 0.5])
    back = DirectionMeasure.from_text(rho.to_text())
    assert back.index.tolist() == rho.index.tolist() and back.n_cells == 16
    assert back.masses.tolist() == rho.masses.tolist()
    assert DirectionMeasure(2, 16, [3, 0], [0.25, 0.75]).index.tolist() == [0, 3]
    with pytest.raises(ValueError):
        rho.masses[0] = 1.0  # read-only
    for index, masses in (([], []), ([0, 3], [0.0, 0.0])):
        with pytest.raises(ValueError, match="no mass"):
            DirectionMeasure(2, 16, index, masses)
    with pytest.raises(ValueError, match="no mass"):
        DirectionMeasure.from_text("sphere 2 16\n")
    with pytest.raises(ValueError):
        DirectionMeasure.from_text("sphere 2 16\n0 0.5\n0 0.5\n")
    with pytest.raises(ValueError):
        DirectionMeasure(2, 8, [9], [1.0])
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            DirectionMeasure(2, 4, [0, 1], [bad, 1.0])
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
    # an empty measure has no heavy tube in either dimension
    assert tube_mass_max(DyadicMeasure(2, 4, {}), (-0.5, 0.5), 2 ** -2)[0] == 0.0
    assert tube_mass_max(DyadicMeasure(3, 4, {}), (-0.5, 0.5, 0.5), 2 ** -2)[0] == 0.0


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
                dirs = planar_direction_grid(r / 4.0)
                blocks = np.array_split(dirs, range(_DIRECTION_CHUNK, len(dirs), _DIRECTION_CHUNK))
                grid, _ = _tube_mass_grid(pts, sq, mu.masses, r, blocks)
                assert grid <= mass + 1e-12
                # the returned direction's slab holds the returned mass
                slab = sq - (pts @ u) ** 2 <= r * r + 1e-9 + 1e-12
                assert abs(float(mu.masses[slab].sum()) - mass) <= 1e-12


def test_profile_tables_match_tube_mass_max():
    """thin_tubes_profile shares each pin's offsets and angles across its
    radii; every table entry still equals tube_mass_max at that pin and
    radius, in d = 2 (the cantor16 scene) and d = 3."""
    scenes = [(gen_cantor_product(0.25, 2, 16), [2 ** -6, 2 ** -5, 2 ** -4, 2 ** -3], 8),
              (gen_cantor_product(0.25, 3, 4), [2 ** -4, 2 ** -3], 4)]
    for mu, radii, n_pins in scenes:
        mu_half, nu_half = split_separated(mu.normalize())
        profiles = thin_tubes_profile(mu_half, nu_half, radii, n_pins=n_pins)
        assert len(profiles) == n_pins
        for pr in profiles:
            assert pr.table == [(r, tube_mass_max(nu_half, pr.pin, r)[0]) for r in radii]


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
    assert _heaviest_point(np.array([3.0, start]), np.array([4.0, start + 0.5]),
                           np.full(2, 0.5)) == (1.0, start)


def _same_bits(got, want):
    return [x.hex() for x in got] == [x.hex() for x in want]


def _arc_edge_cases(rng):
    """Arcs at the sweep's edges, for n = 1, 2, 3 up to 4099 arcs and
    B a power of two near n/4: starts and ends at k pi / B and their
    neighbours (tied starts, tied ends, starts equal to ends), long arcs,
    ends at another start plus pi (wrapped ends that meet starts), arcs of
    width fl(pi) and just short of it, all-equal arcs, and evenly spread
    arcs of one width, where every start holds the maximum."""
    pi = math.pi
    cases = []
    for n in (1, 2, 3, 5, 8, 17, 64, 300, 1000, 4099):
        nb = 1 << max(0, (n >> 2).bit_length() - 1)
        edges = rng.integers(0, 2 * nb, (2, n)) * (pi / nb)
        edges = np.nextafter(edges, edges + rng.integers(-1, 2, (2, n)))
        start = np.mod(np.abs(edges[0]), pi)
        cases.append((start, np.clip(edges[1], start, start + pi)))
        start = rng.uniform(0.0, pi, n)
        cases.append((start, start + rng.uniform(0.5, 1.0, n) * pi))
        cases.append((start, np.minimum(start, start[rng.permutation(n)]) + pi))
        cases.append((start, start + np.full(n, pi)))
        cases.append((np.full(n, start[0]), np.full(n, start[0] + 1.0)))
        # all-equal arcs just short of width pi whose end, scaled by B / pi,
        # lands B + 1 past the start's: rounding moves the end across k pi / B
        near = np.nextafter(np.arange(1, 2 * nb) * (pi / (2 * nb)), [[0.0], [4.0]]) % pi
        ends = np.nextafter(near + pi, 0.0)
        slack = (ends * (nb / pi)).astype(int) - (near * (nb / pi)).astype(int) - nb
        for s0, e0 in zip(near[slack != 0][:4], ends[slack != 0][:4]):
            cases.append((np.full(n, s0), np.full(n, e0)))
        even = np.arange(n) * (pi / n)
        cases.append((even, even + pi / 2))
    return cases


def test_heaviest_point_equals_reference_bitwise():
    """The sweep gives the two-argsort reference's mass and theta bit for
    bit, with equal and with unequal masses: on a single arc, on starts and
    ends drawn from a few values (tied starts, tied ends, starts equal to
    ends), on arcs past pi whose wrapped ends meet a start, and on the
    arc edge cases."""
    rng = np.random.default_rng(17)
    pi = math.pi
    cases = [(np.array([1.0]), np.array([2.5])), (np.array([3.0]), np.array([4.0]))]
    for _ in range(400):
        n = int(rng.integers(1, 40))
        start = rng.integers(0, 25, n) / 8.0  # in [0, 3], on the grid k/8
        cases.append((start, start + rng.integers(0, 25, n) / 8.0))
        # the arcs ending at 4.0 wrap to 4 - pi, where one more arc starts
        cases.append((np.append(start, 4.0 - pi),
                      np.append(np.where(start > 1.0, 4.0, start + 0.5), 4.5 - pi)))
        start = rng.uniform(0.0, pi, n)
        cases.append((start, start + rng.uniform(0.0, pi, n) * (1 - 1e-12)))
    cases += _arc_edge_cases(rng)
    for start, end in cases:
        assert np.all((start >= 0.0) & (start < pi) & (end >= start) & (end <= start + pi))
        n = len(start)
        for w in (np.full(n, 1.0 / n), np.full(n, 0.1), rng.choice([0.25, 0.5, 1.0], n),
                  rng.random(n) + 1e-3):
            want = heaviest_point_reference(start.copy(), end.copy(), w)
            assert _same_bits(_heaviest_point(start.copy(), end.copy(), w), want)


def _scene_tubes(mu: DyadicMeasure):
    """The separated halves of mu as the distance experiment splits them,
    and the tube radii the experiment swept when it profiled tubes: four
    dyadic radii from the largest one whose 4 times stays within the split
    gap, above the grid scale."""
    mu_half, nu_half = split_separated(mu.normalize())
    j_min = max(3, math.ceil(math.log2(4.0 / _split_gap(mu_half, nu_half))))
    return mu_half, nu_half, [2.0 ** (-j) for j in range(j_min, j_min + 4) if j < mu.m]


def test_scene_sweeps_equal_reference_bitwise(monkeypatch):
    """Every sweep of 8 pins and 4 radii through the halves of a depth-10
    cantor scene (equal masses) and of a depth-10 circle_pair scene
    (unequal masses) equals the reference."""
    from dimlab import geometry

    sweep = geometry._heaviest_point
    seen = []

    def checked(start, end, w):
        want = heaviest_point_reference(start.copy(), end.copy(), w)
        got = sweep(start, end, w)
        seen.append(_same_bits(got, want))
        return got

    monkeypatch.setattr(geometry, "_heaviest_point", checked)
    for mu in (gen_cantor_product(0.25, 2, 10), gen_circle_pair(10)):
        seen.clear()
        thin_tubes_profile(*_scene_tubes(mu), n_pins=8)
        assert len(seen) == 32 and all(seen)


def test_scene_profiles_keep_recorded_tube_exponents():
    """The tube exponents of 8 pins through the halves of the cantor16 and
    circle14 scenes, at the experiment's former radii, are the bits its
    reports recorded in their tube_t column, pin for pin."""
    recorded = {
        "cantor16": (gen_cantor_product(0.25, 2, 16), [0.5526570246869917] * 8),
        "circle14": (gen_circle_pair(14), [
            0.9845127076616857, 0.9824290237507537, 0.9786910640008764, 0.9762763516979825,
            0.9724672883090747, 0.9686802301837231, 0.9648866287001978, 0.9602212979032797]),
    }
    for name, (mu, ts) in recorded.items():
        profiles = thin_tubes_profile(*_scene_tubes(mu), n_pins=8)
        assert [pr.t for pr in profiles] == ts, name


def test_tube_sweep_with_tied_arcs_matches_bruteforce():
    """Leaves mirrored through the pin along its row have the same arc
    (tied starts and ends); the sweep still matches the brute force, and
    its direction's slab holds its mass."""
    rng = np.random.default_rng(13)
    m = 6
    pin = (0.5, 19.5 / 64)  # between columns 31 and 32, on row 19
    for _ in range(10):
        leaves = {}
        for k in rng.choice(28, size=10, replace=False).tolist():
            leaves[(32 + k, 19)] = leaves[(31 - k, 19)] = float(rng.random()) + 1e-3
        for _ in range(20):
            leaves[tuple(rng.integers(0, 64, 2).tolist())] = float(rng.random()) + 1e-3
        mu = DyadicMeasure(2, m, leaves).normalize()
        pts = mu.leaf_centers() - np.asarray(pin)
        ang, sq = np.arctan2(pts[:, 1], pts[:, 0]), np.sum(pts * pts, axis=1)
        for r in (2 ** -6, 2 ** -5, 2 ** -3):
            far = sq > r * r + 1e-9
            start = np.mod(ang[far] - np.arcsin(np.sqrt((r * r + 1e-9) / sq[far])), math.pi)
            assert len(np.unique(start)) < len(start)  # the mirrored leaves tie
            mass, u = tube_mass_max(mu, pin, r)
            assert abs(mass - tube_mass_max_bruteforce(mu, pin, r)) <= 1e-12
            slab = sq - (pts @ u) ** 2 <= r * r + 1e-9 + 1e-12
            assert abs(float(mu.masses[slab].sum()) - mass) <= 1e-12


def test_tube_mass_monotone_in_radius():
    rng = np.random.default_rng(3)
    mu = random_measure(rng, d=2, m=7, n_leaves=60)
    x = (-0.5, 0.5)
    masses = [tube_mass_max(mu, x, r)[0] for r in (2 ** -5, 2 ** -4, 2 ** -3)]
    assert masses[0] <= masses[1] + 1e-12 <= masses[2] + 2e-12
    assert masses[-1] <= 1.0 + 1e-12


def test_thin_tubes_profile_contract():
    mu = gen_cantor_product(0.25, 2, 8)
    mu_half, nu_half = split_separated(mu.normalize())
    radii = [2 ** -6, 2 ** -5, 2 ** -4]
    profiles = thin_tubes_profile(mu_half, nu_half, radii, n_pins=4)
    assert profiles
    for p in profiles:
        assert p.t >= 0.0 and p.K > 0.0
        rs = [r for r, _ in p.table]
        ms = [m for _, m in p.table]
        assert rs == sorted(rs)
        assert all(b >= a - 1e-12 for a, b in zip(ms, ms[1:]))  # mass grows with r
    # separation contract: huge radii, and pins in the tube measure's support,
    # must be rejected
    with pytest.raises(ValueError, match="from the support"):
        thin_tubes_profile(mu_half, nu_half, [0.25, 0.5], n_pins=2)
    with pytest.raises(ValueError, match="from the support"):
        thin_tubes_profile(nu_half, nu_half, radii, n_pins=4)
    for n_pins in (0, -3):
        with pytest.raises(ValueError, match="at least one pin"):
            thin_tubes_profile(mu_half, nu_half, radii, n_pins=n_pins)
    with pytest.raises(ValueError, match="distinct"):
        thin_tubes_profile(mu_half, nu_half, [2 ** -5, 2 ** -5], n_pins=4)
    with pytest.raises(ValueError, match="dimension"):
        thin_tubes_profile(mu_half, gen_cantor_product(0.25, 3, 4), radii, n_pins=4)
    # every swept radius passes tube_mass_max's checks, with its messages
    with pytest.raises(ValueError, match="below the grid scale"):
        thin_tubes_profile(mu_half, nu_half, [2 ** -9, 2 ** -5], n_pins=4)
    left, right = DyadicMeasure(1, 8, {(3,): 1.0}), DyadicMeasure(1, 8, {(250,): 1.0})
    with pytest.raises(ValueError, match="d = 2 or 3"):
        thin_tubes_profile(left, right, [2 ** -6, 2 ** -5], n_pins=1)


def _peak_bytes(fn, *args):
    """fn(*args) and the peak memory traced while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_3d_direction_products_in_blocks():
    """The 3-d radial binning and hyperplane concentration build their
    direction products a block at a time, with the one-piece results; in one
    piece the two large calls below would hold about 130 MB and 165 MB.  The
    normal grid is made a block at a time too: the spiral's points with
    z >= 0 are its first n of 2n.  At a = 0.01 it has 1,005,310 normals,
    which in one piece held about 145 MB whatever the number of cells."""
    mu = gen_cantor_product(0.25, 3, 8)  # 4096 leaves
    pin = (-0.5, 0.5, 0.5)
    rng = np.random.default_rng(4)
    rho = project_radial(mu, pin, 500)
    diff = mu.leaf_centers() - np.asarray(pin)
    unit = diff / np.linalg.norm(diff, axis=1, keepdims=True)
    one_piece = np.argmax(unit @ _sphere_lattice(500, np.arange(500)).T, axis=1)
    expect = np.bincount(one_piece, weights=mu.masses, minlength=500)
    assert rho.index.tolist() == np.flatnonzero(expect).tolist()
    assert rho.masses.tolist() == expect[expect > 0].tolist()
    _, peak = _peak_bytes(project_radial, mu, pin, 4000)
    assert peak < 32e6, peak
    # its blocks are bounded by their entries, so 50,000 declared cells cost
    # the 24 bytes a cell of their centers (about 1 KB a cell in blocks of a
    # fixed 128 leaves), and a block of one leaf has the one-piece cells too
    _, peak = _peak_bytes(project_radial, gen_cantor_product(0.25, 3, 6), pin, 50_000)
    assert peak < 64 * 50_000, peak
    few = gen_cantor_product(0.25, 3, 2)
    diff = few.leaf_centers() - np.asarray(pin)
    unit = diff / np.linalg.norm(diff, axis=1, keepdims=True)
    one_piece = np.argmax(unit @ _sphere_lattice(50_000, np.arange(50_000)).T, axis=1)
    assert project_radial(few, pin, 50_000).index.tolist() == np.unique(one_piece).tolist()

    rho = DirectionMeasure(3, 512, np.arange(512), rng.uniform(0.5, 1.5, 512))
    normals = np.concatenate(list(_hemisphere_blocks(0.2 / 4.0)))
    inner = np.abs(rho.cell_centers() @ normals.T)
    assert hyperplane_concentration(rho, 0.2) == float((rho.masses @ (inner <= 0.2 + 1e-9)).max())
    _, peak = _peak_bytes(hyperplane_concentration, rho, 0.05)
    assert peak < 32e6, peak

    for step in (0.3, 0.05, 0.01):
        n = max(8, math.ceil(2.0 * math.pi / (step * step)))
        whole = _sphere_lattice(2 * n, np.arange(2 * n))
        blocks = list(_hemisphere_blocks(step))
        assert max(len(b) for b in blocks) == min(n, _DIRECTION_CHUNK)
        assert np.array_equal(np.concatenate(blocks), whole[whole[:, 2] >= 0][:n])
    rho = DirectionMeasure(3, 512, np.arange(16), np.linspace(0.5, 1.5, 16))
    _, peak = _peak_bytes(hyperplane_concentration, rho, 0.01)
    assert peak < 4e6, peak


def test_hyperplane_concentration_uniform_vs_atom():
    n = 256
    uniform = DirectionMeasure(2, n, np.arange(n), np.full(n, 1.0 / n))
    for a in (0.05, 0.1, 0.2, 0.5, 0.9):
        # the a-slab around a line cuts two antipodal arcs of angular width
        # 2 arcsin(a); each holds at most floor(width / spacing) + 1 centers
        count = 2 * (math.floor(2.0 * math.asin(a) / (2.0 * math.pi / n)) + 1)
        assert abs(hyperplane_concentration(uniform, a) - count / n) <= 1e-12
    # closed slabs: four cells at 45 degrees from the x-axis, all within
    # _TOL of distance a from it
    four = DirectionMeasure(2, 4, np.arange(4), np.full(4, 0.25))
    assert hyperplane_concentration(four, math.sqrt(0.5) - 1e-10) == pytest.approx(1.0)
    # within _TOL of 1 every cell is near every line
    assert hyperplane_concentration(uniform, 1.0 - 1e-10) == pytest.approx(1.0)
    atom = DirectionMeasure(2, n, [0], [1.0])
    assert hyperplane_concentration(atom, 0.1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        hyperplane_concentration(uniform, 1.5)


def test_hyperplane_concentration_sweep_matches_bruteforce_and_bounds_grid():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(160):
        n = int(rng.integers(2, 201))
        live = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        cases.append(DirectionMeasure(2, n, live, rng.random(len(live)) + 1e-3))
    for _ in range(60):
        mu = random_measure(rng, d=2, m=7, n_leaves=int(rng.integers(1, 80)))
        pin = (float(rng.uniform(-1.0, -0.1)), float(rng.uniform(-0.5, 1.5)))
        cases.append(project_radial(mu, pin, int(rng.integers(2, 201))))
    for rho in cases:
        a = float(rng.uniform(0.01, 0.99))
        conc = hyperplane_concentration(rho, a)
        assert abs(conc - hyperplane_concentration_bruteforce(rho, a)) <= 1e-12
        assert hyperplane_concentration_grid(rho, a) <= conc + 1e-12


def test_adapted_audit_lebesgue_is_clean():
    # uniform directions + Lebesgue square: no failing directions at s = 0.9
    n = 64
    rho = DirectionMeasure(2, n, np.arange(n), np.full(n, 1.0 / n))
    mu = DyadicMeasure(
        2, 8, {(i, j): 2.0 ** -16 for i in range(0, 256, 4) for j in range(0, 256, 4)}
    ).normalize()
    frac = adapted_audit(rho, mu, 8, 0.9, 0.1)
    assert frac == 0.0


def test_entropy_projection_bound_hypothesis_checked():
    n = 64
    rho = DirectionMeasure(2, n, [0], [1.0])
    mu = random_measure(np.random.default_rng(4), d=2, m=8, n_leaves=100)
    with pytest.raises(ValueError):
        # a point mass on the sphere concentrates on every hyperplane slab
        entropy_projection_bound(rho, mu, 8, 0.1, 0.05, 4.0)
    uniform = DirectionMeasure(2, n, np.arange(n), np.full(n, 1.0 / n))
    bad, ok = entropy_projection_bound(uniform, mu, 8, 0.2, 0.5, 4.0)
    assert 0.0 <= bad <= 1.0


def test_line_measure_serialization():
    lm = LineMeasure(DyadicMeasure(1, 3, {(2,): 1.0}), 0.0, 2.0)
    text = lm.to_text()
    assert text.startswith("range ")
    with pytest.raises(ValueError):
        LineMeasure(DyadicMeasure(1, 3, {(2,): 1.0}), 1.0, 1.0)
