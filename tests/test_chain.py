import math

import numpy as np
import pytest

from dimlab.chain import (
    _SAMPLE_LIMIT,
    ScaleSchedule,
    _integration_leaves,
    chain_sides,
    chain_sides_robust,
    fit_chain_constant,
    linearization_direction,
    schedule_from_decomposition,
)
from dimlab.dyadic import DyadicMeasure, restrict_normalize
from dimlab.generators import gen_cantor_product
from dimlab.sigma import IntervalDecomposition
from oracles import (
    random_measure,
    rhs_sum_reference,
    shannon_reference,
    value_cell_masses_reference,
)
from test_acceptance import _random_schedule, _selfsimilar_planar


def test_schedule_invariants():
    ScaleSchedule(16, ((4, 8), (8, 16)))
    with pytest.raises(ValueError):
        ScaleSchedule(16, ((4, 9),))  # 9 > 2*4
    with pytest.raises(ValueError):
        ScaleSchedule(16, ((8, 16), (4, 8)))  # not increasing
    with pytest.raises(ValueError):
        ScaleSchedule(8, ((4, 12),))  # beyond M
    assert ScaleSchedule(8, ()).J == 0


def test_schedule_from_decomposition_examples():
    dec = IntervalDecomposition([(0.25, 0.5, 1.0), (0.5, 1.0, 1.0)], tau=0.25)
    sched, drift = schedule_from_decomposition(dec, 16)
    assert sched.intervals == ((4, 8), (8, 16))
    assert drift == 0
    dec = IntervalDecomposition([(0.5, 1.0, 1.0)], tau=0.5)
    sched, _ = schedule_from_decomposition(dec, 10)
    assert sched.intervals == ((5, 10),)


def test_allowability_implies_doubling():
    # tau <= b - a <= a on 1/m-aligned endpoints gives B <= 2A after rounding
    rng = np.random.default_rng(0)
    for _ in range(1000):
        m = int(rng.integers(8, 21))
        entries = []
        A = int(rng.integers(2, m // 2 + 1))
        while A < m:
            length = int(rng.integers(1, A + 1))
            B = min(m, A + length)
            if B <= A:
                break
            entries.append((A / m, B / m, 0.5))
            A = B + int(rng.integers(0, 3))
        if not entries:
            continue
        dec = IntervalDecomposition(entries, tau=1.0 / m)
        sched, drift = schedule_from_decomposition(dec, m)
        assert drift == 0
        for A, B in sched.intervals:
            assert B <= 2 * A


def test_linearization_directions():
    u = linearization_direction("pinned_distance", (0.0, 0.0), (1.0, 0.0))
    assert np.allclose(u, [1.0, 0.0])
    v = linearization_direction("radial_2d", (0.0, 0.0), (1.0, 0.0))
    assert np.allclose(v, [0.0, 1.0])
    assert abs(float(np.dot(u, v))) < 1e-12
    with pytest.raises(ValueError):
        linearization_direction("pinned_distance", (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        linearization_direction("radial_2d", (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        linearization_direction("unknown", (0.0, 0.0), (1.0, 0.0))
    # an (n, d) array of base points gives the single-point direction per row
    rng = np.random.default_rng(11)
    for kind, d in (("pinned_distance", 2), ("pinned_distance", 3), ("radial_2d", 2)):
        xs = rng.random((25, d))
        y = -0.5 * np.ones(d)
        rows = linearization_direction(kind, xs, y)
        assert rows.shape == (25, d)
        for x, row in zip(xs, rows):
            assert np.array_equal(row, linearization_direction(kind, x, y))
    with pytest.raises(ValueError):
        linearization_direction("pinned_distance", [(0.0, 0.0), (1.0, 1.0)], (1.0, 1.0))


def test_chain_sides_point_mass_and_empty_schedule():
    mu = DyadicMeasure(2, 8, {(128, 128): 1.0})
    sched = ScaleSchedule(8, ((4, 8),))
    lhs, rhs, J = chain_sides(mu, "pinned_distance", (-0.5, 0.5), sched)
    assert lhs == 0.0 and rhs == 0.0 and J == 1
    lhs, rhs, J = chain_sides(mu, "pinned_distance", (-0.5, 0.5), ScaleSchedule(8, ()))
    assert rhs == 0.0 and J == 0


def test_rhs_additive_over_intervals():
    mu = gen_cantor_product(0.25, 2, 10)
    y = (-0.5, 0.5)
    s_both = ScaleSchedule(10, ((3, 6), (6, 10)))
    s_first = ScaleSchedule(10, ((3, 6),))
    s_second = ScaleSchedule(10, ((6, 10),))
    _, rhs_both, _ = chain_sides(mu, "pinned_distance", y, s_both)
    _, rhs_1, _ = chain_sides(mu, "pinned_distance", y, s_first)
    _, rhs_2, _ = chain_sides(mu, "pinned_distance", y, s_second)
    assert rhs_both == pytest.approx(rhs_1 + rhs_2, abs=1e-9)
    assert rhs_1 <= rhs_both + 1e-12  # dropping an interval never raises rhs


def test_chain_sides_lebesgue_single_interval():
    n = 64
    mu = DyadicMeasure(2, 6, {(i, j): 1.0 / n ** 2 for i in range(n) for j in range(n)})
    sched = ScaleSchedule(6, ((3, 6),))
    lhs, rhs, J = chain_sides(mu, "pinned_distance", (-2.0, 0.5), sched)
    # distances from a far pin spread over a range ~ width of the square
    assert lhs > 4.0
    assert rhs > 0.0
    assert lhs >= rhs - 4.0 * J


def test_radial_map_kind():
    mu = gen_cantor_product(0.25, 2, 8)
    sched = ScaleSchedule(8, ((4, 8),))
    lhs, rhs, J = chain_sides(mu, "radial_2d", (-0.5, 0.5), sched)
    assert lhs > 0.0 and rhs > 0.0


def test_robust_domination_checked():
    mu = random_measure(np.random.default_rng(1), d=2, m=8, n_leaves=40)
    sched = ScaleSchedule(8, ((4, 8),))
    y = (-0.5, 0.5)
    # restriction to half the mass is dominated with Theta = 1/mass
    half = np.arange(len(mu.masses)) < len(mu.masses) // 2
    mu_half = restrict_normalize(mu, half)
    hm = math.fsum(mu.masses[half].tolist())
    lhs, rhs_rob, _ = chain_sides_robust(
        mu, mu_half, "pinned_distance", y, sched, 1.0 / hm
    )
    with pytest.raises(ValueError):
        chain_sides_robust(mu, mu_half, "pinned_distance", y, sched, 1.0)
    # NaN would pass the domination check and inf would skip it, letting a
    # disjoint mu' through
    other = restrict_normalize(mu, ~half)
    for Theta in (0.5, math.nan, math.inf):
        for nu in (mu_half, other):
            with pytest.raises(ValueError, match="Theta"):
                chain_sides_robust(mu_half, nu, "pinned_distance", y, sched, Theta)


def test_robust_rhs_below_plain():
    rng = np.random.default_rng(2)
    for _ in range(10):
        mu = random_measure(rng, d=2, m=8, n_leaves=50)
        sched = ScaleSchedule(8, ((3, 6), (6, 8)))
        y = (-0.5, float(rng.uniform(0.0, 1.0)))
        _, rhs_plain, _ = chain_sides(mu, "pinned_distance", y, sched)
        _, rhs_rob, _ = chain_sides_robust(
            mu, mu, "pinned_distance", y, sched, 1.0
        )
        assert rhs_rob <= rhs_plain + 1e-9


def test_robust_rejects_schedule_deeper_than_measure():
    mu = gen_cantor_product(0.25, 2, 8)
    for intervals in (((6, 12),), ((9, 10),)):
        sched = ScaleSchedule(12, intervals)
        with pytest.raises(ValueError, match="schedule depth exceeds measure depth"):
            chain_sides(mu, "pinned_distance", (-0.5, 0.5), sched)
        with pytest.raises(ValueError, match="schedule depth exceeds measure depth"):
            chain_sides_robust(mu, mu, "pinned_distance", (-0.5, 0.5), sched, 1.0)


def _dominated(rng, mu, Theta):
    """mu reweighted by random factors in [1, Theta] and renormalized, so
    dominated by Theta * mu."""
    w = mu.masses * rng.uniform(1.0, Theta, len(mu.masses))
    return DyadicMeasure._from_arrays(mu.d, mu.m, mu.coords, w / w.sum())


def _filled_cubes(rng, d, m, level, n):
    """Random masses in [0.5, 1.5] on every leaf of n random level-`level`
    cubes: dense enough that capped block entropies are positive."""
    s = m - level
    local = np.stack(np.meshgrid(*[np.arange(1 << s)] * d, indexing="ij"), -1).reshape(-1, d)
    leaves = {}
    for corner in rng.integers(0, 1 << level, size=(n, d)):
        for key in ((corner << s) + local).tolist():
            leaves[tuple(key)] = float(rng.uniform(0.5, 1.5))
    return DyadicMeasure(d, m, leaves).normalize()


def test_chain_sides_match_per_point_reference():
    """Both chain sides against the per-base-point loop: lhs bit for bit,
    rhs within 1e-9 (the per-ancestor binning sums in another order)."""
    rng = np.random.default_rng(8)
    cases = []  # (mu, mu', map kind, pin, schedule, Theta or None for plain)
    acc = np.random.default_rng(5)  # the start of acceptance 07's panel
    for _ in range(3):
        mu = _selfsimilar_planar(acc, depth=12)
        y = (-0.5, float(acc.uniform(0.0, 1.0)))
        sched = _random_schedule(acc, 12)
        cases += [(mu, mu, "pinned_distance", y, sched, None),
                  (mu, mu, "pinned_distance", y, sched, 1.0)]
    for kind in ("pinned_distance", "radial_2d"):
        for Theta in (1.0, 2.5):
            mu = _filled_cubes(rng, 2, 9, 5, 6)
            y = (-0.5, float(rng.uniform(0.0, 1.0)))
            sched = ScaleSchedule(9, ((2, 4), (5, 9)))
            cases += [(mu, mu, kind, y, sched, None),
                      (mu, _dominated(rng, mu, Theta), kind, y, sched, Theta)]
    big = gen_cantor_product(0.25, 2, 14)
    assert len(big.masses) > _SAMPLE_LIMIT  # the subsampled outer integral
    cases.append((big, big, "pinned_distance", (-0.5, 0.5),
                  ScaleSchedule(14, ((5, 9), (9, 14))), None))
    mu3 = _filled_cubes(rng, 3, 7, 4, 5)
    y3 = (-0.5, 0.5, 0.5)
    sched3 = ScaleSchedule(7, ((2, 4), (4, 7)))
    cases += [(mu3, mu3, "pinned_distance", y3, sched3, None),
              (mu3, _dominated(rng, mu3, 1.0), "pinned_distance", y3, sched3, 1.0)]
    capped_positive = 0
    for mu, mu_p, kind, y, sched, Theta in cases:
        if Theta is None:
            lhs, rhs, _ = chain_sides(mu, kind, y, sched)
            cap = None
        else:
            lhs, rhs, _ = chain_sides_robust(mu, mu_p, kind, y, sched, Theta)
            cap = 4.0 * Theta
        diff = mu_p.leaf_centers() - np.asarray(y)
        vals = (np.linalg.norm(diff, axis=1) if kind == "pinned_distance" else
                np.mod(np.arctan2(diff[:, 1], diff[:, 0]), 2 * math.pi) / (2 * math.pi))
        assert lhs == shannon_reference(value_cell_masses_reference(vals, mu_p.masses, sched.M))
        base, w = _integration_leaves(mu_p)
        ref = rhs_sum_reference(mu, kind, np.asarray(y), sched, base, w, cap)
        assert ref > 0.5 or cap is not None  # a capped block entropy may be 0
        capped_positive += cap is not None and ref > 0.5
        assert abs(rhs - ref) <= 1e-9, (kind, Theta, rhs, ref)
    assert capped_positive >= 5


def test_fit_chain_constant():
    assert fit_chain_constant([(0.0, 0.0, 1)]) == 0.0
    assert fit_chain_constant([(1.0, 5.0, 2)]) == pytest.approx(2.0)
    assert fit_chain_constant([(1.0, 5.0, 2), (0.0, 9.0, 3)]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        fit_chain_constant([])
    # max(C, nan) keeps C, so a NaN entry would be skipped
    for bad in (math.nan, math.inf, -math.inf):
        for entry in ((0.0, bad, 1), (bad, 2.0, 1)):
            with pytest.raises(ValueError):
                fit_chain_constant([entry, (1.0, 2.0, 1)])

