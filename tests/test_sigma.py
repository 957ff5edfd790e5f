import itertools
import math

import numpy as np
import pytest

from dimlab import sigma
from dimlab.plf import PLFunction, _in_class_rows, from_slopes, linear
from dimlab.sigma import (
    CustomProfile,
    HighDimProfile,
    IntervalDecomposition,
    KaufmanProfile,
    PlanarProfile,
    TrivialHalfProfile,
    best_slope,
    c_d_table,
    is_superlinear,
    lipschitz_scan,
    merge,
    merge_increasing,
    phi,
    sigma_for_f,
    sigma_tau,
    superlinear_decomposition,
    verify_planar_bound,
)
from oracles import (
    grid_dp_dense_reference,
    random_plf,
    sigma_value_bruteforce,
    superlinear_chain_dense_reference,
)


# -- piecewise-linear class --------------------------------------------------


def test_plfunction_validation():
    with pytest.raises(ValueError):
        PLFunction((0.0, 0.5), (0.0, 1.0))  # does not reach 1
    with pytest.raises(ValueError):
        PLFunction((0.0, 0.5, 0.5, 1.0), (0.0, 1.0, 1.0, 2.0))
    for xs, ys in (((0.0, math.nan, 1.0), (0.0, 0.5, 1.0)), ((0.0, 1.0), (0.0, math.nan)),
                   ((0.0, 0.5, 1.0), (0.0, math.inf, 1.0))):
        with pytest.raises(ValueError, match="finite"):
            PLFunction(xs, ys)
    f = PLFunction((0.0, 0.5, 1.0), (0.0, 1.0, 1.5))
    assert f(0.25) == pytest.approx(0.5)
    assert f.is_nondecreasing()
    assert f.in_class(2.0, 1.0)
    assert not f.in_class(2.0, 1.6)
    assert f.class_violation(2.0, 1.6)[0] == "below-line"
    assert f.class_violation(0.5, 0.0)[0] == "lipschitz"
    # zip would drop the slopes past the last breakpoint
    for xs in ([0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0]):
        with pytest.raises(ValueError, match="breakpoints"):
            from_slopes([1.0, 1.0, 1.0], xs)
    assert from_slopes([1.0, 3.0], [0.0, 0.25, 1.0]).ys == (0.0, 0.25, 2.5)


def test_plfunction_json_roundtrip():
    f = from_slopes([0.5, 2.0, 0.0, 1.0])
    g = PLFunction.from_json(f.to_json())
    assert g.xs == f.xs and g.ys == f.ys


# -- phi and the dimension-gain table ---------------------------------------


def test_phi_constants():
    assert abs(phi(1.0) - 0.618033988749895) < 1e-12
    assert abs(phi(0.5) - 0.280776406404415) < 1e-12
    assert 0.5 + phi(0.5) / 4.0 > 0.57


def test_phi_is_the_quadratic_root():
    rng = np.random.default_rng(0)
    for _ in range(500):
        u = float(rng.uniform(1e-6, 1.0))
        x = phi(u)
        assert abs(x * x + (2.0 - u) * x - u) < 1e-12
        # bisection oracle on [0, 1]
        lo, hi = 0.0, 1.0
        g = lambda y: y * y + (2.0 - u) * y - u
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert abs(x - 0.5 * (lo + hi)) < 1e-10


def test_c_d_table():
    table = dict(c_d_table(range(4, 10)))
    for d in range(4, 10):
        if d % 2 == 1:
            assert table[d] == pytest.approx(phi(0.5) / (d + 1), abs=1e-15)
        else:
            assert table[d] == pytest.approx((phi(1.0) - 0.5) / (d + 1), abs=1e-15)
    with pytest.raises(ValueError):
        c_d_table([3])


# -- profiles ---------------------------------------------------------------


def test_profiles_nondecreasing():
    rng = np.random.default_rng(1)
    profiles = [
        HighDimProfile(3, 1.2),
        TrivialHalfProfile(),
        KaufmanProfile(0.7),
        PlanarProfile(0.5),
        CustomProfile([0.0, 1.0, 2.0], [0.0, 0.3, 0.9], 2.0),
    ]
    for D in profiles:
        ts = np.sort(rng.uniform(0.0, D.d, 200))
        vals = np.array([float(D(t)) for t in ts])
        assert np.all(np.diff(vals) >= -1e-12), type(D).__name__
        # scalar and vector evaluation agree
        assert np.allclose(np.asarray(D(ts)), vals)


def test_planar_profile_crossover():
    D = PlanarProfile(0.5, eta=0.01)
    sp = D.s_prime
    assert abs(0.5 + 0.01 - sp / 2.0) < 1e-9
    assert PlanarProfile(1.5, eta=0.6).s_prime == 2.0  # the crossover is capped at 2
    assert float(D(0.3)) == pytest.approx(0.3)
    assert float(D(0.8)) == pytest.approx(0.51)
    assert float(D(1.5)) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        PlanarProfile(2.5)


def test_custom_profile_validation():
    with pytest.raises(ValueError):
        CustomProfile([0.0, 1.0], [1.0, 0.0], 2.0)
    with pytest.raises(ValueError):
        CustomProfile([0.0, 0.0], [0.0, 1.0], 2.0)


@pytest.mark.parametrize("make, match", [
    (lambda: HighDimProfile(3, math.nan), "s must be finite"),
    (lambda: HighDimProfile(math.inf, 1.2), "d must be finite"),
    (lambda: HighDimProfile(0, 1.2), "d must be positive"),
    (lambda: HighDimProfile(3.5, 1.2), "d must be an integer"),
    (lambda: KaufmanProfile(math.inf), "s must be finite"),
    (lambda: KaufmanProfile(0.7, d=-1.0), "d must be positive"),
    (lambda: TrivialHalfProfile(d=math.nan), "d must be finite"),
    (lambda: TrivialHalfProfile(d=0.0), "d must be positive"),
    (lambda: PlanarProfile(0.5, eta=math.inf), "eta"),
    (lambda: PlanarProfile(None), "s must be a number"),
    (lambda: HighDimProfile(None, 1.2), "d must be a number"),
    (lambda: KaufmanProfile([0.5]), "s must be a number"),
    (lambda: TrivialHalfProfile(d={}), "d must be a number"),
    (lambda: CustomProfile([0.0, math.nan], [0.0, 1.0], 2.0), "breakpoint must be finite"),
    (lambda: CustomProfile([0.0, 2.0], [0.0, None], 2.0), "lists of numbers"),
    (lambda: CustomProfile(5, [0.0, 1.0], 2.0), "lists of numbers"),
    (lambda: CustomProfile([0.0, 2.0], [0.0, 1.0], 0.0), "d must be positive"),
    (lambda: CustomProfile([0.0, 2.0], [0.0], 2.0), "one value per breakpoint"),
    (lambda: CustomProfile([], [], 2.0), "at least one breakpoint"),
])
def test_profiles_reject_bad_parameters(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("make, match", [
    (lambda: HighDimProfile(True, 1.2), "d must be a number, got True"),
    (lambda: PlanarProfile("0.4"), "s must be a number, got '0.4'"),
    (lambda: PlanarProfile(0.4, eta=False), "eta must be a number"),
    (lambda: KaufmanProfile(0.7, d="2"), "d must be a number"),
    (lambda: TrivialHalfProfile(d=True), "d must be a number"),
    (lambda: CustomProfile([0.0, 2.0], [0.0, 1.0], True), "d must be a number"),
    (lambda: CustomProfile(["0", "2"], [0.0, 1.0], 2.0), "lists of numbers"),
    (lambda: CustomProfile([0.0, 2.0], [False, True], 2.0), "lists of numbers"),
    (lambda: CustomProfile("02", [0.0, 1.0], 2.0), "lists of numbers"),
])
def test_profiles_reject_bools_and_strings(make, match):
    """float() takes a bool or a numeric string; a profile parameter must be
    a real number, as an integer parameter must not be a bool."""
    with pytest.raises(ValueError, match=match):
        make()
    # numpy scalars and plain ints are numbers
    assert HighDimProfile(np.int64(3), np.float64(1.2)).d == 3.0
    assert CustomProfile([0, np.float32(2.0)], [0, 1], 2).xs == (0.0, 2.0)


# -- superlinearity ---------------------------------------------------------


def test_best_slope_dense_sampling_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        f = random_plf(rng, n_segments=6, max_slope=3.0)
        a = float(rng.uniform(0.05, 0.5))
        b = float(rng.uniform(a + 0.1, 1.0))
        sigma = best_slope(f, a, b)
        xs = np.linspace(a, b, 400)[1:]
        dense = np.min((np.asarray(f(xs)) - float(f(a))) / (xs - a))
        assert sigma <= dense + 1e-9
        assert is_superlinear(f, a, b, sigma)
        assert not is_superlinear(f, a, b, sigma + 1e-6, tol=1e-9)


def test_merge_preserves_weighted_sum():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        f = random_plf(rng, n_segments=8, max_slope=2.0)
        cuts = np.sort(rng.uniform(0.1, 1.0, 3))
        a, b, c = (float(x) for x in cuts)
        if b - a < 1e-3 or c - b < 1e-3:
            continue
        s1 = best_slope(f, a, b)
        s2 = best_slope(f, b, c)
        if s1 < s2:
            continue
        merged = merge(f, (a, b, s1), (b, c, s2))
        assert merged[0] == a and merged[1] == c
        assert abs(
            merged[2] * (c - a) - (s1 * (b - a) + s2 * (c - b))
        ) < 1e-12
        assert is_superlinear(f, a, c, merged[2], tol=1e-7)


def test_merge_increasing_chain():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        f = random_plf(rng, n_segments=8, max_slope=2.0)
        n = int(rng.integers(2, 6))
        pts = np.sort(rng.uniform(0.05, 1.0, n + 1))
        if np.min(np.diff(pts)) < 1e-3:
            continue
        entries = [
            (float(pts[i]), float(pts[i + 1]), best_slope(f, pts[i], pts[i + 1]))
            for i in range(n)
        ]
        before = math.fsum(s * (b - a) for a, b, s in entries)
        dec = merge_increasing(f, entries)
        slopes = [s for _, _, s in dec.entries]
        assert all(s2 > s1 - 1e-9 for s1, s2 in zip(slopes, slopes[1:]))
        assert abs(math.fsum(s * (b - a) for a, b, s in dec.entries) - before) < 1e-9


def test_superlinear_decomposition_tiles_and_bounds():
    rng = np.random.default_rng(5)
    # on lines all tilings have nearly the same sum, so chains use pieces of length rho
    lines = [linear(1.0), from_slopes([2.0, 0.5])]
    for f in lines + [random_plf(rng, n_segments=6, max_slope=2.0) for _ in range(50)]:
        a, b = 0.25, 1.0
        eps, rho = 0.4, 0.2
        dec = superlinear_decomposition(f, a, b, eps, rho)
        assert dec.entries[0][0] == pytest.approx(a)
        assert dec.entries[-1][1] == pytest.approx(b)
        for (x0, x1, s), (y0, _, _) in zip(dec.entries, dec.entries[1:]):
            assert abs(x1 - y0) < 1e-12
        for x0, x1, s in dec.entries:
            assert dec.tau - 1e-9 <= x1 - x0 <= rho + 1e-9
            assert is_superlinear(f, x0, x1, s)
        assert dec.entries == superlinear_chain_dense_reference(f, a, b, eps, rho)
        total = math.fsum(s * (b - a) for a, b, s in dec.entries)
        growth = float(f(b)) - float(f(a))
        assert total <= growth + 1e-9  # chord slopes never overshoot
        assert total >= growth - eps * (b - a) - 1e-9


def test_decomposition_check_rejects_bad_families():
    f = linear(1.0)
    dec = IntervalDecomposition([(0.2, 0.5, 1.0)], tau=0.1)
    with pytest.raises(ValueError):
        dec.check(require_allowable=True)  # b - a > a
    dec = IntervalDecomposition([(0.5, 0.6, 2.0)], tau=0.05)
    with pytest.raises(ValueError):
        dec.check(f=f)  # not 2-superlinear on a slope-1 line
    ok = IntervalDecomposition([(0.3, 0.5, 1.0), (0.5, 1.0, 1.0)], tau=0.2)
    ok.check(f=f, d=2.0)


# -- the inner maximization -------------------------------------------------


def _random_instance(rng):
    kind = int(rng.integers(3))
    if kind == 0:
        D = HighDimProfile(3, float(rng.uniform(1.0, 1.5)))
    elif kind == 1:
        D = PlanarProfile(float(rng.uniform(0.2, 0.9)))
    else:
        D = KaufmanProfile(float(rng.uniform(0.3, 1.0)))
    f = random_plf(rng, n_segments=int(rng.integers(2, 6)), max_slope=D.d)
    tau = float(rng.choice([0.2, 0.25, 0.3]))
    return D, f, tau


def test_sigma_for_f_matches_bruteforce_exactly():
    rng = np.random.default_rng(6)
    for trial in range(25):
        D, f, tau = _random_instance(rng)
        fast, dec = sigma_for_f(D, f, tau, 16)
        slow = sigma_value_bruteforce(D, f, tau, 16)
        assert fast == slow, (trial, fast, slow)
        dec.check(f=f, d=D.d)


def test_sigma_for_f_grid_refinement_monotone():
    rng = np.random.default_rng(7)
    for _ in range(10):
        D, f, tau = _random_instance(rng)
        v16, _ = sigma_for_f(D, f, tau, 16)
        v32, _ = sigma_for_f(D, f, tau, 32)
        v64, _ = sigma_for_f(D, f, tau, 64)
        assert v32 >= v16 - 1e-12
        assert v64 >= v32 - 1e-12


def test_sigma_for_f_tau_monotone():
    rng = np.random.default_rng(8)
    for _ in range(10):
        D, f, _ = _random_instance(rng)
        v_small, _ = sigma_for_f(D, f, 0.1, 40)
        v_large, _ = sigma_for_f(D, f, 0.3, 40)
        assert v_large <= v_small + 1e-12


def test_sigma_for_f_rejects_bad_tau():
    D = TrivialHalfProfile()
    with pytest.raises(ValueError):
        sigma_for_f(D, linear(1.0), 0.6, 16)
    with pytest.raises(ValueError):
        sigma_for_f(D, linear(1.0), 0.0, 16)


# -- the outer minimization -------------------------------------------------


def test_sigma_tau_certified_upper_bound():
    D = TrivialHalfProfile()
    res = sigma_tau(D, 1.0, 0.1, budget=200, n_segments=4, grid_n=80,
                    slope_levels=[0.0, 0.5, 1.0, 1.5, 2.0])
    assert res.certificate.in_class(2.0, 1.0)
    # the estimate is exactly the inner value at the certificate
    val, _ = sigma_for_f(D, res.certificate, 0.1, 80)
    assert res.estimate == val
    # and no worse than the boundary line of the class
    lin_val, _ = sigma_for_f(D, linear(1.0), 0.1, 80)
    assert res.estimate <= lin_val + 1e-12


def test_sigma_tau_rejects_bad_t():
    with pytest.raises(ValueError):
        sigma_tau(TrivialHalfProfile(), 2.5, 0.1)


def test_sigma_tau_and_sigma_for_f_reject_bad_input():
    D = TrivialHalfProfile()
    for tau in (0.0, -0.1, 0.6):
        with pytest.raises(ValueError, match="tau"):
            sigma_tau(D, 1.0, tau)
    for budget in (0, -1, 2.5, "8", True):
        with pytest.raises(ValueError, match="budget"):
            sigma_tau(D, 1.0, 0.1, budget=budget)
    for grid_n in (0, -4, 16.5, 16.0, True):
        with pytest.raises(ValueError, match="grid_n"):
            sigma_for_f(D, linear(1.0), 0.1, grid_n)
        with pytest.raises(ValueError, match="grid_n"):
            sigma_tau(D, 1.0, 0.1, grid_n=grid_n)
    for n_segments in (0, -1, 2.5, 4.0, True, None):
        with pytest.raises(ValueError, match="n_segments"):
            sigma_tau(D, 1.0, 0.1, n_segments=n_segments)
    for levels in ([], [math.nan, 1.0], [0.5, math.inf], [-math.inf], ["a"], [[1.0]], 3):
        with pytest.raises(ValueError, match="slope"):
            sigma_tau(D, 1.0, 0.1, slope_levels=levels)


def _dp_function(rng, d, grid_n, on_grid):
    """A PL function with up to 8 pieces, some decreasing, whose breakpoints
    lie on the quarter sub-grid of {i/grid_n} or at random points."""
    k = int(rng.integers(0, 8))
    if on_grid:
        inner = 4 * rng.choice(np.arange(1, max(2, grid_n // 4)), size=k) / grid_n
    else:
        inner = rng.uniform(0.0, 1.0, k)
    xs = np.unique(np.concatenate([[0.0], inner[inner < 1.0], [1.0]]))
    low = -d / 4.0 if rng.random() < 0.3 else 0.0
    ys = np.concatenate([[0.0], np.cumsum(rng.uniform(low, d, len(xs) - 1) * np.diff(xs))])
    return PLFunction(tuple(xs.tolist()), tuple(ys.tolist()))


def test_grid_dp_matches_dense_reference():
    """The banded DP and the walk-back from where its value rises give the
    dense reference's value and certificate chain, its slopes clipped to
    [0, d], bit for bit, on full grids and their quarter sub-grids, and on
    small grids with points within _TOL of the allowable lengths' limits."""
    rng = np.random.default_rng(12)
    for grid_n in (16, 80, 96, 101, 400, 800):
        for tau in (0.01, 0.02, 0.05, 0.125, 0.3, 0.5):
            grid = sigma._grid(grid_n)
            grids = [grid, grid[::4]]
            if grid_n <= 101:
                edges = np.concatenate([2.0 * grid + 5e-10, grid + tau - 5e-10])
                grids.append(np.union1d(grid, edges[(edges > 0.0) & (edges < 1.0)]))
            for kind, D in enumerate(_all_profiles(rng)):
                f = _dp_function(rng, D.d, grid_n, on_grid=kind % 2 == 0)
                for xs in grids:
                    best, W, clipped = sigma._dp(D, [f], tau, xs)
                    entries = sigma._certificate(xs, best[0], W, clipped)
                    ref_value, ref_take, Bg = grid_dp_dense_reference(D, f, tau, xs)
                    case = (grid_n, len(xs), tau, type(D).__name__)
                    assert best[0, -1] == ref_value, case
                    assert np.array_equal(np.flatnonzero(np.diff(best[0]) > 0) + 1,
                                          np.flatnonzero(ref_take >= 0)), case
                    ref_entries = []
                    j = len(xs) - 1
                    while j > 0:
                        i = int(ref_take[j])
                        if i < 0:
                            j -= 1
                            continue
                        ref_entries.append((float(xs[i]), float(xs[j]),
                                            float(np.clip(Bg[i, j], 0.0, D.d))))
                        j = i
                    assert entries == ref_entries[::-1], case


def _all_profiles(rng):
    return [
        HighDimProfile(3, float(rng.uniform(1.0, 1.5))),
        TrivialHalfProfile(),
        KaufmanProfile(float(rng.uniform(0.3, 1.0))),
        PlanarProfile(float(rng.uniform(0.2, 0.9))),
        CustomProfile([0.0, 0.7, 1.4, 2.0], sorted(rng.uniform(0.0, 1.0, 4)), 2.0),
    ]


def _random_in_class(rng, d):
    """A nondecreasing d-Lipschitz PL function and the largest t with f in L(d, t)."""
    if rng.random() < 0.5:
        f = from_slopes(rng.uniform(0.0, d, int(rng.integers(2, 9))).tolist())
    else:
        x0 = float(rng.integers(1, 16)) / 16.0
        s1, s2 = (float(v) for v in rng.uniform(0.0, d, 2))
        f = PLFunction((0.0, x0, 1.0), (0.0, s1 * x0, s1 * x0 + s2 * (1.0 - x0)))
    t = min(y / x for x, y in zip(f.xs[1:], f.ys[1:]))
    assert f.is_nondecreasing() and f.in_class(d, t)
    return f


def test_pruning_bound_is_a_lower_bound():
    """The quarter-sub-grid value never exceeds the grid value, also when
    the grid size is not a multiple of 4."""
    rng = np.random.default_rng(11)
    for _ in range(12):
        for D in _all_profiles(rng):
            f = _random_in_class(rng, D.d)
            tau = float(rng.choice([0.05, 0.1, 0.2, 0.3]))
            for grid_n in (80, 96, 101):
                fine, _ = sigma_for_f(D, f, tau, grid_n)
                [coarse] = sigma._pruning_bounds(D, [f], tau, sigma._grid(grid_n))
                assert coarse <= fine + 1e-12, (type(D).__name__, grid_n, coarse, fine)


def test_batched_pruning_bounds_equal_grid_dp():
    """One DP over a batch of functions with the same breakpoints gives each
    one's value from a DP of its own on the quarter sub-grid, and the dense
    reference's, bit for bit: two-slope rows with the breakpoint x0 = k/16
    (mostly off the sub-grid) and random slope vectors with some decreasing
    pieces, in batches of 1 to 17."""
    rng = np.random.default_rng(14)
    sizes = itertools.cycle(range(1, 18))
    for grid_n in (80, 96, 101, 400, 800):
        xs = sigma._grid(grid_n)
        for D in _all_profiles(rng):
            d = D.d
            for kind in ("two_slope", "slopes"):
                tau = float(rng.choice([0.01, 0.02, 0.05, 0.125, 0.3, 0.5]))
                size = next(sizes)
                low = -d / 4.0 if rng.random() < 0.3 else 0.0
                if kind == "two_slope":
                    x0 = int(rng.integers(1, 16)) / 16.0
                    s1 = float(rng.uniform(low, d))
                    fs = [PLFunction((0.0, x0, 1.0), (0.0, s1 * x0, s1 * x0 + s2 * (1.0 - x0)))
                          for s2 in rng.uniform(low, d, size).tolist()]
                else:
                    n_segments = int(rng.integers(2, 17))
                    fs = [from_slopes(rng.uniform(low, d, n_segments).tolist())
                          for _ in range(size)]
                bounds = sigma._pruning_bounds(D, fs, tau, xs)
                case = (grid_n, tau, type(D).__name__, kind, size)
                assert bounds.shape == (size,), case
                assert bounds.tolist() == [sigma._dp(D, [f], tau, xs[::4])[0][0, -1]
                                           for f in fs], case
                assert bounds.tolist() == [grid_dp_dense_reference(D, f, tau, xs[::4])[0]
                                           for f in fs], case


@pytest.mark.parametrize("d, t", [(2.0, 1.0), (2.0, 0.125), (3.0, 1.5), (3.0, 2.25)])
def test_two_slope_class_filter_matches_in_class(d, t):
    """The row-wise class test of the two-slope phase agrees with
    PLFunction.in_class and with a scalar reference on every (k, s1, s2),
    including functions that touch the line t*x, some only up to rounding
    (x0 = k/3 or k/7), or have slope exactly d."""
    fine = np.array([d * i / 16.0 for i in range(17)])
    touching = 0
    for n_segments in (3, 4, 7, 16):
        for k in range(1, n_segments):
            x0 = k / n_segments
            bx = (0.0, x0, 1.0)
            for s1 in fine.tolist():
                ys = np.zeros((len(fine), 3))
                ys[:, 1] = s1 * x0
                ys[:, 2] = s1 * x0 + fine * (1.0 - x0)
                rows = _in_class_rows(bx, ys, d, t)
                for s2, row in zip(fine.tolist(), rows.tolist()):
                    y = (0.0, s1 * x0, s1 * x0 + s2 * (1.0 - x0))
                    slopes = [(y[1] - y[0]) / x0, (y[2] - y[1]) / (1.0 - x0)]
                    ref = (all(abs(s) <= d + 1e-9 for s in slopes)
                           and all(v >= t * x - 1e-9 for x, v in zip(bx, y)))
                    assert row == ref == PLFunction(bx, y).in_class(d, t), (k, s1, s2)
                    touching += abs(y[1] - t * x0) < 1e-12 or abs(y[2] - t) < 1e-12
    assert touching > 0


_SEARCH_CONFIGS = {
    # 5**4 = 625 slope vectors fit the budget: exhaustive enumeration
    "exhaustive": (PlanarProfile(0.4), 1.0, 0.1,
                   dict(budget=700, n_segments=4, slope_levels=[0.0, 0.5, 1.0, 1.5, 2.0])),
    # 9**4 > budget; the two-slope phase alone uses up the budget
    "two_slope": (KaufmanProfile(0.8), 0.6, 0.1, dict(budget=120, n_segments=4)),
    # the two-slope phase has 137 feasible shapes (t = 3/4 d), fewer than
    # the budget, so the random and descent phases run
    "random_descent": (HighDimProfile(3, 1.2), 2.25, 0.125,
                       dict(budget=148, n_segments=4, seed=0)),
    "random_descent_planar": (PlanarProfile(0.6), 1.5, 0.125,
                              dict(budget=148, n_segments=4, seed=3)),
}


@pytest.mark.parametrize("name", list(_SEARCH_CONFIGS))
def test_pruned_sigma_tau_equals_full_evaluation(name, monkeypatch):
    D, t, tau, kwargs = _SEARCH_CONFIGS[name]
    random_calls = []
    real_random = sigma._feasible_random_slopes
    monkeypatch.setattr(sigma, "_feasible_random_slopes",
                        lambda *a: random_calls.append(1) or real_random(*a))
    pruned = sigma_tau(D, t, tau, **kwargs)
    phase_calls = len(random_calls)
    # bounding one candidate at a time prunes the same candidates
    monkeypatch.setattr(sigma, "_BATCH", 1)
    single = sigma_tau(D, t, tau, **kwargs)
    monkeypatch.setattr(sigma, "_pruning_bounds", lambda D, fs, *a: np.full(len(fs), -math.inf))
    full = sigma_tau(D, t, tau, **kwargs)

    assert repr(single) == repr(pruned)
    assert single.decomposition.entries == pruned.decomposition.entries
    assert pruned.estimate == full.estimate
    assert pruned.certificate.xs == full.certificate.xs
    assert pruned.certificate.ys == full.certificate.ys
    assert pruned.decomposition.entries == full.decomposition.entries
    assert pruned.n_candidates == full.n_candidates
    assert full.n_full_evals == full.n_candidates
    assert 1 <= pruned.n_full_evals < pruned.n_candidates
    budget = kwargs["budget"]
    if name == "exhaustive":
        assert phase_calls == 0 and pruned.n_candidates < budget
    elif name == "two_slope":
        assert phase_calls == 0 and pruned.n_candidates >= budget
    else:
        # the random phase ran, and descent evaluated past the budget
        assert phase_calls > 0 and pruned.n_candidates > budget


def test_lipschitz_scan_monotone():
    D = KaufmanProfile(0.8)
    rows = lipschitz_scan(D, [0.4, 0.8, 1.2], 0.1, budget=100, n_segments=4,
                          slope_levels=[0.0, 0.5, 1.0, 1.5, 2.0])
    ests = [r["estimate"] for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(ests, ests[1:]))
    assert all("modulus" in r for r in rows[1:])


def test_verify_planar_bound_smoke():
    rep = verify_planar_bound(1.0, 0.3, tau=0.05, budget=60,
                              s_grid=[0.1, 0.3], n_segments=4,
                              slope_levels=[0.0, 0.5, 1.0, 1.5, 2.0])
    assert {"s", "margin", "certificate", "base_case"} <= set(rep["rows"][0])
    assert rep["rows"][0]["base_case"] is True
