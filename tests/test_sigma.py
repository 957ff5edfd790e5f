import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dimlab import sigma
from dimlab.plf import PLFunction, _in_class_rows, _shape_rows, from_slopes, linear
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
    phi,
    sigma_for_f,
    sigma_tau,
    verify_planar_bound,
)
from oracles import (
    grid_dp_dense_reference,
    random_plf,
    sigma_value_bruteforce,
    two_slope_class_count,
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
    assert f.in_class(2.0, 1.0)
    assert not f.in_class(2.0, 1.6)
    assert f.class_violation(2.0, 1.6)[0] == "below-line"
    assert f.class_violation(0.5, 0.0)[0] == "lipschitz"
    # zip would drop the slopes past the last breakpoint
    for xs in ([0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0]):
        with pytest.raises(ValueError, match="breakpoints"):
            from_slopes([1.0, 1.0, 1.0], xs)
    assert from_slopes([1.0, 3.0], [0.0, 0.25, 1.0]).ys == (0.0, 0.25, 2.5)


def test_shape_drops_only_exactly_collinear_breakpoints():
    [line] = _shape_rows((0.0, 1.0), [(0.0, 1.0)])
    # slopes 1 and 1: the same function as the line
    assert _shape_rows((0.0, 0.5, 1.0), [(0.0, 0.5, 1.0)]) == [line]
    assert _shape_rows((0.0, 0.25, 0.5, 1.0), [(0.0, 0.25, 0.5, 1.0)]) == [line]
    # slopes 1 - 2**-53 and 1, one ulp apart: a kink, kept
    bent = (0.0, np.nextafter(0.5, 0.0), 1.0)
    left, right = np.diff(bent) / 0.5
    assert np.nextafter(left, 2.0) == right
    shapes = _shape_rows((0.0, 0.5, 1.0), [bent, (0.0, 0.5, 1.0), (0.0, 0.5, 1.5)])
    assert shapes[1] == line
    assert len({*shapes, line}) == 3
    assert shapes[0] == np.array([[0.0, 0.0], [0.5, bent[1]], [1.0, 1.0]]).tobytes()
    # one row at a time gives the same shapes
    assert shapes == [_shape_rows((0.0, 0.5, 1.0), [y])[0]
                      for y in (bent, (0.0, 0.5, 1.0), (0.0, 0.5, 1.5))]


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


def test_profile_formulas_keep_their_bits():
    """The in-place planar and high-dim formulas give the floats of
    np.where(t <= s, t, np.where(t <= s', s + eta, t / 2)) and
    np.maximum(np.minimum(1, s + t - (d - 1)), t / d) bit for bit: on a
    dense t grid holding s and s' and their neighbouring floats, with s'
    capped at 2 and t beyond it, and for 0-d input."""
    ts = np.linspace(0.0, 3.5, 35001)
    for D in (PlanarProfile(0.4), PlanarProfile(0.5713, eta=0.0137), PlanarProfile(1.5, eta=0.6)):
        marks = np.array([D.s, D.s_prime])
        t = np.sort(np.concatenate([ts, marks, np.nextafter(marks, 0.0), np.nextafter(marks, 4.0)]))
        old = np.where(t <= D.s, t, np.where(t <= D.s_prime, D.s + D.eta, t / 2.0))
        assert D(t).tobytes() == old.tobytes(), D.s
        for x in (0.0, D.s, D.s_prime, 1.0, 2.0, 3.0):
            value = D(np.float64(x))
            assert type(value) is float and value == old[np.searchsorted(t, x)], (D.s, x)
    assert PlanarProfile(1.5, eta=0.6).s_prime == 2.0
    for d, s_ in ((2, 0.7), (3, 1.2), (3, 1.45), (5, 3.3)):
        D = HighDimProfile(d, s_)
        t = np.linspace(0.0, float(d), 35001)
        old = np.maximum(np.minimum(1.0, s_ + t - (d - 1.0)), t / d)
        assert D(t).tobytes() == old.tobytes(), (d, s_)
        assert D(np.array(0.5)) == float(np.maximum(np.minimum(1.0, s_ + 0.5 - (d - 1.0)), 0.5 / d))


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
        assert not is_superlinear(f, a, b, sigma + 1e-6)


def test_decomposition_check_rejects_bad_families():
    f = linear(1.0)
    dec = IntervalDecomposition([(0.2, 0.5, 1.0)], tau=0.1)
    with pytest.raises(ValueError):
        dec.check()  # b - a > a
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
    res = sigma_tau(D, 1.0, 0.1, budget=200)
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
                    _assert_dp_matches_dense(D, f, tau, xs, (grid_n, len(xs), tau))


def _assert_dp_matches_dense(D, f, tau, xs, case):
    """sigma._dp's value and rises and sigma._certificate's entries on the
    grid xs are the dense reference's, bit for bit."""
    best, arg, sig = sigma._dp(D, [f], tau, xs, record=True)
    entries = sigma._certificate(xs, best[0], arg, sig)
    ref_value, ref_take, Bg = grid_dp_dense_reference(D, f, tau, xs)
    case = (*case, type(D).__name__)
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
        ref_entries.append((float(xs[i]), float(xs[j]), float(np.clip(Bg[i, j], 0.0, D.d))))
        j = i
    assert entries == ref_entries[::-1], case


def test_grid_dp_matches_dense_reference_at_panel_seams():
    """The DP's chords run panel by panel, each panel's rows carrying their
    least slopes from the panel before.  With a breakpoint strictly between
    each pair of neighbouring grid points around the first and the last
    panel seam, the DP still matches the dense reference bit for bit, on its
    own and in a batch: on grids of several panels, on a grid narrower than
    one panel, and on the 1/16 sub-grid of 800, whose sweep blocks are one
    column wide."""
    rng = np.random.default_rng(22)
    grid800 = sigma._grid(800)
    for xs, tau, n_panels in ((sigma._grid(400), 0.02, None), (sigma._grid(400), 0.05, None),
                              (sigma._grid(101), 0.125, None), (sigma._grid(24), 0.125, 1),
                              (grid800[::16], 0.01, None), (grid800[::4], 0.01, None)):
        # the panel widths of `_dp` for one function and for a batch of three
        plans = [sigma._plan(xs, tau, w) for w in (sigma._PANEL, max(32, sigma._PANEL // 3))]
        seams = [[p[4] for p in panels[1:]] for panels in plans]
        if n_panels is None:
            assert all(seams), (len(xs), tau)
            ends = [c for cs in seams for c in (cs[0], cs[-1])]
            cuts = np.unique(np.clip(np.add.outer(ends, np.arange(-2, 3)), 1, len(xs) - 1))
        else:
            assert len(plans[0]) == n_panels, (len(xs), tau)
            cuts = np.arange(1, len(xs))
        if len(xs) == 51:
            assert all(j1 - j0 == 1 for p in plans[0] for j0, j1, _, _ in p[6])
        bx = np.concatenate([[0.0], (xs[cuts - 1] + xs[cuts]) / 2.0, [1.0]])
        for D in _all_profiles(rng):
            fs = []
            for _ in range(3):
                low = -D.d / 4.0 if rng.random() < 0.3 else 0.0
                slopes = rng.uniform(low, D.d, len(bx) - 1)
                ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(bx))])
                fs.append(PLFunction(tuple(bx.tolist()), tuple(ys.tolist())))
                _assert_dp_matches_dense(D, fs[-1], tau, xs, (len(xs), tau))
            batch = sigma._dp(D, fs, tau, xs)[0][:, -1]
            assert batch.tolist() == [sigma._dp(D, [f], tau, xs)[0][0, -1] for f in fs]


def test_sigma_for_f_memory_at_grid_3200():
    """A full evaluation at grid 3200 (tau = 0.0025) holds one column
    panel's slopes and weights at a time: its traced peak, the plan it
    builds included, stays under 16 MB, where a dense (n+1)^2 weight matrix
    alone would be 82 MB."""
    f = PLFunction((0.0, 0.3141, 1.0), (0.0, 0.53397, 0.9455099999999999))
    sigma._PLANS.clear()
    tracemalloc.start()
    try:
        value, dec = sigma_for_f(PlanarProfile(0.4), f, 0.0025, 3200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert value == 0.5460625000000054 and len(dec.entries) == 224


def test_plan_cache_is_bounded_by_bytes(monkeypatch):
    """The plans kept hold at most _PLAN_BYTES of masks, dropping the least
    recently used first, but always the plan just asked for."""
    monkeypatch.setattr(sigma, "_PLANS", {})
    xs = sigma._grid(3200)
    taus = [0.0025, 0.003, 0.0035, 0.004]
    key = lambda tau: (xs.tobytes(), tau, 48)
    sizes = {tau: sum(p[-1].nbytes for p in sigma._plan(xs, tau, 48)) for tau in taus}
    kept = lambda: sum(v[1] for v in sigma._PLANS.values())
    assert sum(sizes.values()) > sigma._PLAN_BYTES >= 3 * max(sizes.values())
    assert list(sigma._PLANS) == [key(tau) for tau in taus[1:]]
    assert kept() == sum(sizes[tau] for tau in taus[1:]) <= sigma._PLAN_BYTES
    # a hit moves the oldest plan to the back, so a miss drops the next one
    panels = sigma._plan(xs, taus[1], 48)
    sigma._plan(xs, 0.0045, 48)
    assert list(sigma._PLANS) == [key(taus[3]), key(taus[1]), key(0.0045)]
    assert kept() <= sigma._PLAN_BYTES and sigma._plan(xs, taus[1], 48) is panels
    monkeypatch.setattr(sigma, "_PLAN_BYTES", 1)
    panels = sigma._plan(xs, 0.01, 48)
    assert list(sigma._PLANS) == [key(0.01)] and sigma._plan(xs, 0.01, 48) is panels


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
    assert np.all(f.slopes() >= 0) and f.in_class(d, t)
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


def test_coarse_bound_below_quarter_bound_below_grid_value():
    """The 1/16 sub-grid value (`_pruning_bounds` on xs[::4]) is at most the
    quarter sub-grid value, which is at most the grid value, each up to
    1e-12: functions with breakpoints k/16, on or off the sub-grids, and at
    random points."""
    rng = np.random.default_rng(19)
    for grid_n in (80, 96, 101, 400, 800):
        xs = sigma._grid(grid_n)
        for D in _all_profiles(rng):
            tau = float(rng.choice([0.01, 0.02, 0.05, 0.1, 0.2, 0.3]))
            fs = [_random_in_class(rng, D.d), _dp_function(rng, D.d, grid_n, on_grid=False)]
            for f in fs:
                [coarse] = sigma._pruning_bounds(D, [f], tau, xs[::4])
                [quarter] = sigma._pruning_bounds(D, [f], tau, xs)
                value = sigma._dp(D, [f], tau, xs)[0][0, -1]
                case = (grid_n, tau, type(D).__name__, f.xs)
                assert coarse <= quarter + 1e-12, case
                assert quarter <= value + 1e-12, case


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
    # the ladder uses up the budget at its first breakpoint x0 = 1/16
    "two_slope": (KaufmanProfile(0.8), 0.6, 0.1, 120),
    # 602 two-slope functions lie in the class (t = 3/4 d): the ladder runs
    # out below the budget
    "ladder_below_budget": (HighDimProfile(3, 1.2), 2.25, 0.125, 700),
    "ladder_below_budget_planar": (PlanarProfile(0.6), 1.5, 0.125, 700),
}


@pytest.mark.parametrize("name", list(_SEARCH_CONFIGS))
def test_pruned_sigma_tau_equals_full_evaluation(name, monkeypatch):
    D, t, tau, budget = _SEARCH_CONFIGS[name]
    pruned = sigma_tau(D, t, tau, budget)
    # bounding one candidate at a time prunes the same candidates
    monkeypatch.setattr(sigma, "_BATCH", 1)
    single = sigma_tau(D, t, tau, budget)
    monkeypatch.setattr(sigma, "_pruning_bounds", lambda D, fs, *a: np.full(len(fs), -math.inf))
    full = sigma_tau(D, t, tau, budget)

    assert repr(single) == repr(pruned)
    assert single.decomposition.entries == pruned.decomposition.entries
    assert pruned.estimate == full.estimate
    assert pruned.certificate.xs == full.certificate.xs
    assert pruned.certificate.ys == full.certificate.ys
    assert pruned.decomposition.entries == full.decomposition.entries
    assert pruned.n_candidates == full.n_candidates
    assert full.n_full_evals + full.n_repeated == full.n_candidates
    assert pruned.n_repeated == single.n_repeated == full.n_repeated
    assert 1 <= pruned.n_full_evals < pruned.n_candidates
    if name == "two_slope":
        assert pruned.n_candidates >= budget
    else:
        # the line, then every in-class function of the two-slope ladder
        assert pruned.n_candidates == 1 + two_slope_class_count(D.d, t) < budget


def _set_coarse_stage(monkeypatch, grid_n, tight):
    """Make the 1/16 sub-grid stage of sigma_tau on the grid {i/grid_n}
    prune nothing, or with `tight` prune by the quarter sub-grid bound, the
    tightest bound it may use; the quarter sub-grid stage stays as it is."""
    real = sigma._pruning_bounds
    xs = sigma._grid(grid_n)

    def bounds(D, fs, tau, sub):
        if len(sub) == len(xs):
            return real(D, fs, tau, sub)
        return real(D, fs, tau, xs) if tight else np.full(len(fs), -math.inf)
    monkeypatch.setattr(sigma, "_pruning_bounds", bounds)


@pytest.mark.parametrize("name", list(_SEARCH_CONFIGS))
def test_coarse_stage_changes_no_search(name, monkeypatch):
    """Screening on the 1/16 sub-grid first prunes no candidate that the
    quarter sub-grid bound would let through: the result is the same
    without it, and each candidate is pruned by one stage or fully
    evaluated."""
    D, t, tau, budget = _SEARCH_CONFIGS[name]
    grid_n = sigma._default_grid_n(tau)
    both = sigma_tau(D, t, tau, budget)
    _set_coarse_stage(monkeypatch, grid_n, tight=False)
    quarter = sigma_tau(D, t, tau, budget)
    _set_coarse_stage(monkeypatch, grid_n, tight=True)
    tight = sigma_tau(D, t, tau, budget)
    for res in (quarter, tight):
        assert repr(res) == repr(both)
        assert res.decomposition.entries == both.decomposition.entries
    for res in (both, quarter, tight):
        assert (res.n_full_evals + res.n_pruned_coarse + res.n_pruned_quarter
                + res.n_repeated == res.n_candidates)
    assert quarter.n_pruned_coarse == tight.n_pruned_quarter == 0


def _acceptance_03_searches():
    return [sigma_tau(HighDimProfile(3, s), 1.5, 0.02, budget=2600)
            for s in (1.05, 1.2, 1.35, 1.45)]


def test_coarse_stage_keeps_highdim_full_evaluations(monkeypatch):
    """Acceptance 03's searches make the same full evaluations with and
    without the 1/16 sub-grid stage, which prunes most of their candidates;
    each skips 127 repeats, the lines linear(s1), s1 >= t, that the
    two-slope phase builds at each of its 15 breakpoints x0."""
    both = _acceptance_03_searches()
    assert [res.n_full_evals for res in both] == [2, 4, 5, 6]
    assert [res.n_repeated for res in both] == [127] * 4
    assert all(res.n_pruned_coarse > 0.9 * res.n_candidates for res in both)
    _set_coarse_stage(monkeypatch, sigma._default_grid_n(0.02), tight=False)
    assert [res.n_full_evals for res in _acceptance_03_searches()] == [2, 4, 5, 6]


@pytest.mark.parametrize("name", [*_SEARCH_CONFIGS, "acceptance_03"])
def test_skipping_repeated_shapes_changes_no_search(name, monkeypatch):
    """Skipping candidates of a shape already seen gives the same result as
    bounding or evaluating every candidate: a shape key unique to each
    candidate makes none of them a repeat."""
    def searches():
        if name == "acceptance_03":
            return _acceptance_03_searches()
        D, t, tau, budget = _SEARCH_CONFIGS[name]
        return [sigma_tau(D, t, tau, budget)]
    skipped = searches()
    monkeypatch.setattr(sigma, "_shape_rows", lambda xs, ys: [object() for _ in ys])
    every = searches()
    for a, b in zip(skipped, every):
        assert a.estimate == b.estimate
        assert a.certificate == b.certificate
        assert a.decomposition.entries == b.decomposition.entries
        assert a.n_candidates == b.n_candidates
        assert b.n_repeated == 0
        assert a.n_full_evals <= b.n_full_evals
    # the two-slope search spends its budget at its first breakpoint x0, where
    # each line appears once, and t = 0.6 is no slope level
    assert (sum(res.n_repeated for res in skipped) > 0) == (name != "two_slope")


def test_verify_planar_bound_smoke():
    rep = verify_planar_bound(1.0, 0.3, tau=0.05, budget=60)
    assert {"s", "margin", "certificate", "base_case"} <= set(rep["rows"][0])
    assert rep["rows"][0]["base_case"] is True

