import math

import numpy as np
import pytest

from dimlab.dyadic import (
    DyadicMeasure,
    _entropies,
    _fsum,
    _group_rows,
    _sum_by_key,
    build_from_atoms,
    restrict_normalize,
)
from dimlab.generators import gen_cantor_product
from dimlab.geometry import DirectionMeasure
from dimlab.uniformize import decompose_uniform, extract_uniform
from oracles import (
    build_from_atoms_reference,
    capped_fill_entropy_reference,
    cell_table_reference,
    cell_text_reference,
    decompose_uniform_reference,
    exact_split_measure,
    extract_uniform_reference,
    leaf_dict,
    level_masses_reference,
    min_cells_bruteforce,
    random_measure,
    restrict_normalize_reference,
    robust_entropy_bruteforce,
    shannon_reference,
)


def test_construction_rejects_bad_leaves():
    with pytest.raises(ValueError):
        DyadicMeasure(2, 4, {(0, 0): -1.0})
    with pytest.raises(ValueError):
        DyadicMeasure(2, 4, {(16, 0): 1.0})
    with pytest.raises(ValueError):
        DyadicMeasure(2, 4, {(0,): 1.0})
    # truncating 1.2 and 1.7 to 1 would merge them into one leaf of mass 0.5
    for leaves in ({(1.2,): 0.5, (1.7,): 0.5}, {(math.inf,): 1.0}, {(math.nan,): 1.0}):
        with pytest.raises(ValueError):
            DyadicMeasure(1, 2, leaves)
    assert leaf_dict(DyadicMeasure(2, 4, {(1.0, np.int64(2)): 1.0})) == {(1, 2): 1.0}
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            DyadicMeasure(1, 2, {(0,): bad})
        with pytest.raises(ValueError):
            DyadicMeasure.from_text(f"1 2\n0 {bad}\n")
    assert DyadicMeasure(2, 4, {}).trivial
    assert DyadicMeasure(2, 4, {(0, 0): 0.0}).trivial


def test_level_masses_consistency():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu = random_measure(rng, d=2, m=6, n_leaves=25)
        for level in range(0, 6):
            coarse = mu.level_masses(level)
            fine = mu.level_masses(level + 1)
            # children sum to parents
            acc = {}
            for c, v in fine.items():
                p = tuple(x >> 1 for x in c)
                acc[p] = acc.get(p, 0.0) + v
            assert set(acc) == set(coarse)
            for k in coarse:
                assert abs(acc[k] - coarse[k]) < 1e-12
        assert abs(sum(mu.level_masses(0).values()) - 1.0) < 1e-9


def test_entropy_bounds_and_uniform():
    n = 16
    mu = DyadicMeasure(1, 4, {(i,): 1.0 / n for i in range(n)})
    assert abs(mu.entropy(4) - 4.0) < 1e-12
    assert abs(mu.entropy(2) - 2.0) < 1e-12
    rng = np.random.default_rng(1)
    for _ in range(50):
        mu = random_measure(rng, d=2, m=5, n_leaves=20)
        for level in (0, 2, 5):
            h = mu.entropy(level)
            assert 0.0 <= h <= level * mu.d + 1e-9
            # counting bound
            assert mu.box_count(level) >= 2.0 ** h - 1e-6


def test_entropy_requires_normalized():
    mu = DyadicMeasure(1, 2, {(0,): 2.0})
    with pytest.raises(ValueError):
        mu.entropy(2)


def test_entropies_rows_match_scalar_references():
    """Each row of _entropies, zero-padded to a common width, against the
    scalar Shannon sum (bit for bit) and the scalar capped fill."""
    rng = np.random.default_rng(9)
    for _ in range(50):
        rows = []
        for _ in range(int(rng.integers(1, 6))):
            p = rng.random(int(rng.integers(1, 40))) ** 3 + 1e-12
            rows.append(p / p.sum())
        width = max(len(p) for p in rows)
        P = np.zeros((len(rows), width))
        for P_row, p in zip(P, rows):
            P_row[: len(p)] = p
        got = _entropies(P)
        for h, p in zip(got.tolist(), rows):
            if len(p) == width:
                assert h == shannon_reference(p)
            assert abs(h - shannon_reference(p)) <= 1e-12
        cap = float(rng.uniform(1.0, 10.0))
        for h, p in zip(_entropies(P, cap).tolist(), rows):
            assert abs(h - capped_fill_entropy_reference(p.tolist(), cap)) <= 1e-12
    assert _entropies(np.array([[1.0, 0.0]])).tolist() == [0.0]
    assert math.copysign(1.0, _entropies(np.array([[1.0]]))[0]) == 1.0


def test_robust_entropy_against_bruteforce():
    rng = np.random.default_rng(42)
    for trial in range(200):
        n = int(rng.integers(2, 13))
        masses = rng.random(n) + 1e-3
        masses /= masses.sum()
        mu = DyadicMeasure(1, 4, {(i,): m for i, m in enumerate(masses)})
        Theta = float(rng.uniform(1.0, 4.0))
        fast = mu.robust_entropy(4, Theta)
        slow = robust_entropy_bruteforce(masses, Theta)
        assert abs(fast - slow) < 1e-9, (trial, fast, slow)


def test_robust_entropy_limits():
    rng = np.random.default_rng(3)
    mu = random_measure(rng, d=1, m=5, n_leaves=12)
    assert abs(mu.robust_entropy(5, 1.0) - mu.entropy(5)) < 1e-9
    # monotone nonincreasing in Theta
    prev = mu.entropy(5)
    for Theta in (1.5, 2.0, 4.0, 16.0):
        cur = mu.robust_entropy(5, Theta)
        assert cur <= prev + 1e-12
        prev = cur
    for bad in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            mu.robust_entropy(5, bad)


def test_robustness_check_against_bruteforce():
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(2, 21))
        masses = rng.random(n) + 1e-3
        masses /= masses.sum()
        mu = DyadicMeasure(1, 5, {(i,): m for i, m in enumerate(masses)})
        s = float(rng.uniform(0.1, 1.0))
        r = float(rng.uniform(0.05, 0.95))
        ok, witness = mu.robustness_check(5, s, r)
        kmin = min_cells_bruteforce(masses, r)
        threshold = 2.0 ** (5 * s)
        expect = kmin is None or kmin > threshold
        assert ok == expect, (trial, kmin, threshold)
        if not ok:
            assert witness.dtype == np.int64 and witness.shape == (kmin, 1)
            # the greedy cells, heaviest first, carry mass > r
            w = masses[witness[:, 0]]
            assert (np.diff(w) <= 0).all() and w.sum() > r


def test_frostman_fit_selfsimilar():
    # exact 1/2-dimensional measure: max mass at level j is 2^{-j/2}
    leaves = {}
    for i in range(16):
        bits = [(i >> b) & 1 for b in range(4)]
        # spread generation bits to even positions (quarter Cantor)
        coord = sum(b << (7 - 2 * g) for g, b in enumerate(bits))
        leaves[(coord,)] = 1.0 / 16
    mu = DyadicMeasure(1, 8, leaves)
    fit = mu.frostman_fit((2, 8))
    assert abs(fit.s - 0.5) < 0.05
    assert fit.C < 4.0
    assert fit.residual <= 1e-9


def test_frostman_fit_constant_cap():
    # one heavy atom forces the constant down via the exponent
    mu = DyadicMeasure(1, 10, {(0,): 0.5, **{(i,): 0.5 / 1023 for i in range(1, 1024)}})
    fit = mu.frostman_fit((1, 9))
    assert fit.C <= 4.0 + 1e-9
    # the heavy atom pins the exponent near zero
    assert fit.s < 0.5
    # a point at scales 2^-20..2^-25 that spreads evenly below them: the
    # least-squares slope 0.5 would need C = 2^12.5 at level 25, so the
    # exponent drops to 0.4, where C reaches the cap 2^10
    mu = DyadicMeasure(1, 30, {(i,): 1.0 / 32 for i in range(32)})
    fit = mu.frostman_fit((20, 30))
    assert fit.s == pytest.approx(0.4, abs=1e-12)
    assert 2.0 ** 10 * (1 - 1e-9) <= fit.C <= 2.0 ** 10 and fit.residual == 0.0


def test_finest_first_cells_equal_direct_grouping():
    """frostman_fit's finest-first cells (each level grouped from the next
    finer level's rows, the leaf index composed through the parent maps)
    equal the direct grouping of all leaves bit for bit, whether the range
    starts at the leaves or above them."""
    rng = np.random.default_rng(8)
    cases = [random_measure(rng, d=d, m=m, n_leaves=int(rng.integers(1, 300)))
             for d, m in ((1, 12), (2, 9), (3, 6), (2, 1)) for _ in range(3)]
    cases += [build_from_atoms([(tuple(rng.random(2).tolist()), float(rng.random()))
                                for _ in range(100)], 40),
              gen_cantor_product(0.25, 2, 16)]
    for mu in cases:
        for lo, hi in ((0, mu.m), (0, mu.m - 1), (mu.m // 2, mu.m - 1)):
            walked = list(mu._walk(lo, hi))
            assert [j for j, _, _ in walked] == list(range(hi, lo - 1, -1))
            for j, walk_rows, walk_sums in walked:
                rows, sums = _sum_by_key(mu.coords >> (mu.m - j), mu.masses)
                for got_rows, got_sums in ((walk_rows, walk_sums), mu.cells(j)):
                    assert np.array_equal(got_rows, rows)
                    assert got_sums.tobytes() == sums.tobytes()
    # cells at the finest level are the leaf arrays themselves
    mu = cases[-1]
    assert mu.cells(mu.m)[0] is mu.coords and mu.cells(mu.m)[1] is mu.masses


def test_group_rows_matches_np_unique():
    """_group_rows gives np.unique(keys, axis=0)'s rows and inverse, and the
    rows are the keys' rows at np.unique's return_index (the first of each
    group in input order): 1-3 columns, duplicates, spans that force the
    overflow path, one row and no rows."""
    rng = np.random.default_rng(23)
    cases = [rng.integers(0, hi, size=(n, k)) for k in (1, 2, 3)
             for n, hi in ((1, 5), (40, 3), (300, 50), (500, 1 << 20))]
    cases += [np.concatenate([c, c[::-1], c[:7]]) for c in cases[:6]]  # repeated rows
    cases += [np.zeros((0, k), dtype=np.int64) for k in (1, 2, 3)]
    # spans near 2^62 and beyond: the ranked (overflow) path
    big = [rng.integers(-(1 << 62), 1 << 62, size=(200, k)) for k in (1, 2, 3)]
    cases += big + [np.concatenate([b, b[::3]]) for b in big]
    cases += [np.array([[0, (1 << 62) - 1], [0, 0], [1, 5], [0, 0]])]
    for keys in cases:
        rows, first, inv = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        got_rows, got_inv = _group_rows(keys)
        assert np.array_equal(got_rows, rows) and np.array_equal(got_rows, keys[first])
        assert got_rows.shape == (len(rows), keys.shape[1])
        assert np.array_equal(got_inv, inv.ravel()) and got_inv.dtype == np.int64


def test_total_mass_is_fsum_bit_for_bit():
    """_fsum reads an array a slice at a time and still equals math.fsum over
    its list exactly: on cancellation-heavy signed arrays, and as the
    total_mass of measures and direction measures past 100K masses."""
    rng = np.random.default_rng(29)
    n = 150_001
    big = rng.random(n) * 2.0 ** rng.integers(-60, 60, size=n)
    for a in (np.concatenate([big, -big[::-1], rng.random(7) * 1e-30]),
              rng.permutation(np.concatenate([big, -big, [1e-300, 3.0]])),
              np.array([1e300, 1.0, -1e300, 1e-300]), np.empty(0)):
        assert _fsum(a).hex() == math.fsum(a.tolist()).hex()
    for w in (big, np.concatenate([[1e16], np.full(n, 1.0), [1e16]]), np.array([0.5])):
        mu = DyadicMeasure._from_arrays(1, 20, np.arange(len(w)).reshape(-1, 1), w)
        assert mu.total_mass.hex() == math.fsum(w.tolist()).hex()
        rho = DirectionMeasure(2, max(2, len(w)), np.arange(len(w)), w)
        assert rho.total_mass.hex() == math.fsum(w.tolist()).hex()


def test_mass_facts_are_fsum_and_min_equals_max():
    """Both measure types fix total_mass as math.fsum of the masses at
    construction, and keep equal masses equal (min == max): on random,
    equal, single and tiny masses, and on ten masses of 0.1, whose
    left-to-right sum reads 0.9999999999999999 while fsum and 10 * 0.1
    read 1.0."""
    rng = np.random.default_rng(31)
    cases = [np.full(10, 0.1), np.array([0.5]), np.array([5e-324]), np.full(3, 5e-324),
             np.full(1 << 16, 1.0 / 3), np.full(7, 1e300), rng.random(50) + 1e-3,
             rng.random(5) * 2.0 ** rng.integers(-60, 60, 5), np.array([0.1, 0.1, 0.2])]
    cases += [np.full(int(rng.integers(1, 500)), rng.random() * 2.0 ** rng.integers(-40, 40))
              for _ in range(200)]
    assert sum(cases[0].tolist()) == 0.9999999999999999 != 1.0 == 10 * 0.1
    for w in cases:
        mu = DyadicMeasure._from_arrays(1, 20, np.arange(len(w)).reshape(-1, 1), w.copy())
        rho = DirectionMeasure(2, max(2, len(w)), np.arange(len(w)), w)
        for nu in (mu, rho):
            assert nu.total_mass.hex() == math.fsum(w.tolist()).hex()
            assert type(nu.total_mass) is float
            assert bool(nu.masses.min() == nu.masses.max()) is bool(w.min() == w.max())
    mu = random_measure(rng, d=2, m=6, n_leaves=30)
    assert mu.total_mass == math.fsum(mu.masses.tolist()) and mu.masses.min() < mu.masses.max()
    zero = DyadicMeasure(2, 3, {})
    assert zero.trivial and zero.total_mass == 0.0
    assert DyadicMeasure(2, 3, {(1, 1): 0.0, (2, 2): 0.0}).total_mass == 0.0


def test_total_mass_that_overflows_is_rejected():
    """A total past the largest float is a ValueError, in both measure types,
    whether the masses are equal (n * w overflows) or not (fsum overflows)."""
    for w in ([1e308, 1e308], [1e308, 1.7e308, 5.0]):
        with pytest.raises(ValueError, match="overflows"):
            DyadicMeasure(1, 2, {(i,): v for i, v in enumerate(w)})
        with pytest.raises(ValueError, match="overflows"):
            DirectionMeasure(2, 4, np.arange(len(w)), w)
    assert DyadicMeasure(1, 1, {(0,): 1e308, (1,): 7e307}).total_mass == 1.7e308


def test_equal_masses_survive_normalizing_and_restricting():
    mu = DyadicMeasure(2, 4, {(i, j): 0.7 for i in range(3) for j in range(5)})
    assert mu.masses.min() == mu.masses.max() and mu.total_mass == 15 * 0.7
    assert not mu.normalized
    keep = np.arange(len(mu.masses)) % 4 != 1
    for nu in (mu.normalize(), restrict_normalize(mu, keep)):
        assert nu.masses.min() == nu.masses.max() and nu.normalized
        assert nu.total_mass == math.fsum(nu.masses.tolist())
    rng = np.random.default_rng(5)
    mu = random_measure(rng, d=2, m=6, n_leaves=40)
    for nu in (mu.normalize(), restrict_normalize(mu, np.arange(len(mu.masses)) < 20)):
        assert nu.masses.min() < nu.masses.max()


# (d, [(cell, mass), ...]) tables on the depth-4 grid, valid and malformed
CELL_TABLES = {
    "valid": (2, [((1, 2), 0.5), ((0, 3), 0.25), ((15, 15), 0.25)]),
    "valid_1d": (1, [((7,), 0.5), ((2,), 0.25), ((15,), 0.25)]),
    "integral_floats": (2, [((1.0, np.int64(2)), 1.0), ((3, 0.0), 2)]),
    "zero_mass": (2, [((1, 2), 0.5), ((3, 3), 0.0), ((0, 0), 0.5)]),
    "zero_mass_1d": (1, [((4,), 0.0), ((5,), 1.0)]),
    "all_zero": (1, [((4,), 0.0)]),
    "empty": (2, []),
    "nan_mass": (2, [((1, 2), 0.5), ((0, 3), math.nan)]),
    "inf_mass": (1, [((1,), math.inf)]),
    "negative_mass": (2, [((1, 2), 0.5), ((0, 3), -0.25)]),
    "negative_mass_1d": (1, [((1,), -1.0), ((2,), 1.0)]),
    "string_mass": (2, [((1, 2), "0.5"), ((0, 3), "0.5")]),
    "word_mass": (1, [((1,), 0.5), ((2,), "x")]),
    "fractional_cell": (2, [((1.5, 2), 0.5), ((1, 2), 0.5)]),
    "fractional_cell_1d": (1, [((2.5,), 1.0)]),
    "out_of_range": (2, [((16, 0), 1.0)]),
    "out_of_range_1d": (1, [((3,), 0.5), ((16,), 0.5)]),
    "negative_cell": (2, [((0, -1), 1.0)]),
    "string_cell": (2, [(("1", 2), 0.5), ((0, 3), 0.5)]),
    "string_cell_1d": (1, [(("3",), 1.0)]),
    "short_cell": (2, [((1, 2), 0.5), ((1,), 0.5)]),
    "long_cell": (2, [((1, 2, 3), 1.0)]),
    "long_cell_1d": (1, [((1, 2), 1.0)]),
    "duplicate": (2, [((1, 2), 0.5), ((0, 3), 0.25), ((1, 2), 0.25)]),
    "duplicate_1d": (1, [((3,), 0.5), ((3,), 0.5)]),
}


def _reference(build, must_carry_mass=False):
    """The reference's (coords, masses) arrays, or None if it raised (or,
    with `must_carry_mass`, if they hold no mass)."""
    try:
        coords, masses = build()
    except (ValueError, TypeError):
        return None
    return None if must_carry_mass and not len(masses) else (coords, masses)


def _arrays(build):
    """The cell arrays of the measure build() makes, as (n, k) rows and
    masses, or None if it raised ValueError (any other error fails)."""
    try:
        mu = build()
    except ValueError:
        return None
    if isinstance(mu, DirectionMeasure):
        return mu.index[:, None], mu.masses
    return mu.coords, mu.masses


def _assert_same(got, ref, case):
    assert (got is None) == (ref is None), case
    if ref is not None:
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), case


@pytest.mark.parametrize("case", sorted(CELL_TABLES))
def test_cell_tables_match_the_per_leaf_reference(case):
    """DyadicMeasure (from a Mapping and from text) and DirectionMeasure
    accept exactly the tables the per-leaf reference accepts, with the same
    arrays bit for bit, and reject the others with ValueError."""
    d, items = CELL_TABLES[case]
    leaves = dict(items)
    ref = _reference(lambda: cell_table_reference(d, 4, leaves.items()))
    _assert_same(_arrays(lambda: DyadicMeasure(d, 4, leaves)), ref, case)
    if ref is not None:
        text = DyadicMeasure(d, 4, leaves).to_text()
        _assert_same(_arrays(lambda: DyadicMeasure.from_text(text)), ref, case)
    lines = [" ".join(map(str, (*cell, mass))) for cell, mass in items]
    ref = _reference(lambda: cell_text_reference(lines, d, 4))
    text = "\n".join([f"{d} 4", *lines])
    _assert_same(_arrays(lambda: DyadicMeasure.from_text(text)), ref, case)
    if d == 1:
        # a direction measure must carry mass
        ref = _reference(lambda: cell_table_reference(1, 4, items), must_carry_mass=True)
        index, masses = [cell for cell, _ in items], [m for _, m in items]
        _assert_same(_arrays(lambda: DirectionMeasure(2, 16, index, masses)), ref, case)
        ref = _reference(lambda: cell_text_reference(lines, 1, 4), must_carry_mass=True)
        text = "\n".join(["sphere 2 16", *lines])
        _assert_same(_arrays(lambda: DirectionMeasure.from_text(text)), ref, case)


def test_zero_mass_cell_off_the_grid_is_rejected():
    """The one table the per-leaf reference accepts and the array rule does
    not: a zero-mass leaf that is off the grid, which the reference skipped
    unchecked."""
    for d, items in ((2, [((16, 0), 0.0), ((1, 1), 1.0)]), (1, [((-1,), 0.0), ((1,), 1.0)])):
        assert len(cell_table_reference(d, 4, items)[1]) == 1
        with pytest.raises(ValueError, match="off the grid"):
            DyadicMeasure(d, 4, dict(items))
        lines = "".join(f"{' '.join(map(str, c))} {m}\n" for c, m in items)
        with pytest.raises(ValueError, match="off the grid"):
            DyadicMeasure.from_text(f"{d} 4\n{lines}")
    with pytest.raises(ValueError, match="off the grid"):
        DirectionMeasure(2, 16, [16, 1], [0.0, 1.0])


def test_serialization_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mu = random_measure(rng, d=2, m=7, n_leaves=15)
        back = DyadicMeasure.from_text(mu.to_text())
        assert back.d == mu.d and back.m == mu.m
        assert leaf_dict(back) == leaf_dict(mu)


def test_serialization_rejects_garbage():
    with pytest.raises(ValueError):
        DyadicMeasure.from_text("")
    with pytest.raises(ValueError):
        DyadicMeasure.from_text("2\n")
    with pytest.raises(ValueError):
        DyadicMeasure.from_text("1 2\n0 0.5\n0 0.5\n")  # duplicate leaf
    with pytest.raises(ValueError):
        DyadicMeasure.from_text("2 2\n0 0.5\n")  # wrong arity


def test_build_from_atoms():
    mu = build_from_atoms([((0.1, 0.1), 1.0), ((0.9, 0.9), 3.0)], 3)
    assert leaf_dict(mu) == {(0, 0): 1.0, (7, 7): 3.0}
    with pytest.raises(ValueError):
        build_from_atoms([((1.2, 0.0), 1.0)], 3)
    assert build_from_atoms([((0.5,), 0.0)], 3).trivial
    # weights follow the cell tables' mass rule; a numeric string is no number
    for bad in (math.nan, math.inf, -1.0, "1.0"):
        with pytest.raises(ValueError, match="negative or not finite|must be numbers"):
            build_from_atoms([((0.1, 0.1), 1.0), ((0.9, 0.9), bad)], 3)
    with pytest.raises(ValueError):
        build_from_atoms([((0.1, 0.1), 1.0), ((0.9,), 1.0)], 3)  # atoms of two dimensions


def test_restrict_normalize_checks_mask():
    rng = np.random.default_rng(9)
    mu = random_measure(rng, d=2, m=6, n_leaves=40)
    keep = ((mu.coords >> 4) == mu.coords[0] >> 4).all(axis=1)
    res = restrict_normalize(mu, keep)
    assert abs(res.total_mass - 1.0) < 1e-9
    assert leaf_dict(res).keys() == set(map(tuple, mu.coords[keep].tolist()))
    # an integer array would select rows by index, a short mask only some leaves
    for bad in (keep.astype(np.int64), np.flatnonzero(keep), keep[:-1], np.zeros(len(keep))):
        with pytest.raises(ValueError):
            restrict_normalize(mu, bad)
    with pytest.raises(ValueError):
        restrict_normalize(mu, np.zeros(len(keep), dtype=bool))


def _mask(mu, level, kept):
    """Leaf mask of mu selecting the leaves inside the level-`level` cubes `kept`."""
    cubes = (mu.coords >> (mu.m - level)).tolist()
    return np.array([tuple(q) in kept for q in cubes], dtype=bool)


def _check_level_ops(mu):
    leaves, m = leaf_dict(mu), mu.m
    for level in range(m + 1):
        ref = level_masses_reference(leaves, m, level)
        assert mu.level_masses(level) == ref
        kept = set(sorted(ref)[::2])
        if kept:
            got = leaf_dict(restrict_normalize(mu, _mask(mu, level, kept)))
            assert got == restrict_normalize_reference(leaves, m, level, kept)


def _pieces(pieces):
    """(beta, renormalized leaves, mass_retained) of each piece, as the
    uniformize oracles give them."""
    return [(p.beta, leaf_dict(p.measure), p.mass_retained) for p in pieces]


def test_array_core_matches_dict_loops():
    rng = np.random.default_rng(12)
    trivial = DyadicMeasure(2, 4, {})
    _check_level_ops(trivial)
    with pytest.raises(ValueError):
        extract_uniform(trivial, 2)
    for d in (1, 2, 3):
        for _ in range(8):
            m = int(rng.integers(1, 9 if d < 3 else 7))
            _check_level_ops(random_measure(rng, d=d, m=m, n_leaves=int(rng.integers(1, 150))))
        pts = [(tuple(rng.random(d).tolist()), float(rng.random())) for _ in range(200)]
        pts += pts[:40]
        deep = build_from_atoms(pts, 40)
        assert leaf_dict(deep) == build_from_atoms_reference(pts, 40)
        _check_level_ops(deep.normalize())
    # the acceptance-06 family (d = 2, m = 8, T = 2), d = 1 and d = 3, then
    # measures whose ratios sit exactly on the class boundaries
    cases = [random_measure(rng, d=d, m=m, n_leaves=int(rng.integers(5, 120)))
             for d, m, count in ((2, 8, 30), (1, 8, 10), (3, 6, 10)) for _ in range(count)]
    cases += [exact_split_measure(rng, d, m) for d, m in ((1, 8), (2, 6), (3, 4)) * 4]
    for mu in cases:
        leaves, d, m = leaf_dict(mu), mu.d, mu.m
        assert _pieces([extract_uniform(mu, 2)]) == [extract_uniform_reference(leaves, m, d, 2)]
        assert _pieces(decompose_uniform(mu, 2, 0.2)) == \
            decompose_uniform_reference(leaves, m, d, 2, 0.2)


def test_decomposition_matches_dict_loops_at_benchmark_size():
    """decompose_uniform against the dict-loop oracle on measures as large as
    the uniform_profile workload's (50-400 leaves), piece by piece: beta, the
    renormalized leaves bit for bit, and mass_retained.  Besides random
    masses and exact splits, equal masses on random supports, as every
    shipped scene generator but circle_pair gives them."""
    rng = np.random.default_rng(21)
    cases = [random_measure(rng, d=2, m=8, n_leaves=int(rng.integers(50, 401)))
             for _ in range(10)]
    cases += [random_measure(rng, d=d, m=m, n_leaves=int(rng.integers(50, 401)))
              for d, m in ((1, 8), (3, 6)) for _ in range(3)]
    cases += [exact_split_measure(rng, d, m) for d, m in ((1, 12), (2, 6), (3, 6)) * 2]
    supports = [random_measure(rng, d=d, m=m, n_leaves=int(rng.integers(50, 401)))
                for d, m in ((2, 8),) * 6 + ((1, 8), (3, 6)) * 2]
    cases += [DyadicMeasure._from_arrays(mu.d, mu.m, mu.coords, np.ones(len(mu.masses))).normalize()
              for mu in supports]
    for mu in cases:
        assert _pieces(decompose_uniform(mu, 2, 0.2)) == \
            decompose_uniform_reference(leaf_dict(mu), mu.m, mu.d, 2, 0.2)


def test_measure_holds_only_its_arrays():
    """No query leaves anything on the measure: it keeps d, m, its two
    arrays and the facts fixed at construction (trivial and total_mass),
    and nothing else derived from them."""
    mu = gen_cantor_product(0.25, 2, 8).normalize()
    attrs = {"d", "m", "coords", "masses", "trivial", "total_mass"}
    assert set(vars(mu)) == attrs
    mu.cells(3), mu.cells(mu.m), mu.leaf_centers(), mu.frostman_fit((1, 7))
    mu.entropy(4), mu.robust_entropy(4, 2.0), mu.box_count(5), mu.robustness_check(4, 0.5, 0.5)
    assert set(vars(mu)) == attrs


def test_measure_arrays_reject_writes():
    mu = random_measure(np.random.default_rng(3), d=2, m=5, n_leaves=10)
    for arr in (mu.coords, mu.masses, mu.leaf_centers(), *mu.cells(2)):
        with pytest.raises(ValueError):
            arr[0] = 0
