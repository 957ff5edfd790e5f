import math

import numpy as np
import pytest

from dimlab.dyadic import (
    DyadicMeasure,
    _entropies,
    _sum_by_key,
    build_from_atoms,
    restrict_normalize,
)
from dimlab.generators import gen_cantor_product
from dimlab.uniformize import decompose_uniform, extract_uniform
from oracles import (
    build_from_atoms_reference,
    capped_fill_entropy_reference,
    decompose_uniform_reference,
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
    fit = mu.frostman_fit((1, 9), max_log2_C=2.0)
    assert fit.C <= 4.0 + 1e-9
    # the heavy atom pins the exponent near zero once C is capped
    assert fit.s < 0.5


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
            fresh = DyadicMeasure._from_arrays(mu.d, mu.m, mu.coords, mu.masses)
            fresh._cache_levels(lo, hi)
            assert sorted(fresh._cells) == list(range(lo, min(hi, mu.m - 1) + 1))
            for j in range(lo, hi + 1):
                rows, sums = _sum_by_key(mu.coords >> (mu.m - j), mu.masses)
                assert np.array_equal(fresh.cells(j)[0], rows)
                assert fresh.cells(j)[1].tobytes() == sums.tobytes()
    # cells at the finest level are the leaf arrays themselves
    mu = cases[-1]
    assert mu.cells(mu.m)[0] is mu.coords and mu.cells(mu.m)[1] is mu.masses


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


def _exact_split_measure(rng, d, m):
    """Each cube splits its mass equally over 1, 2 or 4 of its children, so
    every ratio to an ancestor is an exact power of two: the ratio-class
    boundaries of the extraction are hit exactly."""
    leaves = {(0,) * d: 1.0}
    sizes = [k for k in (1, 2, 4) if k <= 2 ** d]
    for _ in range(m):
        nxt = {}
        for key, mass in leaves.items():
            n = int(rng.choice(sizes))
            for child in rng.choice(2 ** d, size=n, replace=False).tolist():
                nxt[tuple(2 * c + (child >> i & 1) for i, c in enumerate(key))] = mass / n
        leaves = nxt
    return DyadicMeasure(d, m, leaves)


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
    cases += [_exact_split_measure(rng, d, m) for d, m in ((1, 8), (2, 6), (3, 4)) * 4]
    for mu in cases:
        leaves, d, m = leaf_dict(mu), mu.d, mu.m
        assert _pieces([extract_uniform(mu, 2)]) == [extract_uniform_reference(leaves, m, d, 2)]
        assert _pieces(decompose_uniform(mu, 2, 0.2)) == \
            decompose_uniform_reference(leaves, m, d, 2, 0.2)


def test_decomposition_matches_dict_loops_at_benchmark_size():
    """decompose_uniform against the dict-loop oracle on measures as large as
    the uniform_profile workload's (50-400 leaves), piece by piece: beta, the
    renormalized leaves bit for bit, and mass_retained."""
    rng = np.random.default_rng(21)
    cases = [random_measure(rng, d=2, m=8, n_leaves=int(rng.integers(50, 401)))
             for _ in range(10)]
    cases += [random_measure(rng, d=d, m=m, n_leaves=int(rng.integers(50, 401)))
              for d, m in ((1, 8), (3, 6)) for _ in range(3)]
    cases += [_exact_split_measure(rng, d, m) for d, m in ((1, 12), (2, 6), (3, 6)) * 2]
    for mu in cases:
        assert _pieces(decompose_uniform(mu, 2, 0.2)) == \
            decompose_uniform_reference(leaf_dict(mu), mu.m, mu.d, 2, 0.2)


def test_measure_arrays_reject_writes():
    mu = random_measure(np.random.default_rng(3), d=2, m=5, n_leaves=10)
    for arr in (mu.coords, mu.masses, mu.leaf_centers(), *mu.cells(2)):
        with pytest.raises(ValueError):
            arr[0] = 0
