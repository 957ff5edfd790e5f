import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dimlab import uniformize
from dimlab.dyadic import DyadicMeasure
from dimlab.uniformize import (
    UniformPiece,
    branching_profile,
    decompose_uniform,
    extract_uniform,
    lift_to_class,
)
from dimlab.plf import PLFunction
from oracles import check_invariant_reference, exact_split_measure, leaf_dict, random_measure

RECORDED = Path(__file__).parent / "data" / "decompose_uniform.txt"


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


def test_bools_are_rejected_as_block_size_and_eps():
    """True is not read as T = 1 or eps = 1."""
    mu = random_measure(np.random.default_rng(5), d=2, m=8, n_leaves=30)
    piece = extract_uniform(mu, 1)
    for flag in (True, np.True_):
        with pytest.raises(ValueError, match="T must be an integer"):
            extract_uniform(mu, flag)
        with pytest.raises(ValueError, match="T must be an integer"):
            decompose_uniform(mu, flag, 0.2)
        with pytest.raises(ValueError, match="eps must be a number"):
            decompose_uniform(mu, 2, flag)
        with pytest.raises(ValueError, match="does not give one class"):
            UniformPiece(piece.beta, flag, piece.mass_retained, piece.measure)
    UniformPiece(piece.beta, np.int64(1), piece.mass_retained, piece.measure)


def test_cube_tree_matches_cells():
    """The cube tree's one-bincount masses at block level j are the level-jT
    cells byte for byte, each leaf's label is the cube holding it, and up
    maps each cube to the cube holding its row >> T."""
    rng = np.random.default_rng(15)
    for d, m in ((1, 8), (2, 8), (3, 6)):
        for T in (1, 2):
            mu = random_measure(rng, d=d, m=m, n_leaves=int(rng.integers(1, 200)))
            equal = DyadicMeasure._from_arrays(d, m, mu.coords, np.ones(len(mu.masses)))
            for nu in (mu, exact_split_measure(rng, d, m), equal.normalize()):
                L, up, off = uniformize._block_labels(nu, T, m // T)
                mass = uniformize._cube_masses(L.T, nu.masses, len(up))
                assert up[0] == 0 and off[-1] == len(up) == len(mass)
                for j in range(m // T + 1):
                    rows, sums = nu.cells(j * T)
                    assert mass[off[j]:off[j + 1]].tobytes() == sums.tobytes()
                    assert np.array_equal(rows[L[j] - off[j]], nu.coords >> (m - j * T))
                    if j:
                        coarse = nu.cells((j - 1) * T)[0]
                        assert np.array_equal(coarse[up[off[j]:off[j + 1]] - off[j - 1]],
                                              rows >> T)


def test_decomposition_groups_block_cubes_once(monkeypatch):
    """decompose_uniform groups the leaves by block-level cube once, ell
    calls in all: its pruning passes and its piece checks only bincount
    over those labels."""
    calls = []
    group_rows = uniformize._group_rows
    monkeypatch.setattr(uniformize, "_group_rows",
                        lambda keys: calls.append(len(keys)) or group_rows(keys))
    mu = random_measure(np.random.default_rng(6), d=2, m=8, n_leaves=300)
    pieces = decompose_uniform(mu, 2, 0.2)
    assert len(pieces) > 1
    assert calls == [len(mu.masses)] * 4


def _raised(check, *args):
    """The message check(*args) raises ValueError with, or None."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _corruptions(piece, rng):
    """Copies of piece with beta_j moved by -1/T and +1/T at each level
    (where that stays in [0, d]), and with one leaf's mass scaled."""
    T, mu = piece.T, piece.measure
    for j in range(piece.ell):
        for step in (-1, 1):
            k = round(piece.beta[j] * T) + step
            if 0 <= k <= mu.d * T:
                beta = piece.beta[:j] + (k / T,) + piece.beta[j + 1:]
                yield UniformPiece(beta, T, piece.mass_retained, mu)
    masses = mu.masses.copy()
    masses[rng.integers(len(masses))] *= rng.choice([0.3, 0.9, 1.1, 3.0])
    yield UniformPiece(piece.beta, T, piece.mass_retained,
                       DyadicMeasure._from_arrays(mu.d, mu.m, mu.coords, masses))


def _swap_in(*bad):
    """A stand-in for the UniformPiece constructor: where one of `bad` has
    the leaves of the piece being built, a copy of it comes out instead."""
    def build(**fields):
        for piece in bad:
            if np.array_equal(piece.measure.coords, fields["measure"].coords):
                return dataclasses.replace(piece)
        return UniformPiece(**fields)
    return build


def test_piece_checks_match_the_cells_oracle(monkeypatch):
    """On extracted pieces and corrupted copies, the checks in
    extract_uniform and decompose_uniform and the public check_invariant give
    the cells form's verdict and message.  Equal leaf masses put ratios on
    the class boundaries, where only the _TOL slack decides."""
    rng = np.random.default_rng(8)
    verdicts = []
    for d, m, T in ((1, 8, 1), (1, 8, 2), (2, 8, 2), (3, 6, 1), (3, 6, 2)):
        for equal in (False, True):
            mu = random_measure(rng, d=d, m=m, n_leaves=int(rng.integers(20, 120)))
            if equal:
                mu = DyadicMeasure._from_arrays(d, m, mu.coords, np.ones(len(mu.masses))).normalize()
            L, up, off = uniformize._block_labels(mu, T, m // T)
            remaining = np.ones(len(mu.masses), dtype=bool)
            for _ in range(2):  # the first piece and one from the residual
                w = mu.masses / math.fsum(mu.masses[remaining].tolist())
                piece, idx = uniformize._extract(mu, w, remaining, L.T, up,
                                                 uniformize._levels(up, off), T)
                check_invariant_reference(piece)
                for bad in [piece, *_corruptions(piece, rng)]:
                    want = _raised(check_invariant_reference, bad)
                    assert _raised(bad.check_invariant) == want
                    # extract_uniform (first piece) and decompose_uniform
                    # build `bad` in place of its piece and check it
                    monkeypatch.setattr(uniformize, "UniformPiece", _swap_in(bad))
                    if remaining.all():
                        assert _raised(extract_uniform, mu, T) == want
                    assert _raised(decompose_uniform, mu, T, 100.0) == want
                    monkeypatch.undo()
                    verdicts.append(want is None)
                remaining[idx] = False
    # 20 pieces and 138 corrupted copies, 120 of them violations
    assert verdicts.count(True) > 30 and verdicts.count(False) > 100


def test_decomposition_reports_the_earlier_corrupt_piece(monkeypatch):
    """With two corrupt pieces in one decomposition, decompose_uniform
    raises the earlier piece's message as the cells oracle gives it, though
    the later piece fails at a coarser level."""
    rng = np.random.default_rng(11)
    mu = random_measure(rng, d=2, m=8, n_leaves=300)
    pieces = decompose_uniform(mu, 2, 0.2)
    assert len(pieces) > 2

    def violation(piece, pick):
        """The corrupted copy of piece whose first violated level is the
        finest (pick = max) or the coarsest (pick = min), and its message."""
        found = [(bad, _raised(check_invariant_reference, bad))
                 for bad in _corruptions(piece, rng)]
        found = [(int(msg.split()[4][:-1]), bad, msg) for bad, msg in found if msg]
        return pick(found, key=lambda item: item[0])

    fine_level, early, want = violation(pieces[1], max)
    coarse_level, late, _ = violation(pieces[2], min)
    assert coarse_level < fine_level
    monkeypatch.setattr(uniformize, "UniformPiece", _swap_in(early, late))
    assert _raised(decompose_uniform, mu, 2, 0.2) == want


def test_decomposition_peak_memory_per_leaf():
    """The pieces of a decomposition are checked in memory linear in the
    leaves: under tracemalloc, decomposing 991 leaves into 284 pieces peaks
    below 1,024 bytes a leaf (it reads about 690, pieces included).  One
    float64 per piece and cube of the measure's tree would be 8 * 284 bytes
    for each of the tree's 2,000-odd cubes, above 4,000 bytes a leaf."""
    mu = random_measure(np.random.default_rng(16), d=2, m=8, n_leaves=1000)
    decompose_uniform(mu, 2, 0.2)  # first-call imports and caches are not the decomposition's
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        pieces = decompose_uniform(mu, 2, 0.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(mu.masses) == 991 and len(pieces) == 284
    assert peak / 991 < 1024, f"{peak / 991:.1f} bytes a leaf"


@pytest.mark.parametrize("change", [
    lambda beta, T: (beta[:2], T),  # levels 6 and 8 left unchecked
    lambda beta, T: ((0.7,) + beta[1:], T),  # not a multiple of 1/T
    lambda beta, T: (beta, 0),
    lambda beta, T: ((2.5,) + beta[1:], T),  # k = 5 > dT
    lambda beta, T: (beta, 4),  # 4 blocks of 4 levels
], ids=["truncated_beta", "off_grid_beta", "T_zero", "beta_above_d", "blocks_overrun_depth"])
def test_uniform_piece_rejects_inconsistent_fields(change):
    """beta must give one class k/T, 0 <= k <= dT, per block of the depth."""
    piece = extract_uniform(random_measure(np.random.default_rng(9), d=2, m=8, n_leaves=60), 2)
    beta, T = change(piece.beta, piece.T)
    with pytest.raises(ValueError):
        UniformPiece(beta, T, piece.mass_retained, piece.measure)


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


@pytest.mark.parametrize("u, eps, d, name", [
    (math.nan, 0.01, 2.0, "u"),
    (math.inf, 0.01, 2.0, "u"),
    (1.0, 0.01, math.nan, "d"),
    (1.0, -0.01, 2.0, "eps"),
    (1.0, 0.0, 2.0, "eps"),
    (1.0, math.nan, 2.0, "eps"),
    (1.0, True, 2.0, "eps"),
])
def test_lift_to_class_names_a_bad_parameter(u, eps, d, name):
    f = PLFunction((0.0, 0.5, 1.0), (0.1, 0.6, 1.1))
    with pytest.raises(ValueError, match=f"^{name} must be"):
        lift_to_class(f, u, eps, d)


def _decomposition_texts() -> str:
    """Every piece's text for seeded random measures, d = 1..3, T = 1, 2."""
    rng = np.random.default_rng(14)
    out = []
    for d, m in ((1, 8), (2, 8), (3, 6)):
        for T in (1, 2):
            for _ in range(3):
                mu = random_measure(rng, d=d, m=m, n_leaves=int(rng.integers(10, 90)))
                pieces = decompose_uniform(mu, T, 0.5)
                out.append(f"# d {d} m {m} T {T}: {len(pieces)} pieces\n")
                out.extend(p.to_text() for p in pieces)
    return "".join(out)


def test_decompose_uniform_matches_recorded_pieces():
    """Pieces (beta, mass_retained and leaf masses) byte for byte as recorded."""
    assert _decomposition_texts() == RECORDED.read_text()
