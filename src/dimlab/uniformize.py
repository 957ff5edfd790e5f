"""Extraction of block-uniform subsets from dyadic measures.

A depth-m measure (m = T * ell) restricted to a subset X is block-uniform
when, at every block level j, the mass ratio of each surviving cube to its
block parent lies in a single dyadic class [2^{-k-1}, 2^{-k}]; the sequence
beta_j = k_j / T summarizes the branching.  The extraction prunes one ratio
class per block level, keeping the heaviest class, and iterates the sweep to
a fixed point so the class certificates hold exactly on the final restricted
measure (a single pruning pass can shift coarse ratios when finer levels are
pruned afterwards).

The pruning works in cube space.  The cubes of all block levels form one
tree per measure, in one index space: each leaf is labelled with its cube at
every level, and each cube points to its parent.  A pass sums every cube's
mass with one bincount over the survivors' labels, classes every ratio at
once, and chooses each level's class on the cube arrays alone.  The
decomposition builds the input measure's tree once for all its extractions
and, once they are done, checks the ratio classes of all its pieces in one
pass: each (piece, cube) pair holding a leaf is grouped once, and every
pair's ratio to its parent is tested at once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicMeasure, _finite, _group_rows, _is_number, _positive, _positive_int
from .plf import PLFunction

_TOL = 1e-9


@dataclass
class UniformPiece:
    """A block-uniform subset: the branching sequence beta, block size T,
    the original mass retained, and the normalized restriction of the
    measure to the surviving leaves."""

    beta: tuple[float, ...]
    T: int
    mass_retained: float
    measure: DyadicMeasure

    def __post_init__(self) -> None:
        T, mu = self.T, self.measure
        if not (_is_number(T, numbers.Integral) and T >= 1 and len(self.beta) * T == mu.m
                and all(math.isfinite(b) and b == round(b * T) / T and 0 <= b <= mu.d
                        for b in self.beta)):
            raise ValueError(f"beta {self.beta!r} with T = {T!r} does not give one class "
                             f"k/T, 0 <= k <= dT, per block of depth {mu.m}")

    @property
    def ell(self) -> int:
        return len(self.beta)

    def check_invariant(self) -> None:
        """Verify the two-sided ratio inequality exactly at every block level,
        grouping the piece's own leaves (independently of the pruning)."""
        leaves = np.arange(len(self.measure.masses))
        _check_pieces([self], [leaves], *_block_labels(self.measure, self.T, self.ell))

    def to_text(self) -> str:
        head = f"beta {' '.join(repr(b) for b in self.beta)}\n"
        head += f"T {self.T}\nmass_retained {self.mass_retained!r}\n"
        return head + self.measure.to_text()


def _block_labels(mu: DyadicMeasure, T: int, ell: int):
    """(L, up, off): the tree of mu's cubes at the block levels jT, j <= ell.

    Cubes are numbered coarsest level first, lexicographically within a
    level: level j holds cubes off[j] to off[j + 1] - 1, and cube 0 is the
    unit cube.  L[j, i] is leaf i's level-j cube and up[c] is cube c's parent
    (up[0] = 0).  L is the transpose of a leaf-major table: L.T[idx] gathers
    the labels of leaves idx as contiguous rows.  One _group_rows call per
    block level.
    """
    rows = np.zeros((len(mu.masses), ell + 1), dtype=np.intp)
    up, off = [np.zeros(1, dtype=np.intp)], [0, 1]
    for j in range(1, ell + 1):
        cubes, label = _group_rows(mu.coords >> (mu.m - j * T))
        rows[:, j] = label + off[j]
        parent = np.empty(len(cubes), dtype=np.intp)
        parent[label] = rows[:, j - 1]
        up.append(parent)
        off.append(off[j] + len(cubes))
    return rows.T, np.concatenate(up), tuple(off)


def _levels(up: np.ndarray, off: tuple[int, ...]) -> list[tuple[int, int, np.ndarray]]:
    """(lo, hi, up[lo:hi]) for each block level j >= 1 of the cube tree:
    the range of its cubes and their parents."""
    return [(lo, hi, up[lo:hi]) for lo, hi in zip(off[1:], off[2:])]


def _cube_masses(labels: np.ndarray, w: np.ndarray, n_cubes: int) -> np.ndarray:
    """Every cube's mass over the leaves labelled by the rows of `labels`,
    weighed by w: one bincount, summed in leaf order as the measure's cells are."""
    return np.bincount(labels.ravel(), np.repeat(w, labels.shape[1]), n_cubes)


def _check_pieces(pieces: list[UniformPiece], leaves: list[np.ndarray], L: np.ndarray,
                  up: np.ndarray, off: tuple[int, ...]) -> None:
    """Raise unless, for every piece and at every block level j, each cube's
    mass ratio to its parent lies in [2^{-k-1}, 2^{-k}] up to _TOL, k = beta_j T.

    The pieces share T, and leaves[p] lists piece p's leaves, in its leaf
    order, among the leaves that L labels in the cube tree (up, off) of
    _block_labels.  The (piece, cube) pairs holding a leaf are grouped once,
    each pair's mass summed over its leaves in leaf order, and all pairs are
    tested at once; the first failure, by piece, then level, then
    lexicographically, is reported.
    """
    n_cubes = len(up)
    base = np.repeat(np.arange(len(pieces)) * n_cubes, [len(idx) for idx in leaves])
    code = L.T[np.concatenate(leaves)] + base[:, None]  # piece p's cube c is p n_cubes + c
    pairs, inv = np.unique(code.ravel(), return_inverse=True)
    mass = _cube_masses(inv.reshape(code.shape),
                        np.concatenate([p.measure.masses for p in pieces]), len(pairs))
    owner, cube = np.divmod(pairs, n_cubes)
    pm = mass[pairs.searchsorted(owner * n_cubes + up[cube])]
    # the unit cube passes as k = 0
    ks = np.array([[0] + [round(b * p.T) for b in p.beta] for p in pieces])
    level = np.searchsorted(off, cube, side="right") - 1
    bound = 2.0 ** -ks[owner, level]
    ok = (mass <= bound * pm + _TOL * pm) & (bound * pm <= 2.0 * mass + _TOL * pm)
    if not ok.all():
        i = int(np.argmin(ok))
        p, c, j = int(owner[i]), int(cube[i]), int(level[i])
        mu, T, k = pieces[p].measure, pieces[p].T, int(ks[p, j])
        row = mu.coords[np.argmax(L[j, leaves[p]] == c)] >> (mu.m - j * T)
        raise ValueError(
            f"uniformity violated at level {j * T}, cube {tuple(row.tolist())}: "
            f"ratio {mass[i] / pm[i]} outside [2^-{k + 1}, 2^-{k}]"
        )


def _prune_pass(w: np.ndarray, idx: np.ndarray, rows: np.ndarray, up: np.ndarray,
                levels: list, asc: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """One top-down sweep: per block level, keep the heaviest ratio class.

    idx lists the surviving leaves, w weighs them, and rows (the leaf-major
    labels L.T), up and levels (of _levels) are the cube tree.  A ratio is
    in class k when it lies in (2^{-k-1}, 2^{-k}]: k counts the bounds `asc`
    (2^{-max_k-1}, ..., 2^{-1}) at or above it, and k = max_k + 1 is
    overflow.  Pruning drops whole cubes, so the masses of one bincount at
    the start, each cube's summed over its leaves in leaf order, serve every
    level.  A cube is live when it holds a survivor and its parent is kept;
    dead cubes weigh an exact zero.  Returns the leaves in kept finest cubes
    and the classes.
    """
    n_k = len(asc)
    labels = np.take(rows, idx, axis=0)
    mass = _cube_masses(labels, w[idx], len(up))
    keep = mass > 0.0
    ratio = np.divide(mass, mass[up], out=np.zeros(len(up)), where=keep)
    cls = n_k - asc.searchsorted(ratio)
    classes = []
    for lo, hi, parent in levels:
        live = keep[lo:hi]  # a view: this level's keep is set in place
        live &= keep[parent]
        weight = np.bincount(cls[lo:hi], weights=mass[lo:hi] * live, minlength=n_k + 1)
        best = int(weight[:n_k].argmax())  # smallest k wins ties
        if weight[best] == 0.0:  # every live ratio overflows
            raise ValueError("pruning emptied the measure")
        classes.append(best)
        live &= cls[lo:hi] == best
    return idx[keep[labels[:, -1]]], classes


def _extract(mu: DyadicMeasure, w: np.ndarray, alive: np.ndarray, rows: np.ndarray,
             up: np.ndarray, levels: list, T: int) -> tuple[UniformPiece, np.ndarray]:
    """Prune the leaves of mu masked by `alive`, weighed by `w`, to a fixed
    point in the cube tree (rows, up, levels) of _prune_pass.  Returns the
    piece, with mass_retained the w-mass kept, and the indices of its leaves;
    the caller checks the piece."""
    asc = 2.0 ** np.arange(-mu.d * T - 1.0, 0.0)
    idx = np.flatnonzero(alive)
    for _ in range(len(idx) + 2):  # each changed pass prunes >= 1 leaf
        survivors, classes = _prune_pass(w, idx, rows, up, levels, asc)
        if len(survivors) == len(idx):
            break
        idx = survivors
    else:
        raise RuntimeError("uniformization did not stabilize")
    kept = w[idx]
    retained = math.fsum(kept.tolist())
    piece = UniformPiece(
        beta=tuple(k / T for k in classes),
        T=T,
        mass_retained=retained,
        measure=DyadicMeasure._from_arrays(mu.d, mu.m, np.take(mu.coords, idx, axis=0),
                                           kept / retained),
    )
    return piece, idx


def _block_count(mu: DyadicMeasure, T) -> int:
    """ell = m / T, after checking that T is a positive int dividing the
    depth of the nontrivial, normalized measure mu."""
    _positive_int("T", T)
    if mu.trivial:
        raise ValueError("cannot uniformize the trivial measure")
    if not mu.normalized:
        raise ValueError("input must be normalized")
    if mu.m % T != 0:
        raise ValueError(f"depth {mu.m} is not divisible by block size {T}")
    return mu.m // T


def extract_uniform(mu: DyadicMeasure, T: int) -> UniformPiece:
    """Extract a block-uniform subset retaining mass at least (2dT+2)^{-ell}.

    Per block level, leaf cubes are bucketed by the dyadic class of their
    mass ratio to the block parent; the heaviest class is kept (overflow
    classes, ratio < 2^{-dT-1}, are always discarded).  The sweep repeats
    until every surviving ratio sits in its level's chosen class, so the
    final restricted measure satisfies the uniformity inequality exactly.
    """
    L, up, off = _block_labels(mu, T, _block_count(mu, T))
    alive = np.ones(len(mu.masses), dtype=bool)
    piece, idx = _extract(mu, mu.masses, alive, L.T, up, _levels(up, off), T)
    _check_pieces([piece], [idx], L, up, off)
    return piece


def decompose_uniform(mu: DyadicMeasure, T: int, eps: float) -> list[UniformPiece]:
    """Repeatedly extract uniform pieces until the residual mass is below
    2^{-eps m}; pieces are pairwise disjoint at the leaf level.

    mass_retained of each piece is recorded against the original measure.
    Every piece is checked once the extraction loop ends.
    """
    eps = _positive("eps", eps)
    L, up, off = _block_labels(mu, T, _block_count(mu, T))
    rows, levels = L.T, _levels(up, off)
    cutoff = 2.0 ** (-eps * mu.m)
    pieces: list[UniformPiece] = []
    leaves: list[np.ndarray] = []
    remaining = np.ones(len(mu.masses), dtype=bool)
    residual_mass, total = 1.0, mu.total_mass
    while residual_mass >= cutoff and remaining.any():
        # the residual measure's normalized masses, leaf for leaf
        piece, idx = _extract(mu, mu.masses / total, remaining, rows, up, levels, T)
        # express retained mass relative to the original measure
        piece.mass_retained *= residual_mass
        pieces.append(piece)
        leaves.append(idx)
        remaining[idx] = False
        residual_mass = total = math.fsum(mu.masses[remaining].tolist())
    _check_pieces(pieces, leaves, L, up, off)
    return pieces


def branching_profile(piece: UniformPiece) -> PLFunction:
    """The normalized running sum of beta as a piecewise-linear function:
    f(j / ell) = (beta_1 + ... + beta_j) / ell, linear in between."""
    ell = piece.ell
    xs = tuple(j / ell for j in range(ell + 1))
    ys = [0.0]
    for b in piece.beta:
        ys.append(ys[-1] + b / ell)
    return PLFunction(xs, tuple(ys))


def lift_to_class(f: PLFunction, u: float, eps: float, d: float) -> PLFunction:
    """Replace f near 0 by the chord from the origin so the result lies in
    L(d, u - sqrt(eps)), given that f clears that line on [4 sqrt(eps), 1]."""
    u, d, eps = _finite("u", u), _finite("d", d), _positive("eps", eps)
    cut = 4.0 * math.sqrt(eps)
    if cut >= 1.0:
        raise ValueError("eps too large: 4*sqrt(eps) must be < 1")
    target = u - math.sqrt(eps)
    for x in list(f.xs) + [cut, 1.0]:
        if cut - _TOL <= x <= 1.0 and float(f(x)) < target * x - _TOL:
            raise ValueError(
                f"profile fails f(x) >= (u - sqrt(eps)) x at x = {x}"
            )
    xs = [0.0, cut] + [x for x in f.xs if x > cut + _TOL]
    if abs(xs[-1] - 1.0) > _TOL:
        xs.append(1.0)
    ys = [0.0] + [float(f(x)) for x in xs[1:]]
    lifted = PLFunction(tuple(xs), tuple(ys))
    if not lifted.in_class(d, target):
        raise ValueError(f"lifted profile left L({d}, {target}): "
                         f"{lifted.class_violation(d, target)}")
    return lifted
