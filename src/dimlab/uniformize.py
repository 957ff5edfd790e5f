"""Extraction of block-uniform subsets from dyadic measures.

A depth-m measure (m = T * ell) restricted to a subset X is block-uniform
when, at every block level j, the mass ratio of each surviving cube to its
block parent lies in a single dyadic class [2^{-k-1}, 2^{-k}]; the sequence
beta_j = k_j / T summarizes the branching.  The extraction prunes one ratio
class per block level, keeping the heaviest class, and iterates the sweep to
a fixed point so the class certificates hold exactly on the final restricted
measure (a single pruning pass can shift coarse ratios when finer levels are
pruned afterwards).

Each leaf's cube at every block level is labelled once per measure; a pass
then sums cube masses with bincounts over those labels, and pruning only
clears leaves from a mask.  The decomposition labels the input measure once
and runs every extraction on it, masking out the leaves of earlier pieces;
the same labels, restricted to a piece's leaves, check its ratio classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicMeasure, _group_rows
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
        if not (isinstance(T, (int, np.integer)) and T >= 1 and len(self.beta) * T == mu.m
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
        _check_classes(self, *_block_labels(self.measure, self.T, self.ell))

    def to_text(self) -> str:
        head = f"beta {' '.join(repr(b) for b in self.beta)}\n"
        head += f"T {self.T}\nmass_retained {self.mass_retained!r}\n"
        return head + self.measure.to_text()


def _block_labels(mu: DyadicMeasure, T: int, ell: int) -> tuple[list[np.ndarray], ...]:
    """Each leaf's cube at every block level, each cube's parent, and the
    cubes' coordinates.

    labels[j][i] is the index of leaf i's level-jT cube among mu's level-jT
    cubes in lexicographic order (labels[0] is all zeros: the unit cube),
    parents[j - 1][c] is the index of level-jT cube c's parent at level
    (j-1)T, and cubes[j - 1][c] is cube c's row.  One _group_rows call per
    block level.
    """
    labels = [np.zeros(len(mu.masses), dtype=np.intp)]
    parents, cubes = [], []
    for j in range(1, ell + 1):
        rows, label = _group_rows(mu.coords >> (mu.m - j * T))
        parent = np.empty(len(rows), dtype=np.intp)
        parent[label] = labels[-1]
        labels.append(label)
        parents.append(parent)
        cubes.append(rows)
    return labels, parents, cubes


def _check_classes(piece: UniformPiece, labels: list[np.ndarray],
                   parents: list[np.ndarray], cubes: list[np.ndarray]) -> None:
    """Raise unless, at every block level j, each cube's mass ratio to its
    parent lies in [2^{-k-1}, 2^{-k}] up to _TOL, k = beta_j T.

    labels (one per leaf of piece.measure), parents and cubes are as from
    _block_labels.  Cube masses are bincounts in leaf order, bit-identical
    to piece.measure.cells; cubes are tested in lexicographic order.
    """
    masses = piece.measure.masses
    coarse_mass = np.bincount(labels[0], weights=masses)
    for j, (label, parent, rows) in enumerate(zip(labels[1:], parents, cubes), 1):
        fine_mass = np.bincount(label, weights=masses, minlength=len(parent))
        cube = np.flatnonzero(fine_mass)  # leaf masses are positive
        mass, pm = fine_mass[cube], coarse_mass[parent[cube]]
        k = round(piece.beta[j - 1] * piece.T)
        bound = 2.0 ** (-k)
        ok = (mass <= bound * pm + _TOL * pm) & (bound * pm <= 2.0 * mass + _TOL * pm)
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(
                f"uniformity violated at level {j * piece.T}, cube {tuple(rows[cube[i]].tolist())}: "
                f"ratio {mass[i] / pm[i]} outside [2^-{k + 1}, 2^-{k}]"
            )
        coarse_mass = fine_mass


def _prune_pass(w: np.ndarray, alive: np.ndarray, labels: list[np.ndarray],
                parents: list[np.ndarray], bounds: np.ndarray):
    """One top-down sweep: per block level, keep the heaviest ratio class.

    `alive` masks the surviving leaves and `w` weighs them; labels and
    parents come from _block_labels.  A ratio is in class k when it lies in
    (2^{-k-1}, 2^{-k}]: k counts the `bounds` 2^{-1}, ..., 2^{-max_k-1} at or
    above it, and k = max_k + 1 is overflow.  Returns (alive, classes,
    changed).  Each cube's mass is summed over its surviving leaves in leaf
    order by one bincount.
    """
    max_k = len(bounds) - 1
    alive = alive.copy()
    classes = []
    changed = False
    coarse_mass = np.bincount(labels[0][alive], weights=w[alive])
    for label, parent in zip(labels[1:], parents):
        fine_of = label[alive]
        fine_mass = np.bincount(fine_of, weights=w[alive], minlength=len(parent))
        cube = np.flatnonzero(np.bincount(fine_of, minlength=len(parent)))
        k = (bounds >= (fine_mass[cube] / coarse_mass[parent[cube]])[:, None]).sum(axis=1)
        weight = np.bincount(k, weights=fine_mass[cube], minlength=max_k + 2)[: max_k + 1]
        present = np.bincount(k, minlength=max_k + 2)[: max_k + 1] > 0
        if not present.any():
            return np.zeros_like(alive), None, True
        # heaviest non-overflow class; smallest k wins ties
        best_k = int(np.argmax(np.where(present, weight, -1.0)))
        classes.append(best_k)
        dropped = cube[k != best_k]
        if len(dropped):
            changed = True
            keep = np.ones(len(parent), dtype=bool)
            keep[dropped] = False
            alive &= keep[label]
        # pruning drops whole cubes, so each surviving cube keeps its leaves
        # and its sum: this level's masses are the next level's parent masses
        coarse_mass = fine_mass
    return alive, classes, changed


def _extract(mu: DyadicMeasure, w: np.ndarray, alive: np.ndarray,
             labels: list[np.ndarray], parents: list[np.ndarray],
             cubes: list[np.ndarray], T: int) -> tuple[UniformPiece, np.ndarray]:
    """Prune the leaves of mu masked by `alive`, weighed by `w`, to a fixed
    point, and check the piece against the labels of its leaves.  Returns
    the piece, with mass_retained the w-mass kept, and the mask of its
    leaves."""
    bounds = 2.0 ** -np.arange(1.0, mu.d * T + 2)
    classes = None
    for _ in range(int(alive.sum()) + 2):  # each changed pass prunes >= 1 cube
        alive, classes, changed = _prune_pass(w, alive, labels, parents, bounds)
        if not alive.any():
            raise ValueError("pruning emptied the measure")
        if not changed:
            break
    else:
        raise RuntimeError("uniformization did not stabilize")
    kept = w[alive]
    retained = math.fsum(kept.tolist())
    piece = UniformPiece(
        beta=tuple(k / T for k in classes),
        T=T,
        mass_retained=retained,
        measure=DyadicMeasure._from_arrays(mu.d, mu.m, mu.coords[alive], kept / retained),
    )
    _check_classes(piece, [label[alive] for label in labels], parents, cubes)
    return piece, alive


def _block_count(mu: DyadicMeasure, T) -> int:
    """ell = m / T, after checking that T is a positive int dividing the
    depth of the nontrivial, normalized measure mu."""
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ValueError(f"block size must be a positive int, got {T!r}")
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
    labels, parents, cubes = _block_labels(mu, T, _block_count(mu, T))
    alive = np.ones(len(mu.masses), dtype=bool)
    return _extract(mu, mu.masses, alive, labels, parents, cubes, T)[0]


def decompose_uniform(mu: DyadicMeasure, T: int, eps: float) -> list[UniformPiece]:
    """Repeatedly extract uniform pieces until the residual mass is below
    2^{-eps m}; pieces are pairwise disjoint at the leaf level.

    mass_retained of each piece is recorded against the original measure.
    """
    if not (0.0 < eps < math.inf):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    labels, parents, cubes = _block_labels(mu, T, _block_count(mu, T))
    cutoff = 2.0 ** (-eps * mu.m)
    pieces: list[UniformPiece] = []
    remaining = np.ones(len(mu.masses), dtype=bool)
    residual_mass, total = 1.0, mu.total_mass
    while residual_mass >= cutoff and remaining.any():
        # the residual measure's normalized masses, leaf for leaf
        piece, taken = _extract(mu, mu.masses / total, remaining, labels, parents, cubes, T)
        # express retained mass relative to the original measure
        piece.mass_retained *= residual_mass
        pieces.append(piece)
        remaining &= ~taken
        residual_mass = total = math.fsum(mu.masses[remaining].tolist())
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
