"""Extraction of block-uniform subsets from dyadic measures.

A depth-m measure (m = T * ell) restricted to a subset X is block-uniform
when, at every block level j, the mass ratio of each surviving cube to its
block parent lies in a single dyadic class [2^{-k-1}, 2^{-k}]; the sequence
beta_j = k_j / T summarizes the branching.  The extraction prunes one ratio
class per block level, keeping the heaviest class, and iterates the sweep to
a fixed point so the class certificates hold exactly on the final restricted
measure (a single pruning pass can shift coarse ratios when finer levels are
pruned afterwards).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import CubeRef, DyadicMeasure, _find_rows, _group_rows, _restrict_normalize
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

    @property
    def ell(self) -> int:
        return len(self.beta)

    @property
    def subset(self) -> set[CubeRef]:
        """The surviving level-m cubes."""
        return self.measure.support_cubes(self.measure.m)

    def check_invariant(self) -> None:
        """Verify the two-sided ratio inequality exactly at every block level."""
        mu = self.measure
        T = self.T
        for j in range(1, self.ell + 1):
            k = round(self.beta[j - 1] * T)
            bound = 2.0 ** (-k)
            fine, mass = mu.cells(j * T)
            # the parents of the level-jT cubes are exactly the level-(j-1)T cubes
            pm = mu.cells((j - 1) * T)[1][_group_rows(fine >> T)[1]]
            ok = (mass <= bound * pm + _TOL * pm) & (bound * pm <= 2.0 * mass + _TOL * pm)
            if not ok.all():
                i = int(np.argmin(ok))
                raise ValueError(
                    f"uniformity violated at level {j * T}, cube {tuple(fine[i].tolist())}: "
                    f"ratio {mass[i] / pm[i]} outside [2^-{k + 1}, 2^-{k}]"
                )

    def to_text(self) -> str:
        head = f"beta {' '.join(repr(b) for b in self.beta)}\n"
        head += f"T {self.T}\nmass_retained {self.mass_retained!r}\n"
        return head + self.measure.to_text()


def _prune_pass(mu: DyadicMeasure, alive: np.ndarray, T: int, ell: int):
    """One top-down sweep: per block level, keep the heaviest ratio class.

    `alive` masks mu's surviving leaves.  Returns (alive, classes, changed).
    Masses are recomputed from the current surviving leaves at each level,
    summed in leaf order.
    """
    max_k = mu.d * T
    # a ratio is in class k when it lies in (2^{-k-1}, 2^{-k}]: k counts the
    # bounds 2^{-1}, ..., 2^{-max_k-1} at or above it; k = max_k + 1 is overflow
    bounds = 2.0 ** -np.arange(1.0, max_k + 2)
    alive = alive.copy()
    classes = []
    changed = False
    # each level's cube of every surviving leaf is the next level's parent
    parent_of = np.zeros(len(mu.masses), dtype=np.intp)
    for j in range(1, ell + 1):
        coords, w = mu.coords[alive], mu.masses[alive]
        fine, fine_of = _group_rows(coords >> (mu.m - j * T))
        fine_mass = np.bincount(fine_of, weights=w, minlength=len(fine))
        coarse_mass = np.bincount(parent_of[alive], weights=w)
        parent = np.empty(len(fine), dtype=np.intp)
        parent[fine_of] = parent_of[alive]
        k = (bounds >= (fine_mass / coarse_mass[parent])[:, None]).sum(axis=1)
        weight = np.bincount(k, weights=fine_mass, minlength=max_k + 2)[: max_k + 1]
        present = np.bincount(k, minlength=max_k + 2)[: max_k + 1] > 0
        if not present.any():
            return np.zeros_like(alive), None, True
        # heaviest non-overflow class; smallest k wins ties
        best_k = int(np.argmax(np.where(present, weight, -1.0)))
        classes.append(best_k)
        parent_of[alive] = fine_of
        kept = k == best_k
        if not kept.all():
            changed = True
            alive[alive] = kept[fine_of]
    return alive, classes, changed


def extract_uniform(mu: DyadicMeasure, T: int) -> UniformPiece:
    """Extract a block-uniform subset retaining mass at least (2dT+2)^{-ell}.

    Per block level, leaf cubes are bucketed by the dyadic class of their
    mass ratio to the block parent; the heaviest class is kept (overflow
    classes, ratio < 2^{-dT-1}, are always discarded).  The sweep repeats
    until every surviving ratio sits in its level's chosen class, so the
    final restricted measure satisfies the uniformity inequality exactly.
    """
    if mu.trivial:
        raise ValueError("cannot uniformize the trivial measure")
    if not mu.normalized:
        raise ValueError("input must be normalized")
    if mu.m % T != 0:
        raise ValueError(f"depth {mu.m} is not divisible by block size {T}")
    ell = mu.m // T
    alive = np.ones(len(mu.masses), dtype=bool)
    classes = None
    for _ in range(len(mu.masses) + 2):  # each changed pass prunes >= 1 cube
        alive, classes, changed = _prune_pass(mu, alive, T, ell)
        if not alive.any():
            raise ValueError("pruning emptied the measure")
        if not changed:
            break
    else:
        raise RuntimeError("uniformization did not stabilize")
    piece = UniformPiece(
        beta=tuple(k / T for k in classes),
        T=T,
        mass_retained=math.fsum(mu.masses[alive].tolist()),
        measure=_restrict_normalize(mu, alive),
    )
    piece.check_invariant()
    return piece


def decompose_uniform(mu: DyadicMeasure, T: int, eps: float) -> list[UniformPiece]:
    """Repeatedly extract uniform pieces until the residual mass is below
    2^{-eps m}; pieces are pairwise disjoint at the leaf level.

    mass_retained of each piece is recorded against the original measure.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not mu.normalized:
        raise ValueError("input must be normalized")
    cutoff = 2.0 ** (-eps * mu.m)
    pieces: list[UniformPiece] = []
    remaining = np.ones(len(mu.masses), dtype=bool)
    residual_mass = 1.0
    while residual_mass >= cutoff and remaining.any():
        piece = extract_uniform(_restrict_normalize(mu, remaining), T)
        # express retained mass relative to the original measure
        piece.mass_retained *= residual_mass
        pieces.append(piece)
        remaining &= _find_rows(piece.measure.coords, mu.coords) < 0
        residual_mass = math.fsum(mu.masses[remaining].tolist())
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
