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

from .dyadic import CubeRef, DyadicMeasure, restrict_normalize
from .plf import PLFunction

_TOL = 1e-9


@dataclass
class UniformPiece:
    """A block-uniform subset: surviving level-m cubes, the branching
    sequence beta, block size T, and the original mass retained."""

    subset: set[CubeRef]
    beta: tuple[float, ...]
    T: int
    mass_retained: float
    measure: DyadicMeasure  # normalized restriction to the subset

    @property
    def ell(self) -> int:
        return len(self.beta)

    def check_invariant(self) -> None:
        """Verify the two-sided ratio inequality exactly at every block level."""
        mu = self.measure
        T = self.T
        for j in range(1, self.ell + 1):
            k = round(self.beta[j - 1] * T)
            bound = 2.0 ** (-k)
            fine = mu.level_masses(j * T)
            coarse = mu.level_masses((j - 1) * T)
            for coords, mass in fine.items():
                parent = tuple(c >> T for c in coords)
                pm = coarse[parent]
                if not (mass <= bound * pm + _TOL * pm and bound * pm <= 2.0 * mass + _TOL * pm):
                    raise ValueError(
                        f"uniformity violated at level {j * T}, cube {coords}: "
                        f"ratio {mass / pm} outside [2^-{k + 1}, 2^-{k}]"
                    )

    def to_text(self) -> str:
        head = f"beta {' '.join(repr(b) for b in self.beta)}\n"
        head += f"T {self.T}\nmass_retained {self.mass_retained!r}\n"
        return head + self.measure.to_text()


def _ratio_class(ratio: float, max_k: int) -> int:
    """Dyadic class k with ratio in [2^{-k-1}, 2^{-k}); k > max_k is overflow."""
    if ratio > 1.0:
        ratio = 1.0
    k = 0
    while k <= max_k and ratio <= 2.0 ** -(k + 1):
        k += 1
    return k  # k == max_k + 1 signals overflow


def _prune_pass(mu: DyadicMeasure, surviving: set, T: int, ell: int):
    """One top-down sweep: per block level, keep the heaviest ratio class.

    Returns (surviving, classes, changed).  Masses are recomputed from the
    current surviving leaves at each level.
    """
    d = mu.d
    max_k = d * T
    classes = []
    changed = False
    for j in range(1, ell + 1):
        fine_level = j * T
        shift_fine = mu.m - fine_level
        shift_coarse = mu.m - (j - 1) * T
        fine: dict = {}
        coarse: dict = {}
        for leaf in sorted(surviving):
            w = mu.leaves[leaf]
            fine_key = tuple(c >> shift_fine for c in leaf)
            coarse_key = tuple(c >> shift_coarse for c in leaf)
            fine[fine_key] = fine.get(fine_key, 0.0) + w
            coarse[coarse_key] = coarse.get(coarse_key, 0.0) + w
        weight_by_class: dict[int, float] = {}
        class_of: dict = {}
        for coords in sorted(fine):
            parent = tuple(c >> T for c in coords)
            k = _ratio_class(fine[coords] / coarse[parent], max_k)
            class_of[coords] = k
            weight_by_class[k] = weight_by_class.get(k, 0.0) + fine[coords]
        # heaviest non-overflow class; smallest k wins ties
        candidates = [(w, k) for k, w in weight_by_class.items() if k <= max_k]
        if not candidates:
            return set(), None, True
        best_k = min(candidates, key=lambda wk: (-wk[0], wk[1]))[1]
        classes.append(best_k)
        kept = {c for c, k in class_of.items() if k == best_k}
        if len(kept) < len(fine):
            changed = True
            surviving = {
                leaf for leaf in surviving
                if tuple(c >> shift_fine for c in leaf) in kept
            }
    return surviving, classes, changed


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
    surviving = set(mu.leaves)
    classes = None
    for _ in range(len(mu.leaves) + 2):  # each changed pass prunes >= 1 cube
        surviving, classes, changed = _prune_pass(mu, surviving, T, ell)
        if not surviving:
            raise ValueError("pruning emptied the measure")
        if not changed:
            break
    else:
        raise RuntimeError("uniformization did not stabilize")
    retained = math.fsum(mu.leaves[k] for k in sorted(surviving))
    sub = restrict_normalize(
        mu, [CubeRef(mu.m, c) for c in surviving]
    )
    beta = tuple(k / T for k in classes)
    piece = UniformPiece(
        subset={CubeRef(mu.m, c) for c in surviving},
        beta=beta,
        T=T,
        mass_retained=retained,
        measure=sub,
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
    remaining = dict(mu.leaves)
    residual_mass = 1.0
    while residual_mass >= cutoff and remaining:
        residual = DyadicMeasure(mu.d, mu.m, remaining).normalize()
        piece = extract_uniform(residual, T)
        # express retained mass relative to the original measure
        piece.mass_retained *= residual_mass
        pieces.append(piece)
        for cube in piece.subset:
            remaining.pop(cube.coords, None)
        residual_mass = math.fsum(remaining[k] for k in sorted(remaining))
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
