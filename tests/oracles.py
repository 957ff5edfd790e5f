"""Independent brute-force oracles used by the property tests.

These recompute the optimization targets by exhaustive enumeration so the
fast implementations can be checked exactly.
"""

import math

import numpy as np

from dimlab.dyadic import DyadicMeasure

_TOL = 1e-9


def random_measure(rng, d=2, m=8, n_leaves=40):
    top = 1 << m
    leaves = {}
    for _ in range(n_leaves):
        key = tuple(int(rng.integers(top)) for _ in range(d))
        leaves[key] = float(rng.random()) + 1e-3
    return DyadicMeasure(d, m, leaves).normalize()


def random_plf(rng, n_segments=8, max_slope=2.0, nonneg=True):
    from dimlab.plf import from_slopes

    lo = 0.0 if nonneg else -max_slope
    slopes = rng.uniform(lo, max_slope, n_segments)
    return from_slopes(slopes.tolist())


def robust_entropy_bruteforce(masses, Theta):
    """Min entropy over the feasible polytope {q >= 0, q <= Theta*p, sum=1},
    by enumerating its extreme points: each vertex saturates every cap on a
    subset and splits the remainder onto one extra cell."""
    p = np.asarray(sorted(masses, reverse=True))
    caps = Theta * p
    n = len(p)
    assert n <= 14, "bruteforce oracle limited to small supports"

    def ent(vals):
        return -math.fsum(v * math.log2(v) for v in vals if v > 1e-300)

    best = math.inf
    for mask in range(1 << n):
        filled = [caps[i] for i in range(n) if mask >> i & 1]
        tot = math.fsum(filled)
        if abs(tot - 1.0) <= 1e-12:
            best = min(best, ent(filled))
            continue
        if tot > 1.0:
            continue
        resid = 1.0 - tot
        for j in range(n):
            if mask >> j & 1:
                continue
            if caps[j] >= resid - 1e-12:
                best = min(best, ent(filled + [resid]))
    return best


def min_cells_bruteforce(masses, r):
    """Minimal number of cells whose mass exceeds r, by meet-in-the-middle
    subset enumeration; None when no subset exceeds r."""
    w = list(masses)
    n = len(w)
    assert n <= 20
    half = n // 2
    a, b = w[:half], w[half:]

    def table(vals):
        # max achievable mass for each subset size
        best = [0.0] * (len(vals) + 1)
        for mask in range(1 << len(vals)):
            tot = math.fsum(v for i, v in enumerate(vals) if mask >> i & 1)
            k = bin(mask).count("1")
            if tot > best[k]:
                best[k] = tot
        return best

    ta, tb = table(a), table(b)
    best_k = None
    for ka in range(len(ta)):
        for kb in range(len(tb)):
            if ta[ka] + tb[kb] > r:
                k = ka + kb
                if best_k is None or k < best_k:
                    best_k = k
    return best_k


def sigma_value_bruteforce(D, f, tau, grid_n):
    """Exhaustive enumeration of all allowable interval families with
    endpoints on the grid, replicating the DP's arithmetic step by step."""
    d = D.d
    xs = [i / grid_n for i in range(grid_n + 1)]
    G = sorted(set(xs) | {min(max(x, 0.0), 1.0) for x in f.xs})
    fG = [float(v) for v in np.interp(G, f.xs, f.ys)]
    pos = {x: i for i, x in enumerate(G)}

    def weight(i, j):
        a, b = xs[i], xs[j]
        length = b - a
        if not (length >= tau - _TOL and length <= a + _TOL and length > 0):
            return None
        ia, ib = pos[a], pos[b]
        slope = min(
            (fG[k] - fG[ia]) / (G[k] - G[ia]) for k in range(ia + 1, ib + 1)
        )
        if not slope >= -_TOL:
            return None
        sig = min(max(slope, 0.0), d)
        return length * float(D(sig))

    W = [[weight(i, j) for j in range(grid_n + 1)] for i in range(grid_n + 1)]

    best = 0.0

    def extend(start, acc):
        # families may leave gaps: the next interval starts anywhere >= start
        nonlocal best
        if acc > best:
            best = acc
        for i in range(start, grid_n + 1):
            for j in range(i + 1, grid_n + 1):
                if W[i][j] is not None:
                    extend(j, acc + W[i][j])

    extend(0, 0.0)
    return best


# Slack on the squared perpendicular distance for the leaf that defines an
# arc endpoint: it sits on its slab's boundary, and rounding the endpoint
# angle moves its distance by about 1e-16.
_ENDPOINT_SLACK = 1e-12


def tube_mass_max_bruteforce(nu, x, r):
    """Max nu-mass of a closed r-slab about a line through x (d = 2), by the
    perpendicular-distance test at every endpoint of every leaf's arc of
    slab directions: the maximum over directions is attained at one."""
    pts = nu.leaf_centers() - np.asarray(x, dtype=float)
    w = nu.masses
    sq = np.sum(pts * pts, axis=1)
    r2 = r * r + _TOL
    far = sq > r2
    best = float(w[~far].sum())
    phi = np.arctan2(pts[far, 1], pts[far, 0])
    alpha = np.arcsin(np.sqrt(r2 / sq[far]))
    for theta in np.concatenate([phi - alpha, phi + alpha]):
        u = np.array([math.cos(theta), math.sin(theta)])
        inside = sq - (pts @ u) ** 2 <= r2 + _ENDPOINT_SLACK
        best = max(best, float(w[inside].sum()))
    return best


# -- dict-of-tuples references for the array-backed measure core -------------
# The per-leaf loops the measure core ran before it stored sorted arrays.  A
# measure is given here as its leaf dict {coords: mass} and depth m; the
# property tests require exact (==) agreement with these.


def level_masses_reference(leaves, m, level):
    shift = m - level
    acc = {}
    for key in sorted(leaves):
        coarse = tuple(c >> shift for c in key)
        acc[coarse] = acc.get(coarse, 0.0) + leaves[key]
    return acc


def build_from_atoms_reference(points, depth):
    top = 1 << depth
    acc = {}
    for coords, w in points:
        if w > 0:
            key = tuple(min(int(x * top), top - 1) for x in coords)
            acc[key] = acc.get(key, 0.0) + float(w)
    return acc


def magnify_reference(leaves, m, level, q):
    mass = level_masses_reference(leaves, m, level)[q]
    shift = m - level
    out = {}
    for k, v in leaves.items():
        if tuple(c >> shift for c in k) == q:
            out[tuple(c - (qq << shift) for c, qq in zip(k, q))] = v / mass
    return out


def restrict_normalize_reference(leaves, m, level, kept):
    shift = m - level
    sub = {k: v for k, v in leaves.items() if tuple(c >> shift for c in k) in kept}
    tot = math.fsum(sub.values())
    return {k: v / tot for k, v in sub.items()}


def _ratio_class(ratio, max_k):
    if ratio > 1.0:
        ratio = 1.0
    k = 0
    while k <= max_k and ratio <= 2.0 ** -(k + 1):
        k += 1
    return k


def prune_pass_reference(leaves, m, d, surviving, T, ell):
    """One sweep of the block-uniform extraction; returns (surviving,
    classes, changed)."""
    max_k = d * T
    classes = []
    changed = False
    for j in range(1, ell + 1):
        shift_fine = m - j * T
        shift_coarse = m - (j - 1) * T
        fine = {}
        coarse = {}
        for leaf in sorted(surviving):
            w = leaves[leaf]
            fine_key = tuple(c >> shift_fine for c in leaf)
            coarse_key = tuple(c >> shift_coarse for c in leaf)
            fine[fine_key] = fine.get(fine_key, 0.0) + w
            coarse[coarse_key] = coarse.get(coarse_key, 0.0) + w
        weight_by_class = {}
        class_of = {}
        for coords in sorted(fine):
            parent = tuple(c >> T for c in coords)
            k = _ratio_class(fine[coords] / coarse[parent], max_k)
            class_of[coords] = k
            weight_by_class[k] = weight_by_class.get(k, 0.0) + fine[coords]
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


def extract_uniform_reference(leaves, m, d, T):
    """(beta, surviving leaves, mass_retained) of the extraction sweep."""
    surviving = set(leaves)
    while True:
        surviving, classes, changed = prune_pass_reference(leaves, m, d, surviving, T, m // T)
        if not surviving:
            raise ValueError("pruning emptied the measure")
        if not changed:
            break
    retained = math.fsum(leaves[k] for k in sorted(surviving))
    return tuple(k / T for k in classes), surviving, retained


def decompose_uniform_reference(leaves, m, d, T, eps):
    """[(beta, surviving leaves, mass_retained)] of the repeated extraction."""
    cutoff = 2.0 ** (-eps * m)
    pieces = []
    remaining = dict(leaves)
    residual_mass = 1.0
    while residual_mass >= cutoff and remaining:
        tot = math.fsum(remaining.values())
        residual = {k: v / tot for k, v in remaining.items()}
        beta, surviving, retained = extract_uniform_reference(residual, m, d, T)
        pieces.append((beta, surviving, retained * residual_mass))
        for k in surviving:
            del remaining[k]
        residual_mass = math.fsum(remaining[k] for k in sorted(remaining))
    return pieces
