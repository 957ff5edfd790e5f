"""Independent brute-force oracles used by the property tests.

These recompute the optimization targets by exhaustive enumeration so the
fast implementations can be checked exactly.
"""

import math

import numpy as np

from dimlab.dyadic import DyadicMeasure, _group_rows

_TOL = 1e-9


def random_measure(rng, d=2, m=8, n_leaves=40):
    top = 1 << m
    leaves = {}
    for _ in range(n_leaves):
        key = tuple(int(rng.integers(top)) for _ in range(d))
        leaves[key] = float(rng.random()) + 1e-3
    return DyadicMeasure(d, m, leaves).normalize()


def exact_split_measure(rng, d, m):
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


def two_slope_class_count(d, t):
    """Number of functions in L(d, t) with one inner breakpoint x0 = k/16,
    0 < k < 16, slope s1 up to x0 and s2 after it, s1 and s2 in
    {d i/16 : 0 <= i <= 16}, one at a time by `in_class` (repeated shapes,
    such as the lines at every x0, counted each time)."""
    from dimlab.plf import from_slopes

    ladder = [d * i / 16.0 for i in range(17)]
    return sum(from_slopes([s1, s2], xs=[0.0, k / 16.0, 1.0]).in_class(d, t)
               for k in range(1, 16) for s1 in ladder for s2 in ladder)


# -- dense references for the banded sigma_for_f DP --------------------------
# The (n+1)^2 best-slope and weight matrices and a per-column DP that records
# each column's interval, against sigma._dp's banded block sweep and
# sigma._certificate's walk-back from where the value rises.


def _best_slope_matrix(f, G):
    """B[i, j] = best_slope(f, G[i], G[j]) for i < j on the sorted grid G,
    exact when G contains f's breakpoints (inf for j <= i)."""
    fG = np.asarray(f(G))
    dx = G[None, :] - G[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        S = (fG[None, :] - fG[:, None]) / dx
    S[dx <= 0] = np.inf
    return np.minimum.accumulate(S, axis=1)


def grid_dp_dense_reference(D, f, tau, xs):
    """Weighted interval scheduling over allowable families with endpoints in
    the sorted grid xs.

    Returns (value, take, Bg): take[j] is the start index of the interval
    ending at xs[j] in an optimal family on xs[:j+1] (-1 if none), and
    Bg[i, j] the best superlinear slope over [xs[i], xs[j]].
    """
    d = D.d
    G = np.union1d(xs, np.clip(np.array(f.xs), 0.0, 1.0))
    gi = np.searchsorted(G, xs)
    Bg = _best_slope_matrix(f, G)[np.ix_(gi, gi)]

    n = len(xs) - 1
    NEG = -math.inf
    # interval weights; invalid when no sigma in [0, d] certifies the interval
    lens = xs[None, :] - xs[:, None]
    allowable = (lens >= tau - _TOL) & (lens <= xs[:, None] + _TOL) & (lens > 0)
    sig = np.clip(Bg, 0.0, d)
    W = np.where(allowable & (Bg >= -_TOL), lens * np.asarray(D(sig)), NEG)

    best = np.zeros(n + 1)
    take = np.full(n + 1, -1, dtype=int)
    for j in range(1, n + 1):
        b = best[j - 1]
        t = -1
        cand = best[:j] + W[:j, j]
        i = int(np.argmax(cand))
        if cand[i] > b:
            b = cand[i]
            t = i
        best[j] = b
        take[j] = t
    return float(best[n]), take, Bg


def superlinear_chain_dense_reference(f, a, b, eps, rho):
    """The (a_j, b_j, sigma_j) chain of superlinear_decomposition, from the
    dense best-slope matrix and its per-column DP."""
    tau = eps * rho / 8.0
    step = tau / 2.0
    n = max(2, int(math.ceil((b - a) / step)))
    grid = sorted(
        set(np.linspace(a, b, n + 1).tolist())
        | {x for x in f.xs if a < x < b}
    )
    G = np.array(grid)
    K = len(G)
    B = _best_slope_matrix(f, G)

    NEG = -math.inf
    val = np.full(K, NEG)
    back = np.full(K, -1, dtype=int)
    val[0] = 0.0
    for j in range(1, K):
        lens = G[j] - G[:j]
        ok = (lens >= tau - _TOL) & (lens <= rho + _TOL)
        if not ok.any():
            continue
        cand = val[:j] + lens * B[:j, j]
        cand[~ok] = NEG
        i = int(np.argmax(cand))
        if cand[i] > NEG:
            val[j] = cand[i]
            back[j] = i
    chain = []
    j = K - 1
    while j > 0:
        i = back[j]
        chain.append((float(G[i]), float(G[j]), float(B[i, j])))
        j = i
    chain.reverse()
    return chain


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


def heaviest_point_reference(start, end, w):
    """The planar arc sweep by two stable argsorts and searchsorted ranks,
    for any weights: geometry._heaviest_point must give its mass and theta
    bit for bit.  Overwrites start and end."""
    if not len(w):
        return 0.0, 0.0
    s_order = np.argsort(start, kind="stable")
    s = start[s_order]
    # mass of the starts <= s[k]; mode="clip" writes to out unbuffered
    cover = np.cumsum(np.take(w, s_order, out=start, mode="clip"), out=start)
    del s_order
    e_order = np.argsort(end, kind="stable")
    e = end[e_order]
    ended = np.empty(len(w) + 1)  # ended[k]: mass of the first k ends
    ended[0] = 0.0
    np.cumsum(np.take(w, e_order, out=end, mode="clip"), out=ended[1:])
    del e_order
    cover -= np.take(ended, np.searchsorted(e, s), out=end, mode="clip")
    wrapped = np.take(ended, np.searchsorted(e, np.add(s, math.pi, out=end)), out=end,
                      mode="clip")
    cover += np.subtract(ended[-1], wrapped, out=wrapped)
    k = int(np.argmax(cover))
    return float(cover[k]), float(s[k])


def planar_direction_grid(step):
    """Deterministic grid of planar line directions with angular step <= `step`;
    a maximum over it is a lower bound for the exact planar sweeps."""
    n = max(4, int(math.ceil(math.pi / step)))
    ang = np.arange(n) * (math.pi / n)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def hyperplane_concentration_grid(rho, a):
    """Planar hyperplane concentration over the normals of
    planar_direction_grid(a / 4): a lower bound for the exact maximum."""
    inner = np.abs(rho.cell_centers()[rho.index] @ planar_direction_grid(a / 4.0).T)
    return float((rho.masses @ (inner <= a + _TOL)).max())


def hyperplane_concentration_bruteforce(rho, a):
    """Max rho-mass within a of a line through the origin (d = 2), by the
    distance test |<v, n>| <= a for the normal n at each endpoint of every
    cell's arc of normals (angles within arcsin(a) of phi + pi/2, for the
    cell at angle phi): the maximum over normals is attained at one.  O(N^2)
    for N cells."""
    phi = (rho.index + 0.5) * (2.0 * math.pi / rho.n_cells)
    v = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    alpha = math.asin(min(a + _TOL, 1.0))
    best = 0.0
    for psi in np.concatenate([phi + 0.5 * math.pi - alpha, phi + 0.5 * math.pi + alpha]):
        near = np.abs(v @ np.array([math.cos(psi), math.sin(psi)])) <= a + _TOL + _ENDPOINT_SLACK
        best = max(best, float(rho.masses[near].sum()))
    return best


def value_box_count_reference(values, level):
    """Occupied absolute dyadic cells of `values` at one level, by np.unique."""
    from dimlab.geometry import value_bins

    return int(len(np.unique(value_bins(values, level))))


# -- per-base-point references for the entropy chain -------------------------
# The chain's right-hand side as it was computed before it was binned per
# ancestor: one magnified sub-measure per level-A ancestor, then a projection,
# a binning and an entropy for each base point in turn.


def shannon_reference(p):
    """Shannon entropy (bits) of the probability vector p, clamped at 0."""
    p = p[p > 1e-300]
    return max(0.0, float(-(p * np.log2(p)).sum()))


def capped_fill_entropy_reference(masses, Theta):
    """Entropy of the greedy extreme point: fill cells by mass descending,
    each up to its cap Theta * mass, until total mass 1."""
    remaining = 1.0
    h = 0.0
    for p in sorted(masses, reverse=True):
        take = min(Theta * p, remaining)
        if take > 1e-300:
            h -= take * math.log2(take)
        remaining -= take
        if remaining <= 0.0:
            break
    return max(0.0, h)


def value_cell_masses_reference(values, weights, level):
    """Normalized masses of a weighted value cloud's occupied absolute dyadic
    cells, in cell order (empty for zero total weight)."""
    from dimlab.geometry import value_bins

    idx = value_bins(values, level)
    w = np.asarray(weights, dtype=float)
    tot = float(w.sum())
    if tot <= 0:
        return np.zeros(0)
    order = np.argsort(idx, kind="stable")
    idx, w = idx[order], w[order]
    cuts = np.nonzero(np.diff(idx))[0] + 1
    return np.add.reduceat(w, np.concatenate(([0], cuts))) / tot


def magnify(mu, level, q):
    """Renormalized restriction of mu to its level-`level` cube q, rescaled
    to the unit cube; the result has depth m - level."""
    rows, sums = mu.cells(level)
    mass = float(sums[(rows == q).all(axis=1)][0])
    shift = mu.m - level
    corner = np.array(q, dtype=np.int64)
    inside = ((mu.coords >> shift) == corner).all(axis=1)
    return DyadicMeasure._from_arrays(
        mu.d, shift, mu.coords[inside] - (corner << shift), mu.masses[inside] / mass
    )


def rhs_sum_reference(mu, map_kind, y, schedule, int_keys, int_w, robust_theta):
    """Integral of the per-base-point block entropy sums, grouped by the
    level-A ancestor so each magnification is computed once."""
    from dimlab.chain import linearization_direction
    from dimlab.dyadic import _group_rows

    rhs = 0.0
    for A, B in schedule.intervals:
        ancestors, group = _group_rows(int_keys >> (mu.m - A))
        members = np.split(np.argsort(group, kind="stable"),
                           np.cumsum(np.bincount(group))[:-1])
        for anc, idx in zip(map(tuple, ancestors.tolist()), members):
            sub = magnify(mu, A, anc)
            centers = sub.leaf_centers()
            for i in idx:
                x = (int_keys[i] + 0.5) * 2.0 ** (-mu.m)
                u = linearization_direction(map_kind, x, y)
                cells = value_cell_masses_reference(centers @ u, sub.masses, B - A)
                if robust_theta is None:
                    h = shannon_reference(cells)
                else:
                    h = capped_fill_entropy_reference(cells.tolist(), robust_theta)
                rhs += float(int_w[i]) * h
    return rhs


# -- dict-of-tuples references for the array-backed measure core -------------
# The per-leaf loops the measure core ran before it stored sorted arrays.  A
# measure is given here as its leaf dict {coords: mass} and depth m; the
# property tests require exact (==) agreement with these.


def leaf_dict(mu):
    """mu's leaf masses keyed by coordinate tuple, the form the dict
    references take."""
    return dict(zip(map(tuple, mu.coords.tolist()), mu.masses.tolist()))


def cell_table_reference(d, m, items):
    """(coords, masses) arrays of the positive leaves of the (cell, mass)
    pairs `items`, checked leaf by leaf as the per-leaf Mapping constructor
    of DyadicMeasure did (a zero-mass leaf is skipped unchecked); a repeated
    cell is rejected, as the per-line text reader did."""
    top = 1 << m
    seen, leaves = set(), {}
    for coords, mass in items:
        if coords in seen:
            raise ValueError(f"duplicate leaf coordinates {coords}")
        seen.add(coords)
        if not (0.0 <= mass < math.inf):
            raise ValueError(f"mass {mass} at {coords} is negative or not finite")
        if mass == 0.0:
            continue
        if len(coords) != d:
            raise ValueError(f"leaf {coords} has wrong dimension")
        for c in coords:
            if not (0 <= c < top):
                raise ValueError(f"leaf coordinate {c} out of range at depth {m}")
            if int(c) != c:
                raise ValueError(f"leaf coordinate {c} is not an integer")
        leaves[tuple(map(int, coords))] = float(mass)
    coords = np.array(list(leaves), dtype=np.int64).reshape(-1, d)
    order = np.lexsort(coords.T[::-1])
    return coords[order], np.array(list(leaves.values()), dtype=float)[order]


def cell_text_reference(lines, d, m):
    """cell_table_reference of text lines of d integers and a mass each,
    parsed line by line as the text readers did."""
    items = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != d + 1:
            raise ValueError(f"bad leaf line {ln!r}")
        items.append((tuple(int(p) for p in parts[:d]), float(parts[d])))
    return cell_table_reference(d, m, items)


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
    """(beta, the piece's renormalized leaves, mass_retained) of the
    extraction sweep."""
    surviving = set(leaves)
    while True:
        surviving, classes, changed = prune_pass_reference(leaves, m, d, surviving, T, m // T)
        if not surviving:
            raise ValueError("pruning emptied the measure")
        if not changed:
            break
    retained = math.fsum(leaves[k] for k in sorted(surviving))
    return tuple(k / T for k in classes), {k: leaves[k] / retained for k in surviving}, retained


def decompose_uniform_reference(leaves, m, d, T, eps):
    """[(beta, the piece's renormalized leaves, mass_retained)] of the
    repeated extraction."""
    cutoff = 2.0 ** (-eps * m)
    pieces = []
    remaining = dict(leaves)
    residual_mass = 1.0
    while residual_mass >= cutoff and remaining:
        tot = math.fsum(remaining.values())
        residual = {k: v / tot for k, v in remaining.items()}
        beta, piece, retained = extract_uniform_reference(residual, m, d, T)
        pieces.append((beta, piece, retained * residual_mass))
        for k in piece:
            del remaining[k]
        residual_mass = math.fsum(remaining[k] for k in sorted(remaining))
    return pieces


def check_invariant_reference(piece):
    """UniformPiece.check_invariant through DyadicMeasure.cells: each block
    level's cubes are regrouped from the piece's leaves and their parents
    looked up by a second grouping."""
    mu = piece.measure
    T = piece.T
    for j in range(1, piece.ell + 1):
        k = round(piece.beta[j - 1] * T)
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
