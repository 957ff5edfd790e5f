"""Combinatorial scale optimization over piecewise-linear branching profiles.

The central object is the two-player value

    best over allowable interval families of  sum_j (b_j - a_j) * D(sigma_j)

for a fixed profile function D and branching function f, minimized
adversarially over f in the slope-constrained class L(d,t).  An interval
[a, b] is tau-allowable when tau <= b - a <= a; sigma_j must make f
sigma_j-superlinear on [a_j, b_j].

The inner maximization is solved exactly on an endpoint grid by weighted
interval scheduling; the outer minimization is a certificate search (the
returned value is an upper bound on the true infimum, witnessed by the
minimizing f).
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .plf import PLFunction, _in_class_rows, from_slopes, linear

_TOL = 1e-9
# candidates per batched sub-grid bound in sigma_tau; from about 4 a batch
# costs less per candidate than one at a time, and 8 keeps its weights
# (8 x 201^2 floats at grid 800) at half of one full-grid evaluation's
_BATCH = 8


# -- the threshold constant -------------------------------------------------


def phi(u: float) -> float:
    """Positive root of x^2 + (2-u)x - u = 0, in closed form."""
    if not (0.0 < u <= 1.0):
        raise ValueError(f"u must be in (0, 1], got {u}")
    return u / 2.0 + u * u / (2.0 * (2.0 + math.sqrt(u * u + 4.0)))


def c_d_table(d_range) -> list[tuple[int, float]]:
    """Distance-set box-dimension gain over 1/2 in ambient dimension d >= 4."""
    out = []
    for d in d_range:
        if d < 4:
            raise ValueError("table starts at ambient dimension 4")
        if d % 2 == 1:
            out.append((d, phi(0.5) / (d + 1)))
        else:
            out.append((d, (phi(1.0) - 0.5) / (d + 1)))
    if not out:
        raise ValueError("the range of dimensions is empty")
    return out


# -- profile functions ------------------------------------------------------


def _is_number(value) -> bool:
    """A real number other than a bool; a string is none, though float()
    would parse it."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite(name: str, value) -> float:
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _dimension(d) -> float:
    d = _finite("d", d)
    if d <= 0.0:
        raise ValueError(f"d must be positive, got {d}")
    return d


class Profile:
    """Nondecreasing map D: [0, d] -> [0, inf) scoring projection gain per
    slope.  Subclasses give the formula as `_values`, on a float array."""

    d: float

    def __call__(self, t):
        val = self._values(np.asarray(t, dtype=float))
        return val if val.ndim else float(val)

    def _values(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class HighDimProfile(Profile):
    """D(t) = max(min(1, s + t - (d-1)), t/d)."""

    def __init__(self, d: int, s: float):
        self.d = _dimension(d)
        if not self.d.is_integer():
            raise ValueError(f"d must be an integer, got {d}")
        self.s = _finite("s", s)

    def _values(self, t):
        return np.maximum(np.minimum(1.0, self.s + t - (self.d - 1.0)), t / self.d)


class TrivialHalfProfile(Profile):
    """D(t) = t/2, valid for any positive base exponent."""

    def __init__(self, d: float = 2.0):
        self.d = _dimension(d)

    def _values(self, t):
        return t / 2.0


class KaufmanProfile(Profile):
    """Identity up to the direction-measure exponent: D(t) = min(t, s)."""

    def __init__(self, s: float, d: float = 2.0):
        self.d = _dimension(d)
        self.s = _finite("s", s)

    def _values(self, t):
        return np.minimum(t, self.s)


class PlanarProfile(Profile):
    """Three-regime planar profile: identity, then a plateau s + eta, then
    t/2 beyond the crossover s' = 2 (s + eta), capped at 2.

    The plateau height eta is a positive constant.  The theory does not pin
    it down numerically; the default of 0.01 is clearly non-canonical.
    """

    def __init__(self, s: float, eta: float = 0.01):
        self.d = 2.0
        self.s = _finite("s", s)
        self.eta = _finite("eta", eta)
        if not 0.0 < self.s < 2.0:
            raise ValueError(f"s must be in (0, 2), got {s}")
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.s_prime = min(2.0, 2.0 * (self.s + self.eta))

    def _values(self, t):
        plateau = self.s + self.eta
        return np.where(t <= self.s, t, np.where(t <= self.s_prime, plateau, t / 2.0))


class CustomProfile(Profile):
    """Piecewise-linear profile given by breakpoints on [0, d]."""

    def __init__(self, xs, ys, d: float):
        self.d = _dimension(d)
        bad = ValueError("breakpoints and values must be lists of numbers")
        try:
            xs, ys = list(xs), list(ys)
        except TypeError:
            raise bad from None
        if not all(map(_is_number, xs + ys)):
            raise bad
        self.xs = tuple(_finite("breakpoint", x) for x in xs)
        self.ys = tuple(_finite("value", y) for y in ys)
        if not self.xs or len(self.xs) != len(self.ys):
            raise ValueError("need one value per breakpoint and at least one breakpoint")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(b < a - _TOL for a, b in zip(self.ys, self.ys[1:])):
            raise ValueError("profile must be nondecreasing")

    def _values(self, t):
        return np.interp(t, self.xs, self.ys)


# -- superlinearity --------------------------------------------------------


def _eval_points(f: PLFunction, a: float, b: float) -> list[float]:
    pts = [x for x in f.xs if a + _TOL < x < b - _TOL]
    pts.append(b)
    return pts


def best_slope(f: PLFunction, a: float, b: float) -> float:
    """Largest sigma such that f is sigma-superlinear on [a, b].

    Checked at breakpoints and at b, which suffices for piecewise-linear f.
    """
    if a >= b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    fa = float(f(a))
    return min((float(f(x)) - fa) / (x - a) for x in _eval_points(f, a, b))


def is_superlinear(f: PLFunction, a: float, b: float, sigma: float, tol: float = _TOL) -> bool:
    """True iff f(x) >= f(a) + sigma (x - a) on [a, b]."""
    return best_slope(f, a, b) >= sigma - tol


def _slope_rows(G: np.ndarray, fG: np.ndarray, p: np.ndarray, q1: int) -> np.ndarray:
    """Best superlinear slopes of f (fG = f(G), or a row f(G) per function
    on a leading axis) from the starts G[p], p increasing, to the ends G[q],
    p[0] < q <= q1, on the sorted grid G: S[..., r, q - p[0] - 1] =
    best_slope(f, G[p[r]], G[q]), exact when G contains f's breakpoints
    (inf for q <= p[r])."""
    ends = slice(p[0] + 1, q1 + 1)
    dx = G[ends] - G[p, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        S = (fG[..., None, ends] - fG[..., p, None]) / dx
    # q <= p[r] only happens for q <= p[-1]
    stair = slice(0, p[-1] - p[0])
    np.copyto(S[..., stair], np.inf, where=dx[:, stair] <= 0)
    return np.minimum.accumulate(S, axis=-1, out=S)


def _row_chunk(n: int, k: int = 1) -> int:
    """Rows per _slope_rows call on an n-step grid for k functions at once.
    A chunk spans the union of its rows' bands, so larger chunks waste
    columns and smaller ones pay more per-call overhead; about 48 rows was
    fastest for one function and n = 100 to 800, and 16 to 32 rows for two
    to eight functions on the sub-grids of n = 400 and 800."""
    return max(16, max(48, n // 16) // k)


# -- interval decompositions -----------------------------------------------


@dataclass
class IntervalDecomposition:
    """An ordered family of (a_j, b_j, sigma_j) with a superlinearity budget.

    `check` verifies the structural invariants; allowability (tau <= b-a <= a)
    can be waived for merged chains, which the merging lemmas do not keep
    allowable.
    """

    entries: list[tuple[float, float, float]]
    tau: float
    value_against: tuple[Profile, float] | None = None

    def check(self, f: PLFunction | None = None, d: float | None = None,
              require_allowable: bool = True) -> None:
        prev_b = -math.inf
        for a, b, sigma in self.entries:
            if a >= b:
                raise ValueError(f"degenerate interval [{a}, {b}]")
            if a < prev_b - _TOL:
                raise ValueError("overlapping intervals")
            prev_b = b
            if require_allowable:
                if not (self.tau - _TOL <= b - a <= a + _TOL):
                    raise ValueError(f"interval [{a}, {b}] is not {self.tau}-allowable")
            if d is not None and not (-_TOL <= sigma <= d + _TOL):
                raise ValueError(f"sigma {sigma} outside [0, {d}]")
            if f is not None and not is_superlinear(f, a, b, sigma):
                raise ValueError(f"f is not {sigma}-superlinear on [{a}, {b}]")
        if self.value_against is not None:
            D, total = self.value_against
            acc = 0.0
            for a, b, sigma in self.entries:
                acc += (b - a) * float(D(max(0.0, sigma)))
            if abs(acc - total) > 1e-8:
                raise ValueError(f"stored value {total} != recomputed {acc}")


def merge(
    f: PLFunction,
    left: tuple[float, float, float],
    right: tuple[float, float, float],
) -> tuple[float, float, float]:
    """Merge adjacent superlinear entries; the combined slope is the
    length-weighted mean, and superlinearity carries over when the left
    slope dominates."""
    a, b1, s1 = left
    b2, c, s2 = right
    if abs(b1 - b2) > _TOL:
        raise ValueError("entries are not adjacent")
    if s1 < s2 - _TOL:
        raise ValueError("merge requires left slope >= right slope")
    if not is_superlinear(f, a, b1, s1) or not is_superlinear(f, b2, c, s2):
        raise ValueError("entries are not superlinear certificates for f")
    sigma = _merged_slope(left, right)
    if not is_superlinear(f, a, c, sigma, tol=1e-7):
        raise ValueError(f"merged slope {sigma} is not superlinear on [{a}, {c}]")
    return (a, c, sigma)


def _merged_slope(left, right) -> float:
    """Length-weighted mean slope of adjacent entries (a, b, sigma); it keeps
    sum_j sigma_j (b_j - a_j) unchanged."""
    (a, b1, s1), (b2, c, s2) = left, right
    return (s1 * (b1 - a) + s2 * (c - b2)) / (c - a)


def merge_increasing(f: PLFunction, entries) -> IntervalDecomposition:
    """Merge a consecutive chain until the slopes are strictly increasing.

    The weighted sum sum_j sigma_j (b_j - a_j) is preserved exactly by the
    merge formula.
    """
    entries = list(entries)
    for (a, b, _), (a2, _, _) in zip(entries, entries[1:]):
        if abs(b - a2) > _TOL:
            raise ValueError("chain must be consecutive")
    stack: list[tuple[float, float, float]] = []
    for entry in entries:
        cur = entry
        while stack and stack[-1][2] >= cur[2] - _TOL:
            prev = stack.pop()
            cur = (prev[0], cur[1], _merged_slope(prev, cur))
        stack.append(cur)
    dec = IntervalDecomposition(stack, tau=min(b - a for a, b, _ in stack))
    dec.check(f=f, require_allowable=False)
    return dec


def superlinear_decomposition(
    f: PLFunction, a: float, b: float, eps: float, rho: float
) -> IntervalDecomposition:
    """Cover [a, b] by consecutive intervals of length in [tau, rho] whose
    superlinear slopes nearly exhaust the growth of f.

    tau = eps * rho / 8 is reported in the result.  The chain is the exact
    optimum (on a grid refined to step tau/2) of sum_j (a_{j+1}-a_j) sigma_j,
    which dominates the constructive guarantee
    f(b) - f(a) - eps (b - a) whenever one exists.
    """
    if not f.is_nondecreasing():
        raise ValueError("f must be nondecreasing")
    if a < rho - _TOL or b - a < rho - _TOL:
        raise ValueError("range too small: need a >= rho and b - a >= rho")
    tau = eps * rho / 8.0
    step = tau / 2.0
    n = max(2, int(math.ceil((b - a) / step)))
    grid = sorted(
        set(np.linspace(a, b, n + 1).tolist())
        | {x for x in f.xs if a < x < b}
    )
    G = np.array(grid)
    K = len(G)
    fG = np.asarray(f(G))
    # column-major best slopes Bt[j, i] over [G[i], G[j]] for the lengths up
    # to rho the chain may use; zero elsewhere, where the DP masks them
    hi = np.searchsorted(G, G + (rho + 4 * _TOL), side="right") - 1
    Bt = np.zeros((K, K))
    chunk = _row_chunk(K)
    for p0 in range(0, K - 1, chunk):
        p1 = min(p0 + chunk, K - 1)
        q1 = hi[p1 - 1]
        Bt[p0 + 1:q1 + 1, p0:p1] = _slope_rows(G, fG, np.arange(p0, p1), q1).T

    NEG = -math.inf
    val = np.full(K, NEG)
    back = np.full(K, -1, dtype=int)
    val[0] = 0.0
    for j in range(1, K):
        lens = G[j] - G[:j]
        ok = (lens >= tau - _TOL) & (lens <= rho + _TOL)
        if not ok.any():
            continue
        cand = val[:j] + lens * Bt[j, :j]
        cand[~ok] = NEG
        i = int(np.argmax(cand))
        if cand[i] > NEG:
            val[j] = cand[i]
            back[j] = i
    if val[K - 1] == NEG:
        raise ValueError("range too small to tile with the required lengths")
    chain = []
    j = K - 1
    while j > 0:
        i = back[j]
        chain.append((float(G[i]), float(G[j]), float(Bt[j, i])))
        j = i
    chain.reverse()
    dec = IntervalDecomposition(chain, tau=tau)
    dec.check(f=f, require_allowable=False)
    return dec


# -- exact inner maximization ----------------------------------------------


def _positive_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


def _grid(grid_n: int) -> np.ndarray:
    """The endpoint grid {i/grid_n : 0 <= i <= grid_n}."""
    return np.arange(_positive_int("grid_n", grid_n) + 1) / grid_n


def _band(xs: np.ndarray, tau: float):
    """The ends lo[i] <= j <= hi[i] of the band per start i on the sorted
    grid xs, a little wider than the allowable xs[i] + tau <= xs[j] <=
    2 xs[i], and the starts whose band is not empty."""
    idx = np.arange(len(xs))
    lo = np.maximum(np.searchsorted(xs, xs + (tau - 4 * _TOL)), idx + 1)
    hi = np.searchsorted(xs, 2.0 * xs + 4 * _TOL, side="right") - 1
    return lo, hi, np.flatnonzero(lo <= hi)


def _weights(D: Profile, fs: list[PLFunction], tau: float, xs: np.ndarray, band):
    """Column-major weights W[r, j, i] of [xs[i], xs[j]] against fs[r], for
    functions that share their breakpoints: -inf off the band and where no
    sigma in [0, d] certifies the interval.  Also the clipped slopes per row
    chunk, (c0, j0, sg) with sg[r, i - c0, j - j0], for the certificate.

    Slopes and weights are built only on the band; the exact allowability
    test then runs on it, so every weight equals the one a full (n+1)^2
    matrix would hold.
    """
    lo, hi, rows = band
    n = len(xs) - 1
    G = np.union1d(xs, np.clip(np.array(fs[0].xs), 0.0, 1.0))
    gi = np.searchsorted(G, xs)
    fG = np.array([f(G) for f in fs])
    W = np.full((len(fs), n + 1, n + 1), -math.inf)
    clipped = []
    chunk = _row_chunk(n, len(fs))
    for c0 in range(rows[0], rows[-1] + 1, chunk):
        c1 = min(c0 + chunk, rows[-1] + 1)
        j0, j1 = lo[c0], hi[c1 - 1] + 1
        if j1 <= j0:
            continue
        S = _slope_rows(G, fG, gi[c0:c1], gi[j1 - 1])
        Bg = S[..., gi[j0:j1] - (gi[c0] + 1)]
        lens = xs[j0:j1] - xs[c0:c1, None]
        allowable = (lens >= tau - _TOL) & (lens <= xs[c0:c1, None] + _TOL) & (lens > 0)
        sg = np.clip(Bg, 0.0, D.d)
        W[:, j0:j1, c0:c1] = np.where(allowable & (Bg >= -_TOL),
                                      lens * np.asarray(D(sg)), -math.inf).transpose(0, 2, 1)
        clipped.append((c0, j0, sg))
    return W, clipped


def _column_blocks(band):
    """Blocks [j0, j1) of columns and the rows [r0, r1) whose bands hold a
    column of the block.  Each such row is at most j - k for column j, so a
    block of k columns reads only entries of the DP finished before it."""
    lo, hi, rows = band
    idx = np.arange(len(lo))
    k = int(np.min(lo[rows] - rows))
    rstart = np.searchsorted(hi, idx).tolist()
    rend = np.searchsorted(lo, idx, side="right").tolist()
    for j0 in range(int(lo[rows[0]]), len(lo), k):
        j1 = min(j0 + k, len(lo))
        yield j0, j1, rstart[j0], rend[j1 - 1]


def _dp(D: Profile, fs: list[PLFunction], tau: float, xs: np.ndarray):
    """Weighted interval scheduling over allowable families with endpoints in
    the sorted grid xs, for functions fs that share their breakpoints.

    Returns (best, W, clipped): best[r, j] is the value of fs[r] on xs[:j+1],
    and W, clipped the weights and clipped slopes of `_weights` (None and []
    when no interval is allowable).  One sweep carries all of fs on a leading
    axis, so each row takes the same sums and maxima as a sweep of its own.
    """
    best = np.zeros((len(fs), len(xs)))
    band = _band(xs, tau)
    if not len(band[2]):
        return best, None, []
    W, clipped = _weights(D, fs, tau, xs, band)
    for j0, j1, r0, r1 in _column_blocks(band):
        if r1 > r0:
            # best of each column's own intervals, then the running maximum
            # from the column before the block
            np.maximum.reduce(W[:, j0:j1, r0:r1] + best[:, None, r0:r1], axis=2,
                              out=best[:, j0:j1])
            np.maximum.accumulate(best[:, j0 - 1:j1], axis=1, out=best[:, j0 - 1:j1])
        else:
            best[:, j0:j1] = best[:, j0 - 1, None]
    return best, W, clipped


def sigma_for_f(
    D: Profile, f: PLFunction, tau: float, grid_n: int
) -> tuple[float, IntervalDecomposition]:
    """Exact maximum of sum (b_j - a_j) D(sigma_j) over allowable families
    with endpoints on the grid {i/grid_n}.

    sigma_j is always the best superlinear slope (optimal since D is
    nondecreasing).  Solved by weighted interval scheduling; the value is a
    lower bound for the continuum supremum and grows under grid refinement.
    """
    if not (0.0 < tau <= 0.5):
        raise ValueError(f"tau must be in (0, 1/2], got {tau}")
    xs = _grid(grid_n)
    best, W, clipped = _dp(D, [f], tau, xs)
    value = float(best[0, -1])
    dec = IntervalDecomposition(_certificate(xs, best[0], W, clipped), tau=tau,
                                value_against=(D, value))
    return value, dec


def _certificate(xs: np.ndarray, best: np.ndarray, W, clipped) -> list[tuple[float, float, float]]:
    """The entries (a, b, sigma) of an optimal family for the first function
    of a `_dp` result with values best, walked back from the right end: a
    family optimal on xs[:j+1] has an interval ending at xs[j] exactly where
    the value rises, and it starts at the first row that attains the value."""
    rises = (np.flatnonzero(best[1:] > best[:-1]) + 1).tolist()
    starts = [c0 for c0, _, _ in clipped]
    entries = []
    k = len(rises)
    while k:
        j = rises[k - 1]
        i = int(np.argmax(W[0, j, :j] + best[:j]))
        c0, j0, sg = clipped[bisect.bisect_right(starts, i) - 1]
        entries.append((float(xs[i]), float(xs[j]), float(sg[0, i - c0, j - j0])))
        k = bisect.bisect_right(rises, i)
    return entries[::-1]


def _pruning_bounds(D: Profile, fs: list[PLFunction], tau: float, xs: np.ndarray) -> np.ndarray:
    """Lower bounds for the values of fs, functions that share their
    breakpoints, on the grid xs: their values on the sub-grid xs[::4].

    Every family with endpoints on the sub-grid is a family on xs, and the
    sub-grid points are the same floats, so each bound holds up to rounding
    in the best slopes (exact on the grid united with f's breakpoints), far
    below 1e-12.
    """
    return _dp(D, fs, tau, xs[::4])[0][:, -1]


# -- adversarial outer minimization ----------------------------------------


@dataclass
class SigmaTauResult:
    estimate: float
    certificate: PLFunction
    n_candidates: int
    n_full_evals: int
    decomposition: IntervalDecomposition = field(repr=False, default=None)


def _default_grid_n(tau: float, n_segments: int) -> int:
    n = int(math.ceil(8.0 / tau))
    # keep candidate breakpoints on the fine grid
    rem = n % n_segments
    if rem:
        n += n_segments - rem
    return n


def _feasible_random_slopes(rng, t, d, levels, n_segments):
    """Sample a slope vector keeping the partial sums above the line t*x."""
    out = []
    v = 0.0
    for i in range(n_segments):
        x_next = (i + 1) / n_segments
        ok = [s for s in levels if v + s / n_segments >= t * x_next - _TOL]
        if not ok:
            return None
        s = ok[int(rng.integers(len(ok)))]
        out.append(s)
        v += s / n_segments
    return out


def sigma_tau(
    D: Profile,
    t: float,
    tau: float,
    budget: int = 10000,
    n_segments: int = 16,
    slope_levels=None,
    grid_n: int | None = None,
    seed: int = 0,
) -> SigmaTauResult:
    """Upper-bound the infimum of sigma_for_f over f in L(d, t).

    Candidates are piecewise-linear functions with breakpoints on a coarse
    grid and slopes from a fixed ladder; the search is exhaustive when the
    ladder is small enough, otherwise seeded random sampling plus structured
    two-slope candidates and local slope descent.  Every reported value is
    certified by the minimizing candidate.

    A candidate is a generated function that lies in L(d, t); every one
    counts toward `budget` and `n_candidates`.  A full evaluation is a
    `sigma_for_f` call on the grid; once a certificate exists, a candidate
    whose value on the quarter sub-grid (a lower bound for its grid value)
    already exceeds the best value cannot win and gets none, so
    `n_full_evals <= n_candidates` and the result is the same as with a full
    evaluation of every candidate.

    The sub-grid bounds read nothing of the search, so one DP computes them
    for up to _BATCH consecutive candidates with the same breakpoints: the
    two-slope candidates with inner breakpoint x0 (whose class test runs on
    a row of values before any function is built), or candidates of another
    phase (a descent sweep builds all its trials from the slopes at its
    start).  The batch is then walked in generation order, so every output
    equals that of bounding one candidate at a time.
    """
    d = D.d
    if not (0.0 < t < d):
        raise ValueError(f"t must be in (0, {d}), got {t}")
    if not (0.0 < tau <= 0.5):
        raise ValueError(f"tau must be in (0, 1/2], got {tau}")
    _positive_int("budget", budget)
    _positive_int("n_segments", n_segments)
    if slope_levels is None:
        slope_levels = [d * i / 8.0 for i in range(9)]
    try:
        slope_levels = [float(s) for s in slope_levels]
    except (TypeError, ValueError):
        slope_levels = []
    if not slope_levels or not all(map(math.isfinite, slope_levels)):
        raise ValueError("slope_levels must be a non-empty list of finite numbers")
    if grid_n is None:
        grid_n = _default_grid_n(tau, n_segments)
    xs = _grid(grid_n)

    # explicit feasible point: the boundary line of the class
    best_f = linear(t)
    best_val, best_dec = sigma_for_f(D, best_f, tau, grid_n)
    n_eval = n_full = 1

    def consider(fs):
        """Walk fs, functions in L(d, t) with the same breakpoints, in order."""
        nonlocal best_val, best_f, best_dec, n_eval, n_full
        fs = iter(fs)
        while batch := list(itertools.islice(fs, _BATCH)):
            for f, bound in zip(batch, _pruning_bounds(D, batch, tau, xs)):
                n_eval += 1
                if bound > best_val + 1e-12:
                    continue
                val, dec = sigma_for_f(D, f, tau, grid_n)
                n_full += 1
                if val < best_val:
                    best_val, best_f, best_dec = val, f, dec

    total = len(slope_levels) ** n_segments
    if total <= budget:
        fs = map(from_slopes, itertools.product(slope_levels, repeat=n_segments))
        consider(f for f in fs if f.in_class(d, t))
    else:
        # structured two-slope candidates: a row of s2 per s1 until the
        # budget is reached, all rows with breakpoint x0 walked together
        fine = np.array([d * i / 16.0 for i in range(17)])
        ys = np.zeros((len(fine), 3))
        for k in range(1, n_segments):
            x0 = k / n_segments
            bx = (0.0, x0, 1.0)
            fs = []
            for s1 in fine.tolist():
                if n_eval + len(fs) >= budget:
                    break
                ys[:, 1] = s1 * x0
                ys[:, 2] = s1 * x0 + fine * (1.0 - x0)
                rows = ys[_in_class_rows(bx, ys, d, t)].tolist()
                fs += [PLFunction(bx, tuple(row)) for row in rows]
            consider(fs)
        # seeded random feasible slope vectors
        rng = np.random.default_rng(seed)
        tries = 0
        while n_eval < budget and tries < 20 * budget:
            batch = []
            while len(batch) < min(_BATCH, budget - n_eval) and tries < 20 * budget:
                tries += 1
                slopes = _feasible_random_slopes(rng, t, d, slope_levels, n_segments)
                if slopes is not None:
                    f = from_slopes(slopes)
                    if f.in_class(d, t):
                        batch.append(f)
            consider(batch)
        # local descent on the best found slope vector
        if len(best_f.xs) == n_segments + 1:
            levels = sorted(slope_levels)
            while n_eval < budget + 4 * n_segments:
                cur = list(np.diff(best_f.ys) / np.diff(best_f.xs))
                base = best_val
                trials = []
                for i in range(n_segments):
                    k = levels.index(min(levels, key=lambda s: abs(s - cur[i])))
                    for k2 in (k - 1, k + 1):
                        if not (0 <= k2 < len(levels)):
                            continue
                        trial = list(cur)
                        trial[i] = levels[k2]
                        trials.append(from_slopes(trial))
                consider(f for f in trials if f.in_class(d, t))
                if best_val >= base - 1e-15:
                    break

    return SigmaTauResult(best_val, best_f, n_eval, n_full, best_dec)


def lipschitz_scan(D: Profile, t_range, tau: float, **kwargs) -> list[dict]:
    """Scan sigma_tau over t, enforcing the class-nesting monotonicity.

    Smaller t admits every candidate feasible at larger t, so estimates are
    clamped to be nondecreasing in t; the empirical modulus is reported.
    """
    ts = list(t_range)
    if ts != sorted(ts):
        raise ValueError("t_range must be sorted")
    rows = []
    ceiling = math.inf
    for t in reversed(ts):
        res = sigma_tau(D, t, tau, **kwargs)
        est = min(res.estimate, ceiling)
        ceiling = est
        rows.append({"t": t, "estimate": est, "certificate": res.certificate})
    rows.reverse()
    for prev, cur in zip(rows, rows[1:]):
        dt = cur["t"] - prev["t"]
        cur["modulus"] = (cur["estimate"] - prev["estimate"]) / dt if dt > 0 else 0.0
    return rows


def verify_planar_bound(
    u: float,
    zeta: float,
    eta: float = 0.01,
    tau: float = 0.01,
    budget: int = 1000,
    s_grid=None,
    **kwargs,
) -> dict:
    """Check that the planar profile value exceeds s across s in (0, phi(u)-zeta].

    Parametric in the plateau height eta; the shipped default is
    non-canonical.  Reports per-s margins; PASS iff all are strictly positive.
    """
    s_max = phi(u) - zeta
    if s_grid is None:
        s_grid = [s_max * k / 6.0 for k in range(1, 7)]
    rows = []
    for s in s_grid:
        if not (0.0 < s <= s_max + _TOL):
            raise ValueError(f"s={s} outside (0, {s_max}]")
        D = PlanarProfile(s, eta=eta)
        res = sigma_tau(D, u, tau, budget=budget, **kwargs)
        rows.append(
            {
                "s": s,
                "tau": tau,
                "estimate": res.estimate,
                "margin": res.estimate - s,
                "certificate": res.certificate,
                "base_case": s <= u / 3.0,
            }
        )
    return {"rows": rows, "passed": all(r["margin"] > 0.0 for r in rows)}
