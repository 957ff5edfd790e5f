"""Combinatorial scale optimization over piecewise-linear branching profiles.

The central object is the two-player value

    best over allowable interval families of  sum_j (b_j - a_j) * D(sigma_j)

for a fixed profile function D and branching function f, minimized
adversarially over f in the slope-constrained class L(d,t).  An interval
[a, b] is tau-allowable when tau <= b - a <= a; sigma_j must make f
sigma_j-superlinear on [a_j, b_j].

The inner maximization is solved exactly on an endpoint grid by weighted
interval scheduling; the outer minimization is a certificate search.  The
returned value is an upper bound on the infimum of the grid-restricted
problem, witnessed by the minimizing f; it bounds no continuum infimum, as a
grid value only bounds its f's continuum value from below.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import _finite, _is_number, _positive, _positive_int
from .plf import PLFunction, _in_class_rows, _shape_rows, linear

_TOL = 1e-9
# the two-slope ladder: inner breakpoints k/_LADDER, slopes d i/_LADDER
_LADDER = 16
# candidates per batched sub-grid bound in sigma_tau; from about 4 a batch
# costs less per candidate than one at a time
_BATCH = 12
# columns per panel of `_dp` for one function; a batch of functions was
# fastest with 32 on the sub-grids of 400 and 800
_PANEL = 48
# most bytes of masks in the `_plan`s kept: a search at grid 3200 uses one
# of 2.6 MB for the grid and a few of at most 0.2 MB for its sub-grids
_PLAN_BYTES = 8 << 20
_PLANS: dict = {}


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
        self.d = _positive("d", d)
        if not self.d.is_integer():
            raise ValueError(f"d must be an integer, got {d}")
        self.s = _finite("s", s)

    def _values(self, t):
        out = np.add(self.s, t, out=np.empty_like(t))
        out -= self.d - 1.0
        np.minimum(out, 1.0, out=out)
        return np.maximum(out, t / self.d, out=out)


class TrivialHalfProfile(Profile):
    """D(t) = t/2, valid for any positive base exponent."""

    def __init__(self, d: float = 2.0):
        self.d = _positive("d", d)

    def _values(self, t):
        return t / 2.0


class KaufmanProfile(Profile):
    """Identity up to the direction-measure exponent: D(t) = min(t, s)."""

    def __init__(self, s: float, d: float = 2.0):
        self.d = _positive("d", d)
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
        out = np.divide(t, 2.0, out=np.empty_like(t))
        np.copyto(out, self.s + self.eta, where=t <= self.s_prime)
        np.copyto(out, t, where=t <= self.s)
        return out


class CustomProfile(Profile):
    """Piecewise-linear profile given by breakpoints on [0, d]."""

    def __init__(self, xs, ys, d: float):
        self.d = _positive("d", d)
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


def _chord_mins(G: np.ndarray, fG: np.ndarray, p: np.ndarray, q0: int, q1: int,
                carry=None) -> np.ndarray:
    """Best superlinear slopes of f (fG = f(G), or a row f(G) per function
    on a leading axis) from the starts G[p], p increasing, to the ends G[q],
    q0 <= q < q1, on the sorted grid G, end-major: S[..., q - q0, r] is the
    least chord slope from G[p[r]] to the G[q'], p[r] < q' <= q, and of
    carry[..., r] (inf when there are none).  That is best_slope(f, G[p[r]],
    G[q]) when G contains f's breakpoints and carry holds the least slope to
    the ends before q0."""
    dx = G[q0:q1, None] - G[p]
    S = np.subtract(fG[..., q0:q1, None], fG[..., None, p])
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(S, dx, out=S)
    # q <= p[r] only happens for the starts from q0 on, at q <= p[-1]
    s = int(np.searchsorted(p, q0))
    if s < len(p):
        m = p[-1] + 1 - q0
        np.copyto(S[..., :m, s:], np.inf, where=dx[:m, s:] <= 0)
    if carry is not None:
        np.minimum(S[..., 0, :], carry, out=S[..., 0, :])
    # a ufunc call per end costs less than accumulate's per-element loop
    # from a few hundred starts on
    if S[..., 0, :].size < 256:
        return np.minimum.accumulate(S, axis=-2, out=S)
    for q in range(1, S.shape[-2]):
        np.minimum(S[..., q - 1, :], S[..., q, :], out=S[..., q, :])
    return S


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
    eps, rho = _positive("eps", eps), _positive("rho", rho)
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
    # to rho the chain may use, 48 starts at a time; zero elsewhere, where
    # the DP masks them
    hi = np.searchsorted(G, G + (rho + 4 * _TOL), side="right") - 1
    Bt = np.zeros((K, K))
    for p0 in range(0, K - 1, 48):
        p1 = min(p0 + 48, K - 1)
        q1 = hi[p1 - 1] + 1
        Bt[p0 + 1:q1, p0:p1] = _chord_mins(G, fG, np.arange(p0, p1), p0 + 1, q1)

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


def _grid(grid_n: int) -> np.ndarray:
    """The endpoint grid {i/grid_n : 0 <= i <= grid_n}."""
    return np.arange(_positive_int("grid_n", grid_n) + 1) / grid_n


def _plan(xs: np.ndarray, tau: float, width: int):
    """What `_dp` needs of the sorted grid xs and tau alone, for column
    panels of about `width` columns: per panel (a, r0, r1, e, c0, c1,
    blocks, blocked).  Start i's band of ends lo[i] <= j <= hi[i] is a
    little wider than the allowable xs[i] + tau <= xs[j] <= 2 xs[i].  The
    panel's columns are [c0, c1), the rows whose bands meet them [r0, r1),
    and blocked[j - c0, i - r0] fails the exact allowability test.  Its
    chords run from the rows [r0, e), which take in the rows before c1 - 1
    whose bands start after it, so that every row of the next panel carries
    in its least slopes to the ends up to c1 - 1, to the ends past a, the
    column before the panel (the first row, in the first panel).  The
    sweep's blocks (j0, j1, b0, b1) are k columns [j0, j1) and the rows
    [b0, b1) whose bands hold one of them; each such row is at most j - k
    for column j, so a block reads only entries of the DP finished before
    it.  No panels when no interval is allowable.  Index bounds and
    booleans only; the plans last used are kept, up to _PLAN_BYTES of
    masks."""
    key = (xs.tobytes(), tau, width)
    plan = _PLANS.pop(key, None)
    if plan is None:
        idx = np.arange(len(xs))
        lo = np.maximum(np.searchsorted(xs, xs + (tau - 4 * _TOL)), idx + 1)
        hi = np.searchsorted(xs, 2.0 * xs + 4 * _TOL, side="right") - 1
        rows = np.flatnonzero(lo <= hi)
        panels = []
        if len(rows):
            k = int(np.min(lo[rows] - rows))
            rstart = np.searchsorted(hi, idx).tolist()
            rend = np.searchsorted(lo, idx, side="right").tolist()
            step = k * max(1, round(width / k))
            for c0 in range(int(lo[rows[0]]), len(xs), step):
                c1 = min(c0 + step, len(xs))
                r0, r1 = rstart[c0], rend[c1 - 1]
                e = max(r1, c1 - 1)
                a = c0 - 1 if panels else r0
                lens = xs[c0:c1, None] - xs[r0:r1]
                blocked = ~((lens >= tau - _TOL) & (lens <= xs[r0:r1] + _TOL) & (lens > 0))
                blocked.setflags(write=False)
                blocks = [(j0, min(j0 + k, c1), rstart[j0], rend[min(j0 + k, c1) - 1])
                          for j0 in range(c0, c1, k)]
                panels.append((a, r0, r1, e, c0, c1, blocks, blocked))
        plan = (panels, sum(p[-1].nbytes for p in panels))
        while _PLANS and plan[1] + sum(v[1] for v in _PLANS.values()) > _PLAN_BYTES:
            del _PLANS[next(iter(_PLANS))]
    _PLANS[key] = plan
    return plan[0]


def _dp(D: Profile, fs: list[PLFunction], tau: float, xs: np.ndarray, record: bool = False):
    """Weighted interval scheduling over allowable families with endpoints in
    the sorted grid xs, for functions fs that share their breakpoints.

    Returns (best, arg, sig): best[r, j] is the value of fs[r] on xs[:j+1].
    With `record`, arg[j] is the first start i that attains the best
    best[0, i] + weight of [xs[i], xs[j]] for fs[0], and sig[j] its slope
    clipped to [0, d].  An interval's weight is its length times D of its
    best slope, -inf off the band and where no sigma in [0, d] certifies it.

    The weights exist one column panel of a `_plan` at a time: the slopes
    of its rows come from chords to the ends in the panel, their least
    slopes to the ends before it carried over from the panel before.  One
    sweep carries all of fs on a leading axis, so each row takes the same
    sums and maxima as a sweep of its own.  When the breakpoints lie on xs,
    the slopes are taken on xs itself.
    """
    n1 = len(xs)
    best = np.zeros((len(fs), n1))
    arg, sig = np.zeros(n1, dtype=int), np.zeros(n1)
    bx = np.clip(np.array(fs[0].xs), 0.0, 1.0)
    on_grid = np.array_equal(xs[np.minimum(np.searchsorted(xs, bx), n1 - 1)], bx)
    if on_grid:
        G, gi = xs, np.arange(n1)
    else:
        G = np.union1d(xs, bx)
        gi = np.searchsorted(G, xs)
    fG = np.array([f(G) for f in fs])
    carry = np.full((len(fs), n1), np.inf)
    for a, r0, r1, e, c0, c1, blocks, blocked in _plan(xs, tau, max(32, _PANEL // len(fs))):
        q0 = gi[a] + 1
        S = _chord_mins(G, fG, gi[r0:e], q0, gi[c1 - 1] + 1, carry[:, r0:e])
        carry[:, r0:e] = S[:, -1]
        B = (S[:, c0 - q0:] if on_grid else S[:, gi[c0:c1] - q0])[..., :r1 - r0]
        sg = np.clip(B, 0.0, D.d)
        W = D(sg)
        W *= xs[c0:c1, None] - xs[r0:r1]
        bad = B < -_TOL
        bad |= blocked
        W[bad] = -math.inf
        for j0, j1, b0, b1 in blocks:
            if b1 > b0:
                # best of each column's own intervals, then the running
                # maximum from the column before the block
                np.maximum.reduce(W[:, j0 - c0:j1 - c0, b0 - r0:b1 - r0] + best[:, None, b0:b1],
                                  axis=2, out=best[:, j0:j1])
                np.maximum.accumulate(best[:, j0 - 1:j1], axis=1, out=best[:, j0 - 1:j1])
            else:
                best[:, j0:j1] = best[:, j0 - 1, None]
        if record and r1 > r0:
            W[0] += best[0, r0:r1]
            i = W[0].argmax(axis=1)
            arg[c0:c1] = i + r0
            sig[c0:c1] = sg[0, np.arange(c1 - c0), i]
    return best, arg, sig


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
    best, arg, sig = _dp(D, [f], tau, xs, record=True)
    value = float(best[0, -1])
    dec = IntervalDecomposition(_certificate(xs, best[0], arg, sig), tau=tau,
                                value_against=(D, value))
    return value, dec


def _certificate(xs: np.ndarray, best: np.ndarray, arg, sig) -> list[tuple[float, float, float]]:
    """The entries (a, b, sigma) of an optimal family for the first function
    of a recording `_dp` with values best, walked back from the right end: a
    family optimal on xs[:j+1] has an interval ending at xs[j] exactly where
    the value rises, and it starts at the first row that attains the value."""
    rises = (np.flatnonzero(best[1:] > best[:-1]) + 1).tolist()
    entries = []
    k = len(rises)
    while k:
        j = rises[k - 1]
        i = int(arg[j])
        entries.append((float(xs[i]), float(xs[j]), float(sig[j])))
        k = bisect.bisect_right(rises, i)
    return entries[::-1]


def _pruning_bounds(D: Profile, fs: list[PLFunction], tau: float, xs: np.ndarray) -> np.ndarray:
    """Lower bounds for the values of fs, functions that share their
    breakpoints, on the grid xs: their values on the sub-grid xs[::4].

    Every family with endpoints on the sub-grid is a family on xs, and the
    sub-grid points are the same floats, so each bound holds up to rounding
    in the best slopes (exact on the grid united with f's breakpoints), far
    below 1e-12.  Called on xs[::4], it bounds the values on xs[::16], which
    in turn bound those on xs[::4]; `sigma_tau` screens with both.
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
    # candidates pruned by the 1/16 sub-grid bound and by the quarter one
    n_pruned_coarse: int = field(repr=False, default=0)
    n_pruned_quarter: int = field(repr=False, default=0)
    # candidates of a shape the search had already seen
    n_repeated: int = field(repr=False, default=0)


def _default_grid_n(tau: float) -> int:
    n = int(math.ceil(8.0 / tau))
    # keep the ladder's breakpoints on the fine grid
    return -(-n // _LADDER) * _LADDER


def sigma_tau(D: Profile, t: float, tau: float, budget: int = 10000) -> SigmaTauResult:
    """Upper-bound the infimum of sigma_for_f over f in L(d, t).

    The search tries the boundary line linear(t), then walks the two-slope
    ladder: slope s1 up to x0 = k/16, then s2, with s1, s2 in {d i/16}, a row
    of s2 per s1, until the budget or the ladder runs out.  The grid is
    {i/n}, n the least multiple of 16 with n >= 8/tau.  Every reported value
    is certified by the minimizing candidate.

    A candidate is a generated function that lies in L(d, t); every one
    counts toward `budget` and `n_candidates`, so a search makes at most
    1 + (the ladder's class members) of them whatever the budget.  A full
    evaluation is a `sigma_for_f` call on the grid; once a certificate
    exists, a candidate whose value on the 1/16 or the quarter sub-grid
    (lower bounds for its grid value) already exceeds the best value cannot
    win and gets none, so `n_full_evals <= n_candidates` and the result is
    the same as with a full evaluation of every distinct candidate.
    `n_pruned_coarse` and `n_pruned_quarter` count the candidates each bound
    pruned.

    Distinct means of a shape (`plf._shape_rows`) not seen before in this
    call; the line linear(t) is seen first.  A repeat, such as the line
    linear(s1) that the ladder builds again at every x0, gets no bound and
    no evaluation and is counted in `n_repeated`.  In exact arithmetic it is
    the function seen before, which was either evaluated, so the best value
    is at most its value from then on, or pruned by a bound above the best
    value, which only falls; either way the repeat cannot be strictly
    better.  Nothing is kept across calls.

    The sub-grid bounds read nothing of the search, so one DP computes them
    for a near-even batch of at most _BATCH consecutive distinct candidates
    with the same inner breakpoint x0 (whose class test runs on a row of
    values before any function is built).  A batch is bounded on the 1/16
    sub-grid, then those whose bound does not exceed the best value at its
    start on the quarter sub-grid.  The best value only falls and the 1/16
    bound is the lower, so walking the batch in generation order prunes what
    bounding one candidate at a time on the quarter sub-grid would.
    """
    d = D.d
    if not (0.0 < t < d):
        raise ValueError(f"t must be in (0, {d}), got {t}")
    if not (0.0 < tau <= 0.5):
        raise ValueError(f"tau must be in (0, 1/2], got {tau}")
    _positive_int("budget", budget)
    grid_n = _default_grid_n(tau)
    xs = _grid(grid_n)

    # explicit feasible point: the boundary line of the class
    best_f = linear(t)
    best_val, best_dec = sigma_for_f(D, best_f, tau, grid_n)
    n_eval = n_full = 1
    n_coarse = n_quarter = n_repeated = 0
    seen = set(_shape_rows(best_f.xs, [best_f.ys]))

    def consider(fs):
        """Walk fs, functions in L(d, t) with the same breakpoints, in order."""
        nonlocal best_val, best_f, best_dec, n_eval, n_full, n_coarse, n_quarter, n_repeated
        if not fs:
            return
        new = []
        for f, shape in zip(fs, _shape_rows(fs[0].xs, [f.ys for f in fs])):
            if shape not in seen:
                seen.add(shape)
                new.append(f)
        n_repeated += len(fs) - len(new)
        n_eval += len(fs) - len(new)
        n_batches = -(-len(new) // _BATCH)  # near-even, of at most _BATCH
        for i in range(n_batches):
            batch = new[len(new) * i // n_batches : len(new) * (i + 1) // n_batches]
            coarse = _pruning_bounds(D, batch, tau, xs[::4])
            live = np.flatnonzero(coarse <= best_val + 1e-12)
            quarter = np.full(len(batch), -math.inf)
            if len(live):
                quarter[live] = _pruning_bounds(D, [batch[i] for i in live.tolist()], tau, xs)
            for f, c, q in zip(batch, coarse.tolist(), quarter.tolist()):
                n_eval += 1
                if c > best_val + 1e-12:
                    n_coarse += 1
                    continue
                if q > best_val + 1e-12:
                    n_quarter += 1
                    continue
                val, dec = sigma_for_f(D, f, tau, grid_n)
                n_full += 1
                if val < best_val:
                    best_val, best_f, best_dec = val, f, dec

    # a row of s2 per s1 until the budget is reached, all rows with
    # breakpoint x0 walked together
    fine = np.array([d * i / _LADDER for i in range(_LADDER + 1)])
    ys = np.zeros((len(fine), 3))
    for k in range(1, _LADDER):
        x0 = k / _LADDER
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

    return SigmaTauResult(best_val, best_f, n_eval, n_full, best_dec, n_coarse, n_quarter,
                          n_repeated)


def lipschitz_scan(D: Profile, t_range, tau: float, budget: int = 10000) -> list[dict]:
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
        res = sigma_tau(D, t, tau, budget=budget)
        est = min(res.estimate, ceiling)
        ceiling = est
        rows.append({"t": t, "estimate": est, "certificate": res.certificate})
    rows.reverse()
    for prev, cur in zip(rows, rows[1:]):
        dt = cur["t"] - prev["t"]
        cur["modulus"] = (cur["estimate"] - prev["estimate"]) / dt if dt > 0 else 0.0
    return rows


def verify_planar_bound(
    u: float, zeta: float, eta: float = 0.01, tau: float = 0.01, budget: int = 1000
) -> dict:
    """Check that the planar profile value exceeds s at s = s_max k/6,
    k = 1..6, with s_max = phi(u) - zeta, which must lie in (0, 2).

    Parametric in the plateau height eta; the shipped default is
    non-canonical.  Reports per-s margins; PASS iff all are strictly positive.
    """
    s_max = phi(u) - _finite("zeta", zeta)
    if not 0.0 < s_max < 2.0:
        raise ValueError(f"phi(u) - zeta must be in (0, 2), got {s_max} at zeta = {zeta}")
    rows = []
    for s in (s_max * k / 6.0 for k in range(1, 7)):
        D = PlanarProfile(s, eta=eta)
        res = sigma_tau(D, u, tau, budget=budget)
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
