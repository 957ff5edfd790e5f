"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Each test computes its verdict, prints a single PASS/FAIL line, then asserts.
"""

import math

import numpy as np
import pytest

import dimlab as dl
from dimlab.chain import ScaleSchedule, chain_sides, chain_sides_robust, fit_chain_constant
from dimlab.dyadic import DyadicMeasure
from dimlab.experiment import SceneConfig, run_experiment, split_separated
from dimlab.geometry import (
    DirectionMeasure,
    adapted_audit,
    entropy_projection_bound,
    hyperplane_concentration,
    value_box_counts,
)
from dimlab.sigma import (
    HighDimProfile,
    KaufmanProfile,
    PlanarProfile,
    c_d_table,
    phi,
    sigma_for_f,
    sigma_tau,
    verify_planar_bound,
)
from dimlab.uniformize import decompose_uniform, extract_uniform
from oracles import (
    min_cells_bruteforce,
    random_measure,
    random_plf,
    robust_entropy_bruteforce,
    sigma_value_bruteforce,
    two_slope_class_count,
)


def _verdict(name: str, ok: bool, detail: str = "") -> bool:
    tail = f" ({detail})" if detail else ""
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def test_acceptance_01_constants():
    ok = abs(phi(1.0) - 0.618033988749895) < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(1000):
        u = float(rng.uniform(1e-9, 1.0))
        x = phi(u)
        ok = ok and abs(x * x + (2.0 - u) * x - u) < 1e-12
    half = 0.5 + phi(0.5) / 4.0
    ok = ok and abs(half - 0.570194) < 1e-6 and half > 0.57
    assert _verdict("01 golden-mean constants", ok, f"1/2+phi(1/2)/4={half:.6f}")


def test_acceptance_02_cd_table():
    ok = True
    for d, c in c_d_table(range(4, 10)):
        expect = phi(0.5) / (d + 1) if d % 2 == 1 else (phi(1.0) - 0.5) / (d + 1)
        ok = ok and abs(c - expect) < 1e-12
    assert _verdict("02 dimension-gain table d=4..9", ok)


def test_acceptance_03_highdim_bound():
    d, t, tau = 3, 1.5, 0.02
    # each search generates the line linear(t) and every in-class function
    # of its two-slope ladders, within the budget
    ladder = 1 + two_slope_class_count(d, t)
    total = 0
    worst = math.inf
    ok = True
    for s in (1.05, 1.2, 1.35, 1.45):
        res = sigma_tau(HighDimProfile(d, s), t, tau, budget=2600)
        total += res.n_candidates
        bound = (s + 1.0) / (d + 1.0) - 0.01
        worst = min(worst, res.estimate - bound)
        ok = ok and res.estimate >= bound and res.n_candidates == ladder
    assert _verdict("03 high-dim combinatorial bound", ok,
                    f"{total} candidates, worst margin {worst:.4f}")


def test_acceptance_04_planar_bound():
    rep = verify_planar_bound(1.0, 0.05, eta=0.01, tau=0.01, budget=1000)
    ok = rep["passed"]
    base_margin = 1.0 / 100.0 - 0.005
    for row in rep["rows"]:
        if row["base_case"]:
            ok = ok and row["margin"] >= base_margin
    worst = min(r["margin"] for r in rep["rows"])
    assert _verdict("04 planar combinatorial bound", ok, f"worst margin {worst:.4f}")


def test_acceptance_05_optimizer_oracles():
    ok = True
    rng = np.random.default_rng(1)
    for _ in range(50):
        kind = int(rng.integers(3))
        if kind == 0:
            D = HighDimProfile(3, float(rng.uniform(1.0, 1.5)))
        elif kind == 1:
            D = PlanarProfile(float(rng.uniform(0.2, 0.9)))
        else:
            D = KaufmanProfile(float(rng.uniform(0.3, 1.0)))
        f = random_plf(rng, n_segments=int(rng.integers(2, 6)), max_slope=D.d)
        tau = float(rng.choice([0.2, 0.25, 0.3]))
        fast, _ = sigma_for_f(D, f, tau, 16)
        ok = ok and fast == sigma_value_bruteforce(D, f, tau, 16)
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        masses = rng.random(n) + 1e-3
        masses /= masses.sum()
        mu = DyadicMeasure(1, 4, {(i,): m for i, m in enumerate(masses)})
        Theta = float(rng.uniform(1.0, 4.0))
        ok = ok and abs(
            mu.robust_entropy(4, Theta) - robust_entropy_bruteforce(masses, Theta)
        ) < 1e-9
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        masses = rng.random(n) + 1e-3
        masses /= masses.sum()
        mu = DyadicMeasure(1, 5, {(i,): m for i, m in enumerate(masses)})
        s = float(rng.uniform(0.1, 1.0))
        r = float(rng.uniform(0.05, 0.95))
        got, _ = mu.robustness_check(5, s, r)
        kmin = min_cells_bruteforce(masses, r)
        ok = ok and got == (kmin is None or kmin > 2.0 ** (5 * s))
    assert _verdict("05 greedy/DP vs brute-force oracles", ok)


def test_acceptance_06_uniformization():
    d, m, T = 2, 8, 2
    ell = m // T
    eps = 0.2
    eps_prime = eps + math.log2(2 * d * T + 2) / T
    mass_bound = (2 * d * T + 2) ** (-ell)
    piece_bound = 2.0 ** (-eps_prime * m)
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        mu = random_measure(rng, d=d, m=m, n_leaves=int(rng.integers(5, 120)))
        piece = extract_uniform(mu, T)
        try:
            piece.check_invariant()
        except ValueError:
            ok = False
        ok = ok and piece.mass_retained >= mass_bound
        pieces = decompose_uniform(mu, T, eps)
        seen = set()
        covered = 0.0
        for p in pieces:
            keys = set(map(tuple, p.measure.coords.tolist()))
            ok = ok and not (keys & seen)  # (i) pairwise disjoint
            seen |= keys
            covered += p.mass_retained
            ok = ok and p.mass_retained >= piece_bound  # (ii) piece mass floor
        ok = ok and (1.0 - covered) < 2.0 ** (-eps * m) + 1e-9
    assert _verdict("06 uniform extraction invariants", ok)


def _selfsimilar_planar(rng, depth=12):
    """Random 2-of-4 quadrant pattern iterated to depth with random weights."""
    quads = [(0, 0), (0, 1), (1, 0), (1, 1)]
    pick = sorted(rng.choice(4, size=2, replace=False).tolist())
    w = rng.uniform(0.3, 0.7)
    branches = [(quads[pick[0]], float(w)), (quads[pick[1]], float(1.0 - w))]
    leaves = {(0, 0): 1.0}
    for _ in range(depth):
        nxt = {}
        for (x, y), mass in leaves.items():
            for (bx, by), bw in branches:
                nxt[((x << 1) + bx, (y << 1) + by)] = mass * bw
        leaves = nxt
    return DyadicMeasure(2, depth, leaves)


def _random_schedule(rng, m):
    intervals = []
    A = int(rng.integers(3, 7))
    while A < m:
        B = min(m, A + int(rng.integers(1, A + 1)))
        if B <= A:
            break
        intervals.append((A, B))
        A = B + int(rng.integers(0, 3))
    return ScaleSchedule(m, tuple(intervals))


def test_acceptance_07_entropy_chain():
    rng = np.random.default_rng(5)
    panel = []
    robust_ok = True
    m = 12
    for _ in range(20):
        mu = _selfsimilar_planar(rng, depth=m)
        y = (-0.5, float(rng.uniform(0.0, 1.0)))
        sched = _random_schedule(rng, m)
        lhs, rhs, J = chain_sides(mu, "pinned_distance", y, sched)
        panel.append((lhs, rhs, max(J, 1)))
        _, rhs_rob, _ = chain_sides_robust(mu, mu, "pinned_distance", y, sched, 1.0)
        robust_ok = robust_ok and rhs_rob <= rhs + 1e-9
    C = fit_chain_constant(panel)
    ok = C <= 8.0 and robust_ok
    ok = ok and all(lhs >= rhs - C * J - 1e-9 for lhs, rhs, J in panel)
    assert _verdict("07 entropy chain panel", ok, f"fitted C = {C:.3f} bits")


def test_acceptance_08_projection_entropy_bound():
    rng = np.random.default_rng(6)
    m, a, constant = 10, 0.2, 4.0
    ok = True
    worst_bad = 0.0
    for trial in range(20):
        n = 64
        raw = rng.random(n) + 0.05
        rho = DirectionMeasure(2, n, np.arange(n), raw / raw.sum())
        if trial % 2 == 0:
            mu = random_measure(rng, d=2, m=m, n_leaves=800)
        else:
            mu = _selfsimilar_planar(rng, depth=m).normalize()
        b = hyperplane_concentration(rho, a)  # hypothesis holds with this b
        bad, within = entropy_projection_bound(rho, mu, m, a, b, constant)
        worst_bad = max(worst_bad, bad)
        ok = ok and within
    assert _verdict("08 projected-entropy bad directions", ok,
                    f"worst bad mass {worst_bad:.4f}")


def test_acceptance_09_distance_set_experiment():
    cfg = SceneConfig(
        "cantor16",
        {"kind": "cantor_product", "params": {"r": 0.25, "d": 2}},
        16,
        scale_window=(2, 16),
    )
    res = run_experiment(cfg)
    target = phi(1.0) - 0.12
    ok = res.best_exponent >= target and res.best_exponent > 0.5 + 0.02
    ok = ok and abs(res.frostman_s - 1.0) < 0.05

    # train-track scene: one-scale degeneracy at the track scale only
    delta, depth = 8, 16
    tt = dl.gen_train_track(delta, depth).normalize()
    mu_half, nu_half = split_separated(tt)
    nu_pts = nu_half.leaf_centers()
    best = None
    for pin in mu_half.leaf_centers()[:: max(1, len(mu_half.masses) // 32)]:
        dists = np.linalg.norm(nu_pts - pin, axis=1)
        levels = list(range(4, depth - 1))
        at_delta, *counts = value_box_counts(dists, [delta] + levels)
        single = math.log2(at_delta) / delta
        ys = [math.log2(n) for n in counts]
        slope = float(np.polyfit(levels, ys, 1)[0])
        if best is None or abs(single - 0.5) < abs(best[0] - 0.5):
            best = (single, slope)
    ok = ok and abs(best[0] - 0.5) <= 0.05 and best[1] > 0.52
    assert _verdict(
        "09 desk-scale distance-set exponents", ok,
        f"cantor {res.best_exponent:.3f} >= {target:.3f}; "
        f"track single {best[0]:.3f}, deep {best[1]:.3f}",
    )


def test_acceptance_10_direction_audit():
    mu = dl.gen_cantor_product(0.25, 2, 10)
    n = 512
    ratio = 2.0 ** -0.6
    masses = [1.0]
    for _ in range(9):
        masses = [m * w for m in masses for w in (ratio, 1.0 - ratio)]
    rho = DirectionMeasure(2, n, np.arange(n), masses)
    # the cascade is an exponent-0.6 envelope with constant <= 4 on arc blocks
    env_ok = True
    level_masses = masses
    for k in range(9, -1, -1):
        env_ok = env_ok and max(level_masses) <= 4.0 * 2.0 ** (-0.6 * k)
        level_masses = [a + b for a, b in zip(level_masses[::2], level_masses[1::2])]
    frac = adapted_audit(rho, mu, 10, 0.55, 0.1)
    ok = env_ok and frac <= 0.1
    assert _verdict("10 adapted direction audit", ok, f"failing fraction {frac:.4f}")
