"""Command-line entry points.

Exit codes: 0 on pass, 1 when a check ran and failed (a report is printed),
2 on usage or configuration errors, among them inputs too large for memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import chain as chain_mod
from . import experiment as exp_mod
from . import geometry as geo
from .dyadic import DyadicMeasure, _entropies, _finite
from .plf import PLFunction
from .sigma import (
    CustomProfile,
    HighDimProfile,
    KaufmanProfile,
    PlanarProfile,
    TrivialHalfProfile,
    c_d_table,
    phi,
    sigma_for_f,
    sigma_tau,
    verify_planar_bound,
)

PASS, FAIL, USAGE = 0, 1, 2


def _load_measure(path: str) -> DyadicMeasure:
    with open(path) as fh:
        return DyadicMeasure.from_text(fh.read())


# the parameters each profile kind takes in a spec "kind:key=value,..."
_PROFILE_KEYS = {"highdim": {"d", "s"}, "planar": {"s", "eta"},
                 "kaufman": {"s", "d"}, "trivial": {"d"}}


def _parse_profile(spec: str):
    kind, _, rest = spec.partition(":")
    try:
        if kind == "custom":
            with open(rest) as fh:
                rec = json.load(fh)
            if not isinstance(rec, dict):
                raise ValueError(f"custom profile {rest!r} must hold a JSON object")
            return CustomProfile(rec["breakpoints"], rec["values"], rec["d"])
        if kind not in _PROFILE_KEYS:
            raise ValueError(f"unknown profile spec {spec!r}")
        params = {}
        for part in rest.split(",") if rest else ():
            key, _, val = part.partition("=")
            if key not in _PROFILE_KEYS[kind]:
                raise ValueError(f"profile {kind!r} takes no parameter {key!r}")
            if key in params:
                raise ValueError(f"profile spec {spec!r} gives {key!r} twice")
            params[key] = float(val)
        if kind == "highdim":
            return HighDimProfile(params["d"], params["s"])
        if kind == "planar":
            return PlanarProfile(params["s"], eta=params.get("eta", 0.01))
        if kind == "kaufman":
            return KaufmanProfile(params["s"], d=params.get("d", 2.0))
        return TrivialHalfProfile(d=params.get("d", 2.0))
    except KeyError as e:
        raise ValueError(f"profile spec {spec!r} is missing parameter {e}") from None


def _write_or_print(text: str, out: str | None):
    if out:
        exp_mod._write_file(out, text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers ----------------------------------------------------


def cmd_measure(args) -> int:
    if args.action == "build":
        generator = {"kind": args.kind, "params": json.loads(args.params)}
        mu = exp_mod._build_measure(generator, args.depth).normalize()
        _write_or_print(mu.to_text(), args.out)
        return PASS
    mu = _load_measure(args.file)
    print(f"d={mu.d} depth={mu.m} leaves={len(mu.masses)}")
    print(f"total_mass={mu.total_mass!r} normalized={mu.normalized}")
    if not mu.trivial and mu.normalized:
        print(f"entropy_at_depth={mu.entropy(mu.m)!r}")
        print(f"box_count_at_depth={mu.box_count(mu.m)}")
    return PASS


def cmd_dims(args) -> int:
    mu = _load_measure(args.file).normalize()
    lo, hi = args.window if args.window else (1, mu.m - 1)
    fit = mu.frostman_fit((lo, hi))  # rejects a bad window before any grouping
    print(f"frostman_s={fit.s!r} C={fit.C!r} residual={fit.residual!r}")
    # box_count(j) and entropy(j) of every level, from one walk
    table = [(j, len(sums), float(_entropies(sums[None])[0])) for j, _, sums in mu._walk(lo, hi)]
    for j, boxes, h in table[::-1]:
        print(f"level={j} boxes={boxes} entropy={h!r}")
    return PASS


def cmd_distance(args) -> int:
    mu = _load_measure(args.file).normalize()
    line = geo.pinned_distance(mu, args.pin, args.depth)
    _write_or_print(line.to_text(), args.out)
    return PASS


def cmd_radial(args) -> int:
    mu = _load_measure(args.file).normalize()
    rho = geo.project_radial(mu, args.pin, args.cells)
    _write_or_print(rho.to_text(), args.out)
    return PASS


def cmd_tubes(args) -> int:
    mu = _load_measure(args.mu).normalize()
    nu = _load_measure(args.nu).normalize()
    profiles = geo.thin_tubes_profile(mu, nu, args.radii, n_pins=args.pins)
    print("pin,t,K")
    for p in profiles:
        print(f"\"{p.pin}\",{p.t!r},{p.K!r}")
    return PASS


def cmd_sigma(args) -> int:
    if args.action == "phi":
        print(f"phi({args.u})={phi(args.u)!r}")
        return PASS
    if args.action == "cdtable":
        for d, c in c_d_table(range(args.d_min, args.d_max + 1)):
            print(f"d={d} c_d={c!r}")
        return PASS
    if args.action == "eval":
        D = _parse_profile(args.profile)
        with open(args.f) as fh:
            f = PLFunction.from_json(fh.read())
        val, dec = sigma_for_f(D, f, args.tau, args.grid)
        print(f"value={val!r}")
        for a, b, s in dec.entries:
            print(f"interval=[{a!r},{b!r}] sigma={s!r}")
        return PASS
    if args.action == "inf":
        D = _parse_profile(args.profile)
        res = sigma_tau(D, args.t, args.tau, budget=args.budget)
        print(f"estimate={res.estimate!r} candidates={res.n_candidates}")
        print(f"certificate={res.certificate.to_json()}")
        print(f"full_evaluations={res.n_full_evals}")
        print(f"pruned=coarse:{res.n_pruned_coarse} quarter:{res.n_pruned_quarter} "
              f"repeated:{res.n_repeated}")
        return PASS
    if args.action == "verify-planar":
        rep = verify_planar_bound(args.u, args.zeta, eta=args.eta,
                                  tau=args.tau, budget=args.budget)
        for row in rep["rows"]:
            print(f"s={row['s']!r} estimate={row['estimate']!r} "
                  f"margin={row['margin']!r} base_case={row['base_case']}")
        print("PASS" if rep["passed"] else "FAIL")
        return PASS if rep["passed"] else FAIL
    if args.action == "verify-highdim":
        _finite("slack", args.slack)
        ok = True
        profiles = [HighDimProfile(args.d, s) for s in args.s]
        for s, D in zip(args.s, profiles):
            res = sigma_tau(D, args.t, args.tau, budget=args.budget)
            bound = (s + 1.0) / (args.d + 1.0) - args.slack
            good = res.estimate >= bound
            ok = ok and good
            print(f"s={s!r} estimate={res.estimate!r} bound={bound!r} "
                  f"{'ok' if good else 'VIOLATED'}")
        print("PASS" if ok else "FAIL")
        return PASS if ok else FAIL
    raise ValueError(f"unknown sigma action {args.action!r}")


def cmd_chain(args) -> int:
    mu = _load_measure(args.measure).normalize()
    intervals = []
    for part in args.intervals.split(","):
        a, _, b = part.partition(":")
        intervals.append((int(a), int(b)))
    sched = chain_mod.ScaleSchedule(mu.m if args.M is None else args.M, tuple(intervals))
    lhs, rhs, J = chain_mod.chain_sides(mu, args.map, args.pin, sched)
    print(f"lhs={lhs!r} rhs={rhs!r} J={J} slack={lhs - rhs!r}")
    return PASS


def cmd_audit(args) -> int:
    with open(args.rho) as fh:
        rho = geo.DirectionMeasure.from_text(fh.read())
    mu = _load_measure(args.mu).normalize()
    if args.action == "adapted":
        _finite("max-fail", args.max_fail)
        frac = geo.adapted_audit(rho, mu, args.level, args.s, args.eps)
        print(f"failing_fraction={frac!r} threshold={args.max_fail!r}")
        return PASS if frac <= args.max_fail else FAIL
    bad, ok = geo.entropy_projection_bound(rho, mu, args.m, args.a, args.b,
                                           args.constant)
    print(f"bad_mass={bad!r} budget={args.b!r}")
    return PASS if ok else FAIL


def cmd_experiment(args) -> int:
    with open(args.config) as fh:
        cfg = exp_mod.SceneConfig.from_json(fh.read())
    res = exp_mod.run_experiment(cfg)
    print(f"scenario={res.scenario} frostman_s={res.frostman_s!r}")
    print(f"best_exponent={res.best_exponent!r} target={res.target!r} "
          f"zeta={res.zeta!r}")
    print(f"target_provenance: {res.target_provenance}")
    if cfg.output:
        for path in exp_mod.emit_report([res], cfg.output):
            print(f"wrote {path}")
    print("PASS" if res.passed else "FAIL")
    return PASS if res.passed else FAIL


# -- parser -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The dimlab argument parser, built once per process (building it costs
    about a millisecond).  Parsing leaves it unchanged; callers must not
    change it either, since every caller gets the same parser."""
    ap = argparse.ArgumentParser(prog="dimlab")
    sub = ap.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="build or inspect dyadic measures")
    msub = m.add_subparsers(dest="action", required=True)
    mb = msub.add_parser("build")
    mb.add_argument("--kind", required=True)
    mb.add_argument("--params", default="{}")
    mb.add_argument("--depth", type=int, required=True)
    mb.add_argument("--out")
    mi = msub.add_parser("info")
    mi.add_argument("file")
    m.set_defaults(func=cmd_measure)

    dm = sub.add_parser("dims", help="dimension diagnostics of a measure")
    dm.add_argument("file")
    dm.add_argument("--window", type=int, nargs=2)
    dm.set_defaults(func=cmd_dims)

    di = sub.add_parser("distance", help="pinned-distance pushforward")
    di.add_argument("file")
    di.add_argument("--pin", type=float, nargs="+", required=True)
    di.add_argument("--depth", type=int, required=True)
    di.add_argument("--out")
    di.set_defaults(func=cmd_distance)

    ra = sub.add_parser("radial", help="radial (direction) pushforward")
    ra.add_argument("file")
    ra.add_argument("--pin", type=float, nargs="+", required=True)
    ra.add_argument("--cells", type=int, default=512)
    ra.add_argument("--out")
    ra.set_defaults(func=cmd_radial)

    tu = sub.add_parser("tubes", help="thin-tube decay profiles")
    tu.add_argument("--mu", required=True)
    tu.add_argument("--nu", required=True)
    tu.add_argument("--radii", type=float, nargs="+", required=True)
    tu.add_argument("--pins", type=int, default=32)
    tu.set_defaults(func=cmd_tubes)

    sg = sub.add_parser("sigma", help="combinatorial scale optimization")
    ssub = sg.add_subparsers(dest="action", required=True)
    se = ssub.add_parser("eval")
    se.add_argument("--profile", required=True)
    se.add_argument("--f", required=True)
    se.add_argument("--tau", type=float, required=True)
    se.add_argument("--grid", type=int, default=400)
    si = ssub.add_parser("inf")
    si.add_argument("--profile", required=True)
    si.add_argument("--t", type=float, required=True)
    si.add_argument("--tau", type=float, required=True)
    si.add_argument("--budget", type=int, default=2000)
    sv = ssub.add_parser("verify-planar")
    sv.add_argument("--u", type=float, required=True)
    sv.add_argument("--zeta", type=float, required=True)
    sv.add_argument("--eta", type=float, default=0.01)
    sv.add_argument("--tau", type=float, default=0.01)
    sv.add_argument("--budget", type=int, default=1000)
    sh = ssub.add_parser("verify-highdim")
    sh.add_argument("--d", type=int, required=True)
    sh.add_argument("--t", type=float, required=True)
    sh.add_argument("--s", type=float, nargs="+", required=True)
    sh.add_argument("--tau", type=float, default=0.02)
    sh.add_argument("--budget", type=int, default=2000)
    sh.add_argument("--slack", type=float, default=0.01)
    sp = ssub.add_parser("phi")
    sp.add_argument("--u", type=float, required=True)
    sc = ssub.add_parser("cdtable")
    sc.add_argument("--d-min", type=int, default=4)
    sc.add_argument("--d-max", type=int, default=9)
    sg.set_defaults(func=cmd_sigma)

    ch = sub.add_parser("chain", help="entropy chain evaluation")
    csub = ch.add_subparsers(dest="action", required=True)
    cr = csub.add_parser("run")
    cr.add_argument("--measure", required=True)
    cr.add_argument("--map", choices=["pinned_distance", "radial_2d"],
                    default="pinned_distance")
    cr.add_argument("--pin", type=float, nargs="+", required=True)
    cr.add_argument("--intervals", required=True, help="A:B,A:B,...")
    cr.add_argument("--M", type=int)
    ch.set_defaults(func=cmd_chain)

    au = sub.add_parser("audit", help="direction-measure audits")
    asub = au.add_subparsers(dest="action", required=True)
    aa = asub.add_parser("adapted")
    aa.add_argument("--rho", required=True)
    aa.add_argument("--mu", required=True)
    aa.add_argument("--level", type=int, required=True)
    aa.add_argument("--s", type=float, required=True)
    aa.add_argument("--eps", type=float, required=True)
    aa.add_argument("--max-fail", type=float, default=0.1)
    ae = asub.add_parser("entropy-proj")
    ae.add_argument("--rho", required=True)
    ae.add_argument("--mu", required=True)
    ae.add_argument("--m", type=int, required=True)
    ae.add_argument("--a", type=float, required=True)
    ae.add_argument("--b", type=float, required=True)
    ae.add_argument("--constant", type=float, default=4.0)
    au.set_defaults(func=cmd_audit)

    ex = sub.add_parser("experiment", help="run a configured scene")
    esub = ex.add_subparsers(dest="action", required=True)
    er = esub.add_parser("run")
    er.add_argument("config")
    ex.set_defaults(func=cmd_experiment)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (exp_mod.ConfigError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except MemoryError as e:
        # e.g. the endpoint grid of 8/tau points a tiny tau asks of sigma inf
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return USAGE
    except exp_mod.StageError as e:
        print(f"error: {e}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
