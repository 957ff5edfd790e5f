"""Scene configuration and the distance-set exponent pipeline.

A scene builds a fractal measure, splits it into two separated halves by a
mass-balanced axis cut, profiles thin tubes from a deterministic pin panel,
and measures pinned-distance box-count exponents against the target
phi(t) - zeta.  Everything is deterministic given the config.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicMeasure, _restrict_normalize
from .generators import (
    gen_cantor_product,
    gen_circle_pair,
    gen_lattice_falconer,
    gen_product_set,
    gen_train_track,
)
from .geometry import thin_tubes_profile, value_box_count
from .sigma import phi

MIN_GAP = 2.0 ** (-3)

_GENERATOR_KINDS = (
    "cantor_product",
    "lattice_falconer",
    "train_track",
    "circle_pair",
    "product_set",
    "from_file",
)

_TARGET_NOTE = (
    "target = phi(t) - zeta, t from the Frostman fit capped at 1; "
    "zeta is a finite-scale slack recorded in the config, not a derived rate"
)


class ConfigError(ValueError):
    """Invalid scene configuration (maps to CLI exit code 2)."""


class StageError(RuntimeError):
    """Pipeline failure; carries the stage name."""

    def __init__(self, stage: str, msg: str):
        super().__init__(f"[{stage}] {msg}")
        self.stage = stage


@dataclass
class SceneConfig:
    scenario: str
    generator: dict
    depth: int
    pins: dict = field(default_factory=lambda: {"count": 8, "selection": "best_tube"})
    scale_window: tuple[int, int] | None = None
    zeta: float = 0.12
    output: str | None = None

    def __post_init__(self):
        kind = self.generator.get("kind")
        if kind not in _GENERATOR_KINDS:
            raise ConfigError(f"unknown generator kind {kind!r}")
        d = int(self.generator.get("params", {}).get("d", 2))
        limit = 20 if d == 2 else 14
        if not (2 <= self.depth <= limit):
            raise ConfigError(f"depth {self.depth} outside [2, {limit}] for d={d}")
        if self.scale_window is None:
            self.scale_window = (2, self.depth)
        lo, hi = self.scale_window
        if not (0 <= lo and hi <= self.depth and hi - lo >= 6):
            raise ConfigError("scale_window must fit the depth and span >= 6 levels")
        if not (0.0 <= self.zeta < 1.0):
            raise ConfigError(f"zeta {self.zeta} outside [0, 1)")
        count = self.pins.get("count", 8) if isinstance(self.pins, dict) else None
        if not (isinstance(count, (int, float)) and 1 <= count < math.inf):
            raise ConfigError(f"pins.count must be a number >= 1, not {count!r}")

    @classmethod
    def from_json(cls, text: str) -> "SceneConfig":
        try:
            rec = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"bad JSON: {e}") from e
        try:
            return cls(
                scenario=rec["scenario"],
                generator=rec["generator"],
                depth=int(rec["depth"]),
                pins=rec.get("pins", {"count": 8, "selection": "best_tube"}),
                scale_window=tuple(rec["scale_window"]) if "scale_window" in rec else None,
                zeta=float(rec.get("zeta", 0.12)),
                output=rec.get("output"),
            )
        except KeyError as e:
            raise ConfigError(f"missing config field {e}") from e


@dataclass
class ExperimentResult:
    scenario: str
    frostman_s: float
    t_used: float
    target: float
    target_provenance: str
    zeta: float
    rows: list[dict]
    best_exponent: float
    passed: bool
    degenerate: bool
    curves: dict[str, list[tuple[int, float]]] = field(default_factory=dict)


def build_scene_measure(cfg: SceneConfig) -> DyadicMeasure:
    kind = cfg.generator["kind"]
    p = cfg.generator.get("params", {})
    try:
        if kind == "cantor_product":
            return gen_cantor_product(p.get("r", 0.25), int(p.get("d", 2)), cfg.depth)
        if kind == "lattice_falconer":
            return gen_lattice_falconer(int(p.get("q", 4)), int(p.get("d", 2)), cfg.depth)
        if kind == "train_track":
            return gen_train_track(int(p["delta_level"]), cfg.depth)
        if kind == "circle_pair":
            return gen_circle_pair(cfg.depth, radius=p.get("radius", 0.25))
        if kind == "product_set":
            return gen_product_set(p["A"], cfg.depth)
        if kind == "from_file":
            with open(p["path"]) as fh:
                return DyadicMeasure.from_text(fh.read())
    except KeyError as e:
        raise ConfigError(f"generator {kind!r} is missing parameter {e}") from e
    except ValueError as e:
        raise ConfigError(f"generator {kind!r}: {e}") from e
    except Exception as e:
        raise StageError("build", str(e)) from e
    raise ConfigError(f"unknown generator kind {kind!r}")


def split_separated(mu: DyadicMeasure) -> tuple[DyadicMeasure, DyadicMeasure]:
    """Mass-balanced cut along the first axis; both halves are renormalized
    and separated by at least MIN_GAP.

    A natural support gap is used when one exists; otherwise a band of width
    MIN_GAP around the weighted median is discarded to create the gap."""
    xs = mu.leaf_centers()[:, 0]
    order = np.argsort(xs, kind="stable")
    xs_s = xs[order]
    cum = np.cumsum(mu.masses[order])
    side = 2.0 ** (-mu.m)
    gaps = xs_s[1:] - xs_s[:-1]
    ok = np.nonzero(gaps - side >= MIN_GAP)[0]
    if len(ok):
        # most mass-balanced admissible gap
        i = ok[int(np.argmin(np.abs(cum[ok] - 0.5 * cum[-1])))]
        cut = 0.5 * (xs_s[i] + xs_s[i + 1])
        lo = hi = cut
    else:
        # no natural gap: carve one around the weighted median
        med = float(xs_s[int(np.searchsorted(cum, 0.5 * cum[-1]))])
        lo, hi = med - 0.5 * MIN_GAP - side, med + 0.5 * MIN_GAP + side
    left = xs < lo
    right = xs > hi
    if not left.any() or not right.any():
        raise StageError("split", "no separated mass balance along axis 0")
    mu_half = _restrict_normalize(mu, left)
    nu_half = _restrict_normalize(mu, right)
    gap = _split_gap(mu_half, nu_half)
    if gap < MIN_GAP - 1e-12:
        raise StageError("split", f"split gap {gap} below {MIN_GAP}")
    return mu_half, nu_half


def _split_gap(mu_half: DyadicMeasure, nu_half: DyadicMeasure) -> float:
    """Distance along axis 0 between the closest leaf cubes of the halves."""
    return float(nu_half.leaf_centers()[:, 0].min()
                 - mu_half.leaf_centers()[:, 0].max()) - 2.0 ** (-mu_half.m)


def _distance_curve(nu: DyadicMeasure, pin, levels) -> list[tuple[int, float]]:
    d = np.linalg.norm(nu.leaf_centers() - np.asarray(pin), axis=1)
    return [(j, math.log2(max(1, value_box_count(d, j)))) for j in levels]


def _fit_window(levels) -> list[int]:
    # drop the two coarsest and two finest levels: discretization boundaries
    return list(levels)[2:-2]


def run_experiment(cfg: SceneConfig) -> ExperimentResult:
    mu_full = build_scene_measure(cfg)
    if mu_full.trivial or mu_full.box_count(cfg.depth) < 4:
        return ExperimentResult(
            scenario=cfg.scenario, frostman_s=0.0, t_used=0.0,
            target=phi(1.0) - cfg.zeta, target_provenance=_TARGET_NOTE,
            zeta=cfg.zeta, rows=[], best_exponent=0.0, passed=False,
            degenerate=True,
        )
    mu_full = mu_full.normalize()
    lo, hi = cfg.scale_window
    try:
        fit = mu_full.frostman_fit((max(lo, 1), hi - 1))
    except Exception as e:
        raise StageError("frostman", str(e)) from e
    t_used = min(max(fit.s, 1e-6), 1.0)
    target = phi(t_used) - cfg.zeta

    mu_half, nu_half = split_separated(mu_full)

    # tube radii scale with the split gap: 4 * max radius must stay below it
    gap = _split_gap(mu_half, nu_half)
    j_min = max(3, math.ceil(math.log2(4.0 / gap)))
    radii = [2.0 ** (-j) for j in range(j_min, j_min + 4) if j < cfg.depth]
    try:
        profiles = thin_tubes_profile(mu_half, nu_half, radii,
                                      n_pins=max(8, int(cfg.pins.get("count", 8))))
    except Exception as e:
        raise StageError("tubes", str(e)) from e
    profiles.sort(key=lambda pr: (-pr.t, pr.pin))
    selected = profiles[: int(cfg.pins.get("count", 8))]

    levels = list(range(lo, hi + 1))
    fit_levels = _fit_window(levels)
    rows = []
    curves = {}
    for idx, prof in enumerate(selected):
        curve = _distance_curve(nu_half, prof.pin, levels)
        logc = dict(curve)
        xs = np.array(fit_levels, dtype=float)
        ys = np.array([logc[j] for j in fit_levels])
        slope = float(np.polyfit(xs, ys, 1)[0])
        rows.append(
            {
                "pin": prof.pin,
                "tube_t": prof.t,
                "exponent": slope,
                "single_scale": {j: logc[j] / j for j in levels if j > 0},
                "passed": slope >= target,
            }
        )
        curves[f"pin{idx}"] = curve
    best = max((r["exponent"] for r in rows), default=0.0)
    return ExperimentResult(
        scenario=cfg.scenario,
        frostman_s=fit.s,
        t_used=t_used,
        target=target,
        target_provenance=_TARGET_NOTE,
        zeta=cfg.zeta,
        rows=rows,
        best_exponent=best,
        passed=best >= target,
        degenerate=False,
        curves=curves,
    )


def emit_report(results, out_dir: str) -> list[str]:
    """Write the summary CSV and one two-column ascii curve file per pin.

    Deterministic: identical inputs give byte-identical files."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    csv_path = os.path.join(out_dir, "report.csv")
    lines = ["scenario,pin_index,tube_t,exponent,target,zeta,passed,degenerate"]
    for res in results:
        if not res.rows:
            lines.append(
                f"{res.scenario},,,,{res.target!r},{res.zeta!r},"
                f"{int(res.passed)},{int(res.degenerate)}"
            )
        for i, row in enumerate(res.rows):
            lines.append(
                f"{res.scenario},{i},{row['tube_t']!r},{row['exponent']!r},"
                f"{res.target!r},{res.zeta!r},{int(row['passed'])},{int(res.degenerate)}"
            )
        for name, curve in sorted(res.curves.items()):
            path = os.path.join(out_dir, f"{res.scenario}_{name}.dat")
            _write_file(path, "".join(f"{j} {v!r}\n" for j, v in curve))
            written.append(path)
    _write_file(csv_path, "\n".join(lines) + "\n")
    written.insert(0, csv_path)
    return written


def _write_file(path: str, text: str) -> None:
    """Write text to path as a new file, removing an existing regular file
    first.

    Truncating an existing file and writing it again makes ext4 flush the
    file when it is closed (about 50 ms each); a new file costs no flush.
    Symlinks and devices (such as /dev/stdout) are written through, as before.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)
    except FileNotFoundError:
        pass
    with open(path, "w") as fh:
        fh.write(text)
