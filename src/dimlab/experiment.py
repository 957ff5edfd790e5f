"""Scene configuration and the distance-set exponent pipeline.

A scene builds a planar fractal measure, splits it into two separated halves
by a mass-balanced axis cut, takes a mass-quantile panel of pins from the
left half, and measures pinned-distance box-count exponents of the right
half against the planar target phi(t) - zeta; a measure with d != 2 has no
target and is a ConfigError.  Everything is deterministic given the config.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .dyadic import DyadicMeasure, _centers, _is_number, restrict_normalize
from .generators import (
    gen_cantor_product,
    gen_circle_pair,
    gen_lattice_falconer,
    gen_product_set,
    gen_train_track,
)
from .geometry import _pin_offsets, _quantile_leaves, value_box_counts
from .sigma import phi

MIN_GAP = 2.0 ** (-3)

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
    pins: dict = field(default_factory=lambda: {"count": 8})
    scale_window: tuple[int, int] | None = None
    zeta: float = 0.12
    output: str | None = None

    def __post_init__(self):
        # the scenario names the report's files and fills its first CSV column
        if not (isinstance(self.scenario, str) and re.fullmatch(r"[\w.-]+", self.scenario)):
            raise ConfigError(f"scenario must be a plain name, not {self.scenario!r}")
        _check_generator(self.generator, self.depth)
        if self.scale_window is None:
            self.scale_window = (2, self.depth)
        if not (isinstance(self.scale_window, (list, tuple)) and len(self.scale_window) == 2
                and all(_is_number(j, int) for j in self.scale_window)):
            raise ConfigError(f"scale_window must be two integers, not {self.scale_window!r}")
        self.scale_window = lo, hi = tuple(self.scale_window)
        if not (0 <= lo and hi <= self.depth and hi - lo >= 6):
            raise ConfigError("scale_window must fit the depth and span >= 6 levels")
        if not (_is_number(self.zeta) and 0.0 <= self.zeta < 1.0):
            raise ConfigError(f"zeta must be a number in [0, 1), not {self.zeta!r}")
        self.zeta = float(self.zeta)
        _check_keys(self.pins, "pins")
        count = self.pins.get("count", 8) if isinstance(self.pins, dict) else None
        if not (_is_number(count, int) and count >= 1):
            raise ConfigError(f"pins.count must be an integer >= 1, not {count!r}")
        if not (self.output is None or isinstance(self.output, str)):
            raise ConfigError(f"output must be a directory path, not {self.output!r}")

    @classmethod
    def from_json(cls, text: str) -> "SceneConfig":
        try:
            rec = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"bad JSON: {e}") from e
        if not isinstance(rec, dict):
            raise ConfigError(f"scene config must be a JSON object, not {type(rec).__name__}")
        for f in fields(cls):
            if f.name not in rec and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing config field {f.name!r}")
        unknown = sorted(set(rec) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config field {unknown[0]!r}")
        try:
            return cls(**rec)
        except TypeError as e:
            raise ConfigError(f"config field of the wrong type: {e}") from e


@dataclass
class ExperimentResult:
    scenario: str
    frostman_s: float
    target: float
    target_provenance: str
    zeta: float
    rows: list[dict]
    best_exponent: float
    passed: bool
    degenerate: bool
    curves: dict[str, list[tuple[int, float]]] = field(default_factory=dict)


def _param(params: dict, key: str, kind: type, default=None):
    """params[key], or `default` if given and the key is absent; raises
    ConfigError unless it is a `kind` (float takes any number, none a bool)."""
    value = params[key] if default is None else params.get(key, default)
    if not _is_number(value, (int, float) if kind is float else kind):
        raise ConfigError(f"parameter {key!r} must be of type {kind.__name__}, not {value!r}")
    return value


# kind -> builder(params, depth).  Each builder looks its generator up by
# module-global name when it runs, so rebinding that name (as a tracer that
# wraps the generators does) reaches the build.
_BUILDERS = {
    "cantor_product": lambda p, depth: gen_cantor_product(
        _param(p, "r", float, 0.25), _param(p, "d", int, 2), depth),
    "lattice_falconer": lambda p, depth: gen_lattice_falconer(
        _param(p, "q", int, 4), _param(p, "d", int, 2), depth),
    "train_track": lambda p, depth: gen_train_track(_param(p, "delta_level", int), depth),
    "circle_pair": lambda p, depth: gen_circle_pair(
        depth, radius=_param(p, "radius", float, 0.25)),
    "product_set": lambda p, depth: gen_product_set(_param(p, "A", dict), depth),
    "from_file": lambda p, depth: DyadicMeasure.from_text(
        Path(_param(p, "path", str)).read_text()),
}

# the keys each object of a scene may hold: the generator, each kind's params,
# product_set's 1-d generator A and each of its kinds' params, and the pins
_KEYS = {"generator": {"kind", "params"}, "pins": {"count"},
         "cantor_product": {"r", "d"}, "lattice_falconer": {"q", "d"},
         "train_track": {"delta_level"}, "circle_pair": {"radius"},
         "product_set": {"A"}, "from_file": {"path"}, "A": {"kind", "params"},
         "cantor": {"r"}, "lebesgue": set(), "point": {"x"}}


def _check_keys(obj, name: str, what: str | None = None) -> None:
    """Raise ConfigError naming the first key of `obj`, if a dict, not in _KEYS[name]."""
    for key in obj if isinstance(obj, dict) else ():
        if key not in _KEYS[name]:
            raise ConfigError(f"{what or name} takes no key {key!r}")


def _check_generator(generator, depth) -> dict:
    """The params of generator = {"kind", "params"}, after checking that the
    kind is known, each object holds only its _KEYS and depth is an integer
    in [2, 20] for d = 2 (the default), [2, 14] otherwise; raises ConfigError."""
    if not isinstance(generator, dict):
        raise ConfigError(f"generator must be an object, not {generator!r}")
    _check_keys(generator, "generator")
    kind = generator.get("kind")
    if kind not in _BUILDERS:
        raise ConfigError(f"unknown generator kind {kind!r}")
    params = generator.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"generator params must be an object, not {params!r}")
    _check_keys(params, kind, f"generator {kind!r}")
    A = params.get("A") if kind == "product_set" else None
    _check_keys(A, "A", "product_set's A")
    if isinstance(A, dict) and A.get("kind") in ("cantor", "lebesgue", "point"):
        _check_keys(A.get("params"), A["kind"], f"1-d generator {A['kind']!r}")
    d = _param(params, "d", int, 2)
    limit = 20 if d == 2 else 14
    if not _is_number(depth, int):
        raise ConfigError(f"depth must be an integer, not {depth!r}")
    if not (2 <= depth <= limit):
        raise ConfigError(f"depth {depth} outside [2, {limit}] for d={d}")
    return params


def _build_measure(generator, depth) -> DyadicMeasure:
    """The measure generator = {"kind", "params"} gives at `depth`: a
    ConfigError for a bad generator, its parameters or depth, a MemoryError
    as raised, a [build] StageError for any other failure."""
    params = _check_generator(generator, depth)
    kind = generator["kind"]
    try:
        return _BUILDERS[kind](params, depth)
    except KeyError as e:
        raise ConfigError(f"generator {kind!r} is missing parameter {e}") from e
    except ValueError as e:
        raise ConfigError(f"generator {kind!r}: {e}") from e
    except MemoryError:
        raise
    except Exception as e:
        raise StageError("build", str(e)) from e


def build_scene_measure(cfg: SceneConfig) -> DyadicMeasure:
    return _build_measure(cfg.generator, cfg.depth)


def split_separated(mu: DyadicMeasure) -> tuple[DyadicMeasure, DyadicMeasure]:
    """Mass-balanced cut along the first axis; both halves are renormalized
    and separated by at least MIN_GAP.

    A natural support gap is used when one exists; otherwise a band of width
    MIN_GAP around the weighted median is discarded to create the gap."""
    xs = _centers(mu.coords[:, 0], mu.m)
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
    del order, xs_s, cum, gaps  # before the halves are built
    left = xs < lo
    right = xs > hi
    if not left.any() or not right.any():
        raise StageError("split", "no separated mass balance along axis 0")
    mu_half = restrict_normalize(mu, left)
    nu_half = restrict_normalize(mu, right)
    gap = _split_gap(mu_half, nu_half)
    if gap < MIN_GAP - 1e-12:
        raise StageError("split", f"split gap {gap} below {MIN_GAP}")
    return mu_half, nu_half


def _split_gap(mu_half: DyadicMeasure, nu_half: DyadicMeasure) -> float:
    """Distance along axis 0 between the closest leaf cubes of the halves:
    leaf rows are in lexicographic order, so nu_half's first row and
    mu_half's last."""
    lo, hi = _centers(np.array([mu_half.coords[-1, 0], nu_half.coords[0, 0]]), mu_half.m)
    return float(hi - lo) - 2.0 ** (-mu_half.m)


def _distance_curve(nu: DyadicMeasure, pin, levels) -> list[tuple[int, float]]:
    d = np.sqrt(_pin_offsets(nu, pin, 0.0)[1])
    return [(j, math.log2(max(1, n))) for j, n in zip(levels, value_box_counts(d, levels))]


def run_experiment(cfg: SceneConfig) -> ExperimentResult:
    mu_full = build_scene_measure(cfg)
    if mu_full.d != 2:
        raise ConfigError(f"the scene's measure has d = {mu_full.d}, and no target is defined "
                          "for it: the target phi(t) - zeta is the planar (d = 2) one")
    if mu_full.trivial or mu_full.box_count(cfg.depth) < 4:
        return ExperimentResult(
            scenario=cfg.scenario, frostman_s=0.0,
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
    target = phi(min(max(fit.s, 1e-6), 1.0)) - cfg.zeta

    mu_half, nu_half = split_separated(mu_full)
    del mu_full  # the pins and curves read only the halves

    count = cfg.pins.get("count", 8)
    pins = _centers(mu_half.coords[_quantile_leaves(mu_half.masses, count)], mu_half.m)
    levels = list(range(lo, hi + 1))
    rows = []
    curves = {}
    for idx, pin in enumerate(pins.tolist()):
        curve = _distance_curve(nu_half, pin, levels)
        # fit without the two coarsest and two finest levels: discretization boundaries
        xs, ys = np.array(curve[2:-2], dtype=float).T
        slope = float(np.polyfit(xs, ys, 1)[0])
        rows.append(
            {
                "pin": tuple(pin),
                "exponent": slope,
                "passed": slope >= target,
            }
        )
        curves[f"pin{idx}"] = curve
    best = max((r["exponent"] for r in rows), default=0.0)
    return ExperimentResult(
        scenario=cfg.scenario,
        frostman_s=fit.s,
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
    lines = ["scenario,pin_index,exponent,target,zeta,passed,degenerate"]
    for res in results:
        if not res.rows:
            lines.append(
                f"{res.scenario},,,{res.target!r},{res.zeta!r},"
                f"{int(res.passed)},{int(res.degenerate)}"
            )
        for i, row in enumerate(res.rows):
            lines.append(
                f"{res.scenario},{i},{row['exponent']!r},"
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
