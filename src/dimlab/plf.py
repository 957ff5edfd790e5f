"""Piecewise-linear functions on [0,1] and the slope-constrained class L(d,u).

Membership in L(d,u) means: d-Lipschitz on every segment and f(x) >= u*x at
every breakpoint (which suffices for all x by piecewise linearity).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_TOL = 1e-9


@dataclass(frozen=True)
class PLFunction:
    """Piecewise-linear function given by breakpoints 0 = x_0 < ... < x_n = 1."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValueError("need matching xs/ys with at least two breakpoints")
        if abs(self.xs[0]) > _TOL or abs(self.xs[-1] - 1.0) > _TOL:
            raise ValueError("breakpoints must span [0, 1]")
        if not all(a < b for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError("breakpoints must be finite and strictly increasing")
        if not all(map(math.isfinite, self.ys)):
            raise ValueError("values must be finite")

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)

    def slopes(self) -> np.ndarray:
        xs = np.asarray(self.xs)
        ys = np.asarray(self.ys)
        return np.diff(ys) / np.diff(xs)

    def in_class(self, d: float, u: float) -> bool:
        """Membership in L(d,u): d-Lipschitz and above the line u*x."""
        return bool(_in_class_rows(self.xs, self.ys, d, u))

    def class_violation(self, d: float, u: float) -> tuple[str, float] | None:
        """First violated L(d,u) condition and its witness x, or None."""
        for name, ok in zip(("lipschitz", "below-line"), _class_masks(self.xs, self.ys, d, u)):
            if not ok.all():
                return name, float(self.xs[int(np.argmin(ok))])
        return None

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"kind": "plfunction", "breakpoints": list(self.xs), "values": list(self.ys)}
        )

    @classmethod
    def from_json(cls, text: str) -> "PLFunction":
        rec = json.loads(text)
        try:
            return cls(tuple(rec["breakpoints"]), tuple(rec["values"]))
        except (KeyError, TypeError) as e:
            raise ValueError(
                f"a PL function needs 'breakpoints' and 'values' lists: {e!r}") from None


def _class_masks(xs, ys, d: float, u: float) -> tuple[np.ndarray, np.ndarray]:
    """The L(d,u) conditions |slope| <= d per segment and y >= u x per
    breakpoint of PL functions with breakpoints xs and values ys[..., :]."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    return np.abs(np.diff(ys, axis=-1) / np.diff(xs)) <= d + _TOL, ys >= u * xs - _TOL


def _in_class_rows(xs, ys, d: float, u: float) -> np.ndarray:
    """Membership in L(d,u) of each PL function with breakpoints xs and
    values ys[..., :] (a row per function)."""
    lipschitz, above = _class_masks(xs, ys, d, u)
    return lipschitz.all(axis=-1) & above.all(axis=-1)


def _shape_rows(xs, ys) -> list[bytes]:
    """The shape of each PL function with breakpoints xs and values ys[r]
    (a row per function): its breakpoints and values as bytes, less every
    interior breakpoint where the float slopes on both sides are equal.
    Functions of equal shape are one function up to rounding in those
    slopes, whatever breakpoints they were given."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float).reshape(-1, len(xs))
    slopes = ys[:, 1:] - ys[:, :-1]
    slopes /= xs[1:] - xs[:-1]
    keep = np.ones(ys.shape, dtype=bool)
    np.not_equal(slopes[:, 1:], slopes[:, :-1], out=keep[:, 1:-1])
    # (x, y) pairs, 16 bytes each, row after row
    pts = np.empty(ys.shape + (2,))
    pts[..., 0] = xs
    pts[..., 1] = ys
    blob = pts[keep].tobytes()
    ends = (keep.sum(axis=1).cumsum() * 16).tolist()
    return [blob[a:b] for a, b in zip([0] + ends, ends)]


def linear(slope: float) -> PLFunction:
    return PLFunction((0.0, 1.0), (0.0, slope))


def from_slopes(slopes, xs=None) -> PLFunction:
    """Build a PLFunction from per-segment slopes on a uniform or given grid."""
    slopes = list(slopes)
    n = len(slopes)
    if xs is None:
        xs = [i / n for i in range(n + 1)]
    elif len(xs) != n + 1:
        raise ValueError(f"{n} slopes need {n + 1} breakpoints, got {len(xs)}")
    ys = [0.0]
    for s, a, b in zip(slopes, xs, xs[1:]):
        ys.append(ys[-1] + s * (b - a))
    return PLFunction(tuple(xs), tuple(ys))
