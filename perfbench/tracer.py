"""Outside-in tracer: wraps dimlab's public functions from the benchmark side.

Each layer is a dimlab module.  Every public function a module defines is
wrapped once and the wrapper is bound at every place the function is looked
up: ``from .x import f`` copies ``f`` into the importing module, so each
dimlab module (and the package namespace) is scanned for the original
object.  A few methods are patched on their class.  Each call records a span
(name, start, end, parent span, op id) in memory; self time is a span's
duration minus the part covered by its child spans.

``verify_call_counts`` replays ops under cProfile, which counts calls per
code object whatever name they came through, and compares those counts with
the spans, so a binding site the tracer missed shows as a mismatch.
"""

from __future__ import annotations

import cProfile
import functools
import os
import time
import types
from collections import defaultdict

LAYERS = ("dyadic", "plf", "uniformize", "sigma", "geometry", "chain",
          "generators", "experiment", "cli")

# (layer, class, method, span name)
METHODS = (
    ("dyadic", "DyadicMeasure", "__init__", "dyadic.DyadicMeasure"),
    ("dyadic", "DyadicMeasure", "level_masses", "dyadic.level_masses"),
    ("dyadic", "DyadicMeasure", "frostman_fit", "dyadic.frostman_fit"),
    ("plf", "PLFunction", "in_class", "plf.PLFunction.in_class"),
)

ROOT = "op"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Per-call counters taken from arguments and results: (tracer, args, kwargs,
# result or None, exception or None, duration).
def _sigma_tau(tr, a, k, res, exc, dur):
    if res is not None:
        tr.counts["sigma.sigma_tau.n_candidates"] += res.n_candidates


def _sigma_for_f(tr, a, k, res, exc, dur):
    n = int(_arg(a, k, 3, "grid_n"))
    tr.counts["sigma.sigma_for_f.cells"] += (n + 1) ** 2
    tr.counts[f"sigma.sigma_for_f.g{n}.calls"] += 1
    tr.counts[f"sigma.sigma_for_f.g{n}.s"] += dur


def _decompose(tr, a, k, res, exc, dur):
    if res is not None:
        tr.counts["uniformize.decompose_uniform.pieces"] += len(res)


def _lift(tr, a, k, res, exc, dur):
    if isinstance(exc, ValueError):
        tr.counts["uniformize.lift_to_class.rejected"] += 1


def _schedule(tr, a, k, res, exc, dur):
    if exc is not None:
        tr.counts["chain.schedule_from_decomposition.failed"] += 1


def _emit(tr, a, k, res, exc, dur):
    if res is not None:
        tr.counts["experiment.emit_report.bytes"] += sum(os.path.getsize(p) for p in res)


EXTRAS = {
    "sigma.sigma_tau": _sigma_tau,
    "sigma.sigma_for_f": _sigma_for_f,
    "uniformize.decompose_uniform": _decompose,
    "uniformize.lift_to_class": _lift,
    "chain.schedule_from_decomposition": _schedule,
    "experiment.emit_report": _emit,
}


class Tracer:
    """Spans and counters of one traced run, plus the patched binding sites."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict = defaultdict(int)
        self.originals: dict = {}  # span name -> wrapped function
        self.sites: list = []  # (owner, attribute, original) to restore

    # -- spans ---------------------------------------------------------------

    def _call(self, name, fn, extra, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        res = exc = None
        start = time.perf_counter()
        try:
            res = fn(*args, **kwargs)
            return res
        except BaseException as e:
            exc = e
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)
            if extra is not None:
                extra(self, args, kwargs, res, exc, end - start)

    def op(self, op_id: int, fn, *args):
        """Run one op under a root span."""
        self.op_id = op_id
        return self._call(ROOT, fn, None, args, {})

    def _wrapper(self, name, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, extra, args, kwargs)

        return traced

    # -- installation --------------------------------------------------------

    def install(self, dl):
        """Wrap every public function and the listed methods at every
        binding site."""
        modules = [dl] + [getattr(dl, layer) for layer in LAYERS]
        wrapped = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = getattr(dl, layer)
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    self.originals[name] = obj
                    wrapped[id(obj)] = self._wrapper(name, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrapped:
                    self.sites.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(getattr(dl, layer), cls_name)
            fn = vars(cls)[meth]
            self.originals[name] = fn
            self.sites.append((cls, meth, fn))
            setattr(cls, meth, self._wrapper(name, fn))

    def uninstall(self):
        for owner, attr, obj in reversed(self.sites):
            setattr(owner, attr, obj)
        self.sites.clear()

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds."""
        child = defaultdict(float)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child[i]
        return dict(out)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have a span called `ancestor` above them."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            n += p >= 0
        return n

    def write(self, path: str):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


def verify_call_counts(tracer: Tracer, run_ops) -> list[str]:
    """Run ops with a fresh tracer installed and cProfile running; return a
    line per traced function whose span count differs from the number of
    times its code actually ran."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run_ops()
    finally:
        prof.disable()
    seen = tracer.summary()
    prof.create_stats()
    by_code = {key: stat[1] for key, stat in prof.stats.items()}
    bad = []
    for name, fn in tracer.originals.items():
        code = fn.__code__
        actual = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        traced = seen.get(name, {}).get("calls", 0)
        if actual != traced:
            bad.append(f"{name}: traced {traced} calls, code ran {actual} times")
    return bad
