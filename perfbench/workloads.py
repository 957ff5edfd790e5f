"""The three benchmark workloads, driven through dimlab's public API.

Every workload builds a fixed corpus of inputs from ``CORPUS_SEED``, so each
op's output can be checked against the committed references in ``refs/``.
The run seed picks the order in which each round visits the corpus.  A run is
made of whole rounds, each running every op once, so every run does the same
mix of work whatever its seed; that keeps the figures comparable across seeds
while each op is still checked, and gives every op several timings per run.

Workload objects hold the dimlab modules they were built with and look every
function up on its module at call time, so wrappers installed by the tracer
see every call.

An op returns a JSON-able outcome; ``check`` compares it with the reference
and returns None, or a one-line reason when the op counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

CORPUS_SEED = 2112

# Known defect, kept visible: schedule_from_decomposition rounds A = round(m a)
# half to even, so b = 2a can give B = 2A + 1.  Ops that hit it count as failed.
SCHEDULE_DEFECT = "violates B <= 2A"

def _run_cli(cli, argv) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue().splitlines()


def _raised(exc: Exception) -> dict:
    return {"class": "raised", "error": f"{type(exc).__name__}: {exc}"}


class Workload:
    """Base: subclasses set ``name``, ``round_seconds`` and ``keys``."""

    name = ""
    verify_ops = 1
    # Nominal seconds per round on the reference machine (2-vCPU Xeon VM at
    # 2.0 GHz); fixes how many rounds a run of --seconds makes.
    round_seconds = 1.0

    def __init__(self, dl, seed: int, workdir: str):
        self.dl = dl
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def verify_keys(self, keys: list[str]) -> list[str]:
        """Ops replayed under the call-count check in a traced run."""
        return keys[:self.verify_ops]

    def round(self) -> list[str]:
        """Keys of the next round of ops (a seeded permutation of the corpus)."""
        return [self.keys[i] for i in self.rng.permutation(len(self.keys))]

    def run(self, key: str) -> dict:
        raise NotImplementedError

    def check(self, key: str, out: dict, ref: dict) -> str | None:
        raise NotImplementedError

    def failure_reason(self, out: dict) -> str | None:
        """Reason an op failed in the program's own terms (a raise), or None."""
        return out.get("error")


# -- sigma_search -----------------------------------------------------------

# Candidate budget per search.  A full acceptance-03/04 search (budget
# 1000-2600) takes minutes; these budgets keep one op near half a second, so
# a run visits every configuration several times, and stop inside the
# structured two-slope phase (1703 feasible candidates per config), so the
# random and descent phases are not reached.  The high-dim budget is larger
# because a grid-400 evaluation costs about a third of a grid-800 one, which
# keeps the two op kinds near the same wall time.
PLANAR_BUDGET = 8
HIGHDIM_BUDGET = 24


class SigmaSearch(Workload):
    """One ``dimlab sigma inf`` search per op, over six planar and four
    high-dim configurations."""

    name = "sigma_search"
    round_seconds = 5.3

    def __init__(self, dl, seed, workdir):
        super().__init__(dl, seed, workdir)
        s_max = dl.sigma.phi(1.0) - 0.05
        self.argv = {}
        for k in range(1, 7):
            s = s_max * k / 6.0
            self.argv[f"planar:{k}"] = [
                "sigma", "inf", "--profile", f"planar:s={s!r}", "--t", "1.0",
                "--tau", "0.01", "--budget", str(PLANAR_BUDGET)]
        for s in (1.05, 1.2, 1.35, 1.45):
            self.argv[f"highdim:{s}"] = [
                "sigma", "inf", "--profile", f"highdim:d=3,s={s!r}", "--t", "1.5",
                "--tau", "0.02", "--budget", str(HIGHDIM_BUDGET)]
        self.keys = list(self.argv)

    def verify_keys(self, keys):
        return [next(k for k in keys if k.startswith(p)) for p in ("planar", "highdim")]

    def run(self, key):
        rc, lines = _run_cli(self.dl.cli, self.argv[key])
        out = {"rc": rc}
        for line in lines:
            if line.startswith("estimate="):
                est, _, cand = line.partition(" candidates=")
                out["estimate"] = est[len("estimate="):]
                out["candidates"] = int(cand)
            elif line.startswith("certificate="):
                out["certificate"] = line[len("certificate="):]
        return out

    def check(self, key, out, ref):
        if out.get("rc") != 0:
            return f"exit code {out.get('rc')}"
        for field in ("estimate", "certificate"):
            if out.get(field) != ref[field]:
                return f"{field} differs from reference"
        return None


# -- distance_scene ----------------------------------------------------------

# The README's cantor16 scene; the run seed does not change it.
SCENE = {
    "scenario": "cantor16",
    "generator": {"kind": "cantor_product", "params": {"r": 0.25, "d": 2}},
    "depth": 16,
    "zeta": 0.12,
}


class DistanceScene(Workload):
    """One ``dimlab experiment run scene.json`` per op, writing its report."""

    name = "distance_scene"
    round_seconds = 9.0

    def __init__(self, dl, seed, workdir):
        super().__init__(dl, seed, workdir)
        self.path = os.path.join(workdir, "scene.json")
        with open(self.path, "w") as fh:
            json.dump(dict(SCENE, output=os.path.join(workdir, "report")), fh)
        self.target = dl.sigma.phi(1.0) - 0.12
        self.keys = ["cantor16"]

    def run(self, key):
        rc, lines = _run_cli(self.dl.cli, ["experiment", "run", self.path])
        out = {"rc": rc, "written": sum(line.startswith("wrote ") for line in lines)}
        for line in lines:
            for part in line.split():
                name, _, val = part.partition("=")
                if name in ("frostman_s", "best_exponent"):
                    out[name] = float(val)
        return out

    def check(self, key, out, ref):
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        if out["written"] < 2:
            return "report files not written"
        # acceptance-09 cantor verdict; exact exponents may move with pin order
        best = out["best_exponent"]
        if not (best >= self.target and best > 0.52):
            return f"acceptance-09 verdict: best exponent {best!r}"
        if abs(out["frostman_s"] - 1.0) >= 0.05:
            return f"acceptance-09 verdict: frostman_s {out['frostman_s']!r}"
        return None


# -- uniform_profile ---------------------------------------------------------

UNIFORM_CORPUS = 40
LIFT_EPS = 1.0 / 64.0  # chord cut at 4 sqrt(eps) = 1/2


def random_measure_leaves(rng, d: int = 2, m: int = 8) -> dict:
    """Acceptance-06 family: 50-400 random leaves with masses in [1e-3, 1+1e-3)."""
    n = int(rng.integers(50, 401))
    coords = rng.integers(1 << m, size=(n, d)).tolist()
    masses = (rng.random(n) + 1e-3).tolist()
    return {tuple(c): w for c, w in zip(coords, masses)}


class UniformProfile(Workload):
    """The composed paper path on one acceptance-06-family measure per op."""

    name = "uniform_profile"
    verify_ops = 12
    round_seconds = 5.0

    def __init__(self, dl, seed, workdir):
        super().__init__(dl, seed, workdir)
        crng = np.random.default_rng(CORPUS_SEED)
        self.inputs = {f"u{i}": random_measure_leaves(crng) for i in range(UNIFORM_CORPUS)}
        self.keys = list(self.inputs)

    def run(self, key):
        dl = self.dl
        try:
            mu = dl.dyadic.DyadicMeasure(2, 8, self.inputs[key]).normalize()
            pieces = dl.uniformize.decompose_uniform(mu, 2, 0.2)
            piece = max(pieces, key=lambda p: p.mass_retained)
            f = dl.uniformize.branching_profile(piece)
            u = float(f(1.0))
            try:
                lifted = dl.uniformize.lift_to_class(f, u, LIFT_EPS, 2.0)
            except ValueError as exc:
                return {"class": "lift_rejected", "error_text": str(exc)}
            D = dl.sigma.PlanarProfile(u)
            _, dec = dl.sigma.sigma_for_f(D, lifted, 0.125, 96)
            try:
                sched, _ = dl.chain.schedule_from_decomposition(dec, 8)
            except ValueError as exc:
                if SCHEDULE_DEFECT in str(exc):
                    return {"class": "schedule_defect", "error": SCHEDULE_DEFECT}
                raise
            return {"class": "scheduled", "schedule": [list(iv) for iv in sched.intervals]}
        except Exception as exc:  # noqa: BLE001 - an op's raise is its outcome
            return _raised(exc)

    def check(self, key, out, ref):
        if out["class"] != ref["class"]:
            return f"outcome {out['class']} differs from reference {ref['class']}"
        if out.get("schedule") != ref.get("schedule"):
            return "schedule differs from reference"
        return None


WORKLOADS = {w.name: w for w in (SigmaSearch, DistanceScene, UniformProfile)}
