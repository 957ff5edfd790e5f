import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dimlab.experiment import (
    ConfigError,
    SceneConfig,
    StageError,
    build_scene_measure,
    emit_report,
    run_experiment,
    split_separated,
)
from dimlab.dyadic import _centers
from dimlab.generators import gen_cantor_product, gen_circle_pair, gen_product_set
from dimlab.geometry import _quantile_leaves
from dimlab.sigma import phi


def _cfg(**kw):
    base = dict(
        scenario="t",
        generator={"kind": "cantor_product", "params": {"r": 0.25, "d": 2}},
        depth=10,
    )
    base.update(kw)
    return SceneConfig(**base)


def test_scene_config_validation():
    _cfg()
    with pytest.raises(ConfigError):
        _cfg(generator={"kind": "nope"})
    with pytest.raises(ConfigError):
        _cfg(depth=22)
    with pytest.raises(ConfigError):
        SceneConfig("t", {"kind": "cantor_product", "params": {"d": 3}}, 16)
    with pytest.raises(ConfigError):
        _cfg(scale_window=(0, 4))
    with pytest.raises(ConfigError):
        _cfg(zeta=1.5)


def test_scene_config_from_json():
    cfg = SceneConfig.from_json(json.dumps({
        "scenario": "s",
        "generator": {"kind": "cantor_product", "params": {"r": 0.25}},
        "depth": 12,
        "zeta": 0.1,
    }))
    assert cfg.depth == 12 and cfg.zeta == 0.1
    with pytest.raises(ConfigError):
        SceneConfig.from_json("not json")
    with pytest.raises(ConfigError):
        SceneConfig.from_json(json.dumps({"scenario": "s"}))


def test_split_separated_gap_contract():
    mu = gen_cantor_product(0.25, 2, 10).normalize()
    a, b = split_separated(mu)
    gap = b.leaf_centers()[:, 0].min() - a.leaf_centers()[:, 0].max()
    assert gap >= 2.0 ** -3
    assert abs(a.total_mass - 1.0) < 1e-9
    assert abs(b.total_mass - 1.0) < 1e-9
    # gapless measure: a band is carved out instead
    leb = gen_product_set({"kind": "lebesgue"}, 7).normalize()
    a, b = split_separated(leb)
    gap = b.leaf_centers()[:, 0].min() - a.leaf_centers()[:, 0].max()
    assert gap >= 2.0 ** -3


def test_split_halves_keep_equal_masses():
    """Both halves of an equal-mass measure are equal-mass measures, with the
    fsum total; the halves of circle_pair are not."""
    for mu in (gen_cantor_product(0.25, 2, 10).normalize(),
               gen_product_set({"kind": "lebesgue"}, 7).normalize()):
        for half in split_separated(mu):
            assert half.masses.min() == half.masses.max() and half.normalized
            assert half.total_mass == math.fsum(half.masses.tolist())
    for half in split_separated(gen_circle_pair(10).normalize()):
        assert half.masses.min() < half.masses.max()


def test_run_experiment_peak_memory_per_leaf():
    """run_experiment holds only the leaf-length arrays its current stage
    needs (a measure holds only its own two, and the whole measure goes
    after the split): under tracemalloc a depth-12
    cantor scene (4,096 leaves) peaks below 96 bytes a leaf (it reads
    about 76)."""
    run_experiment(_cfg(depth=8))  # first-call imports and caches are not the scene's
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        res = run_experiment(_cfg(depth=12))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert not res.degenerate
    assert peak / 4096 < 96, f"{peak / 4096:.1f} bytes a leaf"


def test_run_experiment_lebesgue_passes():
    cfg = SceneConfig(
        "lebesgue",
        {"kind": "product_set", "params": {"A": {"kind": "lebesgue"}}},
        8,
    )
    res = run_experiment(cfg)
    assert not res.degenerate
    assert res.best_exponent > 0.8
    assert res.passed
    assert res.best_exponent - res.target >= 0.05  # calibration margin
    assert "zeta" in res.target_provenance


def test_run_experiment_point_degenerate():
    cfg = SceneConfig(
        "point",
        {"kind": "product_set", "params": {"A": {"kind": "point", "params": {"x": 0.3}}}},
        10,
    )
    res = run_experiment(cfg)
    assert res.degenerate and not res.passed
    assert res.best_exponent == 0.0


def test_run_experiment_circle_calibration():
    cfg = SceneConfig("circle", {"kind": "circle_pair", "params": {}}, 10)
    res = run_experiment(cfg)
    assert res.passed
    assert res.best_exponent - res.target >= 0.05


def test_run_experiment_pins_are_the_quantile_panel():
    """The pins are the mass-quantile panel of the left half, count of them,
    in panel order, and a scene too shallow for tubes at the split gap's
    scale (lattice q = 4 at depth 6, once rejected with "[tubes] need at
    least two tube radii") runs."""
    lattice = {"kind": "lattice_falconer", "params": {"q": 4}}
    res = run_experiment(SceneConfig("lattice6", lattice, 6, scale_window=(0, 6)))
    assert not res.degenerate and res.passed
    assert len(res.rows) == 8 and res.best_exponent == pytest.approx(1.0)
    res = run_experiment(_cfg(pins={"count": 3}))
    mu_half, _ = split_separated(build_scene_measure(_cfg()).normalize())
    panel = _centers(mu_half.coords[_quantile_leaves(mu_half.masses, 3)], mu_half.m)
    assert [row["pin"] for row in res.rows] == [tuple(pin) for pin in panel.tolist()]
    assert sorted(res.curves) == ["pin0", "pin1", "pin2"]


def test_emit_report_deterministic(tmp_path):
    cfg = SceneConfig(
        "det",
        {"kind": "cantor_product", "params": {"r": 0.25, "d": 2}},
        10,
    )
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    res1 = run_experiment(cfg)
    res2 = run_experiment(cfg)
    files1 = emit_report([res1], str(out1))
    files2 = emit_report([res2], str(out2))
    assert len(files1) == len(files2) > 1
    for f1, f2 in zip(files1, files2):
        assert Path(f1).read_bytes() == Path(f2).read_bytes()
    # rewriting over existing (here longer) files leaves the same bytes
    for f1 in files1:
        with open(f1, "a") as fh:
            fh.write("stale tail\n" * 100)
    assert emit_report([res1], str(out1)) == files1
    for f1, f2 in zip(files1, files2):
        with open(f1, "rb") as a, open(f2, "rb") as b:
            assert a.read() == b.read()


def test_emit_report_empty(tmp_path):
    files = emit_report([], str(tmp_path / "empty"))
    text = Path(files[0]).read_text()
    assert text.splitlines() == ["scenario,pin_index,exponent,target,zeta,passed,degenerate"]


def test_stage_error_names_stage():
    cfg = SceneConfig(
        "bad",
        {"kind": "from_file", "params": {"path": "/nonexistent/measure.txt"}},
        10,
    )
    with pytest.raises(StageError) as err:
        build_scene_measure(cfg)
    assert "[build]" in str(err.value)
