import json
import os
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
from dimlab.generators import gen_cantor_product, gen_product_set
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
    assert text.splitlines() == ["scenario,pin_index,tube_t,exponent,target,zeta,passed,degenerate"]


def test_stage_error_names_stage():
    cfg = SceneConfig(
        "bad",
        {"kind": "from_file", "params": {"path": "/nonexistent/measure.txt"}},
        10,
    )
    with pytest.raises(StageError) as err:
        build_scene_measure(cfg)
    assert "[build]" in str(err.value)
