import json
import os
from pathlib import Path

import pytest

from dimlab.cli import main
from dimlab.dyadic import DyadicMeasure


def test_measure_build_and_info(tmp_path, capsys):
    out = str(tmp_path / "mu.txt")
    rc = main(["measure", "build", "--kind", "cantor_product",
               "--params", '{"r": 0.25, "d": 2}', "--depth", "8", "--out", out])
    assert rc == 0
    mu = DyadicMeasure.from_text(Path(out).read_text())
    assert mu.m == 8 and mu.d == 2
    rc = main(["measure", "info", out])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "d=2 depth=8" in captured
    assert "normalized=True" in captured


def test_measure_build_has_no_scale_window(tmp_path):
    """measure build keeps the size guard but not a scene's six-level window."""
    out = str(tmp_path / "mu.txt")
    assert main(["measure", "build", "--kind", "cantor_product",
                 "--params", '{"r": 0.25, "d": 2}', "--depth", "4", "--out", out]) == 0
    assert DyadicMeasure.from_text(Path(out).read_text()).m == 4


def test_dims_command(tmp_path, capsys):
    out = str(tmp_path / "mu.txt")
    main(["measure", "build", "--kind", "cantor_product",
          "--params", '{"r": 0.25, "d": 1}', "--depth", "8", "--out", out])
    rc = main(["dims", out, "--window", "2", "6"])
    assert rc == 0
    assert "frostman_s=" in capsys.readouterr().out


def test_distance_and_radial(tmp_path):
    src = str(tmp_path / "mu.txt")
    main(["measure", "build", "--kind", "cantor_product",
          "--params", '{"r": 0.25, "d": 2}', "--depth", "8", "--out", src])
    dist = str(tmp_path / "dist.txt")
    rc = main(["distance", src, "--pin", "-0.5", "0.5", "--depth", "8",
               "--out", dist])
    assert rc == 0
    assert Path(dist).read_text().startswith("range ")
    rad = str(tmp_path / "rad.txt")
    rc = main(["radial", src, "--pin", "-0.5", "0.5", "--cells", "64",
               "--out", rad])
    assert rc == 0
    assert Path(rad).read_text().startswith("sphere 2 64")


def test_out_rewrites_files_and_writes_through_symlinks(tmp_path, capsys):
    argv = ["measure", "build", "--kind", "cantor_product",
            "--params", '{"r": 0.25, "d": 2}', "--depth", "6", "--out"]
    out = tmp_path / "mu.txt"
    out.write_text("stale\n" * 1000)
    assert main(argv + [str(out)]) == 0
    text = out.read_text()
    assert text.startswith("2 6\n") and "stale" not in text
    target = tmp_path / "target.txt"
    target.write_text("stale\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert main(argv + [str(link)]) == 0
    assert link.is_symlink() and target.read_text() == text


def _separated_pair(tmp_path):
    """Measure files for tubes: four pins on the left, nu on the right."""
    left = DyadicMeasure(2, 6, {(i, 32): 0.25 for i in (2, 5, 8, 11)})
    right = DyadicMeasure(2, 6, {(i, j): 1.0 / 16 for i in (50, 54, 58, 62)
                                 for j in (20, 28, 36, 44)})
    return (_write(tmp_path / "left.txt", left.to_text()),
            _write(tmp_path / "right.txt", right.to_text()))


def test_tubes_command(tmp_path, capsys):
    left, right = _separated_pair(tmp_path)
    rc = main(["tubes", "--mu", left, "--nu", right, "--radii", "0.0625", "0.03125",
               "--pins", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pin,t,K"
    assert len(lines) == 1 + 4
    assert len({line.rpartition('",')[0] for line in lines[1:]}) == 4


def test_sigma_phi_and_cdtable(capsys):
    assert main(["sigma", "phi", "--u", "1.0"]) == 0
    assert "0.618033988749894" in capsys.readouterr().out
    assert main(["sigma", "cdtable"]) == 0
    out = capsys.readouterr().out
    assert "d=4" in out and "d=9" in out


def test_sigma_inf(capsys):
    rc = main(["sigma", "inf", "--profile", "trivial", "--t", "1.0",
               "--tau", "0.1", "--budget", "50"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("estimate=") and " candidates=" in lines[0]
    assert lines[1].startswith("certificate=")
    assert lines[2].startswith("full_evaluations=")
    full = int(lines[2].partition("=")[2])
    assert 1 <= full <= int(lines[0].partition(" candidates=")[2])


@pytest.mark.parametrize("name, profile, tau, grid", [
    ("planar", "planar:s=0.4", "0.01", "800"),
    ("highdim", "highdim:d=3,s=1.2", "0.02", "400"),
])
def test_sigma_eval_matches_recorded_output(name, profile, tau, grid, capsys):
    """`sigma eval` prints the recorded value and certificate byte for byte,
    for a two-slope f whose breakpoint 0.3141 lies off both grids."""
    data = Path(__file__).parent / "data"
    rc = main(["sigma", "eval", "--profile", profile, "--f", str(data / "sigma_eval_f.json"),
               "--tau", tau, "--grid", grid])
    assert rc == 0
    assert capsys.readouterr().out == (data / f"sigma_eval_{name}.txt").read_text()


def test_usage_errors_exit_2(capsys, tmp_path):
    assert main(["measure", "info", "/nonexistent"]) == 2
    assert main(["sigma", "phi", "--u", "2.0"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["experiment", "run", str(bad)]) == 2


def test_chain_run(tmp_path, capsys):
    src = str(tmp_path / "mu.txt")
    main(["measure", "build", "--kind", "cantor_product",
          "--params", '{"r": 0.25, "d": 2}', "--depth", "8", "--out", src])
    rc = main(["chain", "run", "--measure", src, "--pin", "-0.5", "0.5",
               "--intervals", "4:8"])
    assert rc == 0
    assert "lhs=" in capsys.readouterr().out


def test_audit_adapted(tmp_path, capsys):
    src = str(tmp_path / "mu.txt")
    main(["measure", "build", "--kind", "cantor_product",
          "--params", '{"r": 0.25, "d": 2}', "--depth", "8", "--out", src])
    rho = tmp_path / "rho.txt"
    n = 32
    rho.write_text("sphere 2 32\n" + "".join(f"{i} {1.0 / n}\n" for i in range(n)))
    rc = main(["audit", "adapted", "--rho", str(rho), "--mu", src,
               "--level", "8", "--s", "0.5", "--eps", "0.1"])
    assert rc in (0, 1)
    assert "failing_fraction=" in capsys.readouterr().out


def test_experiment_run(tmp_path, capsys):
    cfg = {
        "scenario": "cli",
        "generator": {"kind": "cantor_product", "params": {"r": 0.25, "d": 2}},
        "depth": 10,
        "output": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["experiment", "run", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert os.path.exists(tmp_path / "out" / "report.csv")


def test_experiment_run_matches_recorded_cantor16_report(tmp_path, capsys):
    """`experiment run` on the README's cantor16 scene prints the recorded
    stdout (output directory stripped) and writes the recorded report.csv
    and per-pin curves byte for byte."""
    data = Path(__file__).parent / "data" / "cantor16"
    out = tmp_path / "report"
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "scenario": "cantor16",
        "generator": {"kind": "cantor_product", "params": {"r": 0.25, "d": 2}},
        "depth": 16, "zeta": 0.12, "output": str(out)}))
    assert main(["experiment", "run", str(scene)]) == 0
    stdout = capsys.readouterr().out.replace(f"{out}{os.sep}", "")
    assert stdout == (data / "stdout.txt").read_text()
    names = ["report.csv"] + [f"cantor16_pin{i}.dat" for i in range(8)]
    assert sorted(os.listdir(out)) == sorted(names)
    for name in names:
        assert (out / name).read_bytes() == (data / name).read_bytes(), name


def test_parser_is_built_once_and_reused(capsys):
    """main reuses one parser: consecutive calls with different commands,
    a usage error and --help behave as they would on a fresh parser."""
    from dimlab.cli import build_parser

    assert build_parser() is build_parser()
    for _ in range(2):
        assert main(["sigma", "phi", "--u", "1.0"]) == 0
        assert capsys.readouterr().out == "phi(1.0)=0.6180339887498949\n"
        assert main(["sigma", "cdtable", "--d-min", "4", "--d-max", "4"]) == 0
        assert capsys.readouterr().out.startswith("d=4 ")
        with pytest.raises(SystemExit) as exc:
            main(["sigma", "phi"])
        assert exc.value.code == 2
        assert "the following arguments are required: --u" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["sigma", "phi", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dimlab sigma phi")
        assert main(["experiment", "run", "/nonexistent.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("case", [
    "profile_missing_s", "generator_missing_param", "rho_empty", "rho_truncated",
    "measure_nan", "pin_wrong_dim_distance", "pin_wrong_dim_radial", "circle_pair_radius",
    "lattice_dim", "sigma_inf_tau_zero", "sigma_inf_budget_negative", "verify_planar_tau_zero",
    "verify_highdim_tau_zero", "sigma_eval_grid_zero", "tubes_pins_zero",
    "tubes_radii_duplicate", "tubes_radius_nan", "tubes_radius_inf", "tubes_dim_mismatch",
    "scene_pins_zero", "scene_pins_not_object", "scene_list", "scene_generator_string",
    "scene_params_string", "scene_pins_bool", "scene_pins_fraction", "build_params_list",
    "dims_window_reversed", "dims_window_too_deep", "chain_intervals_reversed",
    "chain_intervals_too_deep", "chain_intervals_not_int", "chain_pin_one_coordinate",
    "entropy_proj_a_2", "entropy_proj_a_nan", "phi_u_2", "phi_u_nan", "sigma_eval_f_empty",
    "cdtable_d_min_1", "sigma_eval_f_no_breakpoints", "scene_depth_list",
    "scene_depth_fraction", "scene_window_number", "scene_window_string", "scene_zeta_list",
    "scene_output_number", "scene_window_float", "scene_window_three",
    "highdim_s_nan", "highdim_d_inf", "highdim_d_zero", "kaufman_s_nan", "trivial_d_inf",
    "custom_value_nan", "custom_breakpoints_number", "verify_highdim_s_nan", "cdtable_reversed",
    "sigma_eval_f_nan", "sigma_eval_f_inf", "rho_no_mass_adapted", "rho_no_mass_entropy_proj",
    "radial_cells_zero", "radial_one_dim", "distance_depth_100", "adapted_level_100",
    "build_r_string", "build_product_set_number", "build_radius_null", "build_d_null",
    "build_delta_level_fraction", "build_too_deep", "verify_highdim_slack_nan",
    "tubes_not_separated", "build_product_set_r_string", "build_product_set_x_string",
    "custom_d_null", "custom_not_object", "chain_M_zero", "profile_unknown_key",
    "profile_duplicate_key", "custom_bool_and_string", "custom_breakpoints_string",
])
def test_malformed_input_exits_2_without_traceback(case, tmp_path, capsys):
    mu = str(tmp_path / "mu.txt")
    main(["measure", "build", "--kind", "cantor_product",
          "--params", '{"r": 0.25, "d": 2}', "--depth", "6", "--out", mu])
    capsys.readouterr()
    f = _write(tmp_path / "f.json", '{"breakpoints": [0.0, 1.0], "values": [0.0, 1.5]}')
    scene = _write(tmp_path / "scene.json", json.dumps({
        "scenario": "tt", "generator": {"kind": "train_track", "params": {}},
        "depth": 12}))
    left, right = _separated_pair(tmp_path)
    cube = _write(tmp_path / "cube.txt", DyadicMeasure(3, 4, {(14, 8, 8): 1.0}).to_text())
    tubes = ["tubes", "--mu", left, "--nu", right, "--radii"]
    rho = _write(tmp_path / "rho4.txt", "sphere 2 4\n" + "".join(f"{i} 0.25\n" for i in range(4)))
    chain = ["chain", "run", "--measure", mu, "--pin", "-0.5", "0.5", "--intervals"]
    entropy_proj = ["audit", "entropy-proj", "--rho", rho, "--mu", mu, "--m", "6",
                    "--b", "0.5", "--a"]

    rho_no_mass = _write(tmp_path / "rho_no_mass.txt", "sphere 2 16\n")

    def sigma_eval_f(name, **rec):
        path = _write(tmp_path / f"f_{name}.json", json.dumps(rec))
        return ["sigma", "eval", "--profile", "trivial", "--tau", "0.1", "--grid", "16",
                "--f", path]

    def sigma_inf(profile):
        return ["sigma", "inf", "--profile", profile, "--t", "1.0", "--tau", "0.1"]

    def custom_eval(name, **rec):
        path = _write(tmp_path / f"custom_{name}.json", json.dumps({"d": 2.0, **rec}))
        return ["sigma", "eval", "--f", f, "--tau", "0.1", "--profile", "custom:" + path]

    def build(kind, params, depth="8"):
        return ["measure", "build", "--kind", kind, "--params", json.dumps(params),
                "--depth", depth]

    def scene_run(name, **fields):
        rec = {"scenario": name, "generator": {"kind": "cantor_product", "params": {}},
               "depth": 10, **fields}
        return ["experiment", "run", _write(tmp_path / f"scene_{name}.json", json.dumps(rec))]
    argv = {
        "profile_missing_s": ["sigma", "eval", "--profile", "highdim:d=3", "--f", f,
                              "--tau", "0.02"],
        "generator_missing_param": ["experiment", "run", scene],
        "rho_empty": ["audit", "adapted", "--rho", _write(tmp_path / "rho.txt", ""),
                      "--mu", mu, "--level", "6", "--s", "0.5", "--eps", "0.1"],
        "rho_truncated": ["audit", "adapted", "--rho",
                          _write(tmp_path / "rho_truncated.txt", "sphere 2\n"),
                          "--mu", mu, "--level", "6", "--s", "0.5", "--eps", "0.1"],
        "measure_nan": ["measure", "info", _write(tmp_path / "nan.txt", "1 2\n0 nan\n")],
        "pin_wrong_dim_distance": ["distance", mu, "--pin", "-0.5", "--depth", "8"],
        "pin_wrong_dim_radial": ["radial", mu, "--pin", "-0.5", "--cells", "16"],
        "circle_pair_radius": ["measure", "build", "--kind", "circle_pair",
                               "--params", '{"radius": 0.9}', "--depth", "8"],
        "lattice_dim": ["measure", "build", "--kind", "lattice_falconer",
                        "--params", '{"q": 4, "d": 5}', "--depth", "6"],
        "sigma_inf_tau_zero": ["sigma", "inf", "--profile", "trivial", "--t", "1.0",
                               "--tau", "0"],
        "sigma_inf_budget_negative": ["sigma", "inf", "--profile", "trivial", "--t", "1.0",
                                      "--tau", "0.1", "--budget", "-1"],
        "verify_planar_tau_zero": ["sigma", "verify-planar", "--u", "1.0", "--zeta", "0.05",
                                   "--tau", "0"],
        "verify_highdim_tau_zero": ["sigma", "verify-highdim", "--d", "3", "--t", "1.5",
                                    "--s", "1.2", "--tau", "0"],
        "sigma_eval_grid_zero": ["sigma", "eval", "--profile", "trivial", "--f", f,
                                 "--tau", "0.1", "--grid", "0"],
        "tubes_pins_zero": tubes + ["0.0625", "0.03125", "--pins", "0"],
        "tubes_radii_duplicate": tubes + ["0.0625", "0.0625"],
        "tubes_radius_nan": tubes + ["0.0625", "nan"],
        "tubes_radius_inf": tubes + ["0.0625", "inf"],
        "tubes_dim_mismatch": ["tubes", "--mu", left, "--nu", cube,
                               "--radii", "0.0625", "0.125"],
        "scene_pins_zero": ["experiment", "run", _write(tmp_path / "pins.json", json.dumps({
            "scenario": "p0", "generator": {"kind": "cantor_product", "params": {"r": 0.25}},
            "depth": 10, "pins": {"count": 0}}))],
        "scene_pins_not_object": ["experiment", "run", _write(tmp_path / "pins3.json", json.dumps({
            "scenario": "p3", "generator": {"kind": "cantor_product", "params": {"r": 0.25}},
            "depth": 10, "pins": 3}))],
        "scene_list": ["experiment", "run", _write(tmp_path / "list.json", "[]")],
        "scene_generator_string": scene_run("g", generator="cantor"),
        "scene_params_string": scene_run("p", generator={"kind": "cantor_product",
                                                         "params": "p"}),
        "scene_pins_bool": scene_run("b", pins={"count": True}),
        "scene_pins_fraction": scene_run("f", pins={"count": 8.7}),
        "scene_depth_list": scene_run("dl", depth=[10]),
        "scene_depth_fraction": scene_run("df", depth=10.7),
        "scene_window_number": scene_run("wn", scale_window=5),
        "scene_window_string": scene_run("ws", scale_window=[2, "x"]),
        "scene_window_float": scene_run("wf", scale_window=[2.0, 10]),
        "scene_window_three": scene_run("w3", scale_window=[2, 8, 10]),
        "scene_zeta_list": scene_run("zl", zeta=[0.1]),
        "scene_output_number": scene_run("on", output=5),
        "build_params_list": ["measure", "build", "--kind", "cantor_product",
                              "--params", "[1]", "--depth", "6"],
        "dims_window_reversed": ["dims", mu, "--window", "6", "2"],
        "dims_window_too_deep": ["dims", mu, "--window", "2", "20"],
        "chain_intervals_reversed": chain + ["8:4"],
        "chain_intervals_too_deep": chain + ["4:20"],
        "chain_intervals_not_int": chain + ["x"],
        "chain_pin_one_coordinate": ["chain", "run", "--measure", mu, "--pin", "-0.5",
                                     "--intervals", "2:4"],
        "entropy_proj_a_2": entropy_proj + ["2"],
        "entropy_proj_a_nan": entropy_proj + ["nan"],
        "phi_u_2": ["sigma", "phi", "--u", "2"],
        "phi_u_nan": ["sigma", "phi", "--u", "nan"],
        "sigma_eval_f_empty": ["sigma", "eval", "--profile", "trivial", "--tau", "0.1",
                               "--f", _write(tmp_path / "empty.json", "")],
        "cdtable_d_min_1": ["sigma", "cdtable", "--d-min", "1"],
        "sigma_eval_f_no_breakpoints": ["sigma", "eval", "--profile", "trivial", "--tau", "0.1",
                                        "--f", _write(tmp_path / "nobp.json", '{"values": [0]}')],
        "highdim_s_nan": sigma_inf("highdim:d=3,s=nan"),
        "highdim_d_inf": sigma_inf("highdim:d=inf,s=1.2"),
        "highdim_d_zero": sigma_inf("highdim:d=0,s=1.2"),
        "kaufman_s_nan": sigma_inf("kaufman:s=nan"),
        "trivial_d_inf": sigma_inf("trivial:d=inf"),
        "custom_value_nan": custom_eval("nan", breakpoints=[0.0, 1.0, 2.0],
                                        values=[0.0, float("nan"), 1.0]),
        "custom_breakpoints_number": custom_eval("number", breakpoints=5, values=[0.0, 1.0]),
        "verify_highdim_s_nan": ["sigma", "verify-highdim", "--d", "3", "--t", "1.5",
                                 "--s", "1.2", "nan"],
        "cdtable_reversed": ["sigma", "cdtable", "--d-min", "9", "--d-max", "4"],
        "sigma_eval_f_nan": sigma_eval_f("nan", breakpoints=[0.0, 1.0],
                                         values=[0.0, float("nan")]),
        "sigma_eval_f_inf": sigma_eval_f("inf", breakpoints=[0.0, 0.5, 1.0],
                                         values=[0.0, float("inf"), 1.0]),
        "rho_no_mass_adapted": ["audit", "adapted", "--rho", rho_no_mass, "--mu", mu,
                                "--level", "6", "--s", "0.5", "--eps", "0.1"],
        "rho_no_mass_entropy_proj": ["audit", "entropy-proj", "--rho", rho_no_mass, "--mu", mu,
                                     "--m", "6", "--a", "0.2", "--b", "0.5"],
        "radial_cells_zero": ["radial", cube, "--pin", "-0.5", "0.5", "0.5", "--cells", "0"],
        "radial_one_dim": ["radial", _write(tmp_path / "line.txt", "1 4\n3 1.0\n"),
                           "--pin", "-0.5", "--cells", "16"],
        "distance_depth_100": ["distance", mu, "--pin", "-0.5", "0.5", "--depth", "100"],
        "adapted_level_100": ["audit", "adapted", "--rho", rho, "--mu", mu,
                              "--level", "100", "--s", "0.5", "--eps", "0.1"],
        "build_r_string": build("cantor_product", {"r": "x"}),
        "build_product_set_number": build("product_set", {"A": 5}),
        "build_radius_null": build("circle_pair", {"radius": None}),
        "build_d_null": build("cantor_product", {"d": None}),
        "build_delta_level_fraction": build("train_track", {"delta_level": 2.5}),
        "build_too_deep": build("cantor_product", {"r": 0.25}, depth="21"),
        "verify_highdim_slack_nan": ["sigma", "verify-highdim", "--d", "3", "--t", "1.5",
                                     "--s", "1.2", "--slack", "nan"],
        "tubes_not_separated": ["tubes", "--mu", right, "--nu", right,
                                "--radii", "0.0625", "0.03125"],
        "build_product_set_r_string": build(
            "product_set", {"A": {"kind": "cantor", "params": {"r": "x"}}}),
        "build_product_set_x_string": build(
            "product_set", {"A": {"kind": "point", "params": {"x": "a"}}}),
        "custom_d_null": custom_eval("d_null", breakpoints=[0.0, 2.0], values=[0.0, 1.0],
                                     d=None),
        "custom_not_object": ["sigma", "eval", "--f", f, "--tau", "0.1", "--profile",
                              "custom:" + _write(tmp_path / "custom_list.json", "[1, 2]")],
        "chain_M_zero": chain + ["2:4", "--M", "0"],
        "profile_unknown_key": sigma_inf("planar:s=0.4,eat=0.5"),
        "profile_duplicate_key": sigma_inf("planar:s=0.4,s=1.9"),
        "custom_bool_and_string": custom_eval("bool", breakpoints=["0", "2"],
                                              values=[False, True], d=True),
        "custom_breakpoints_string": custom_eval("string", breakpoints=["0", "2"],
                                                 values=[0.0, 1.0]),
    }[case]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:")
    assert {
        "tubes_pins_zero": "at least one pin",
        "tubes_radii_duplicate": "distinct",
        "tubes_radius_nan": "finite",
        "tubes_radius_inf": "finite",
        "tubes_dim_mismatch": "dimension",
        "scene_pins_zero": "pins.count",
        "scene_pins_not_object": "pins.count",
        "scene_list": "JSON object",
        "scene_generator_string": "generator must be an object",
        "scene_params_string": "params must be an object",
        "scene_pins_bool": "pins.count",
        "scene_pins_fraction": "pins.count",
        "build_params_list": "params must be an object",
        "scene_depth_fraction": "depth must be an integer",
        "scene_output_number": "output must be a directory path",
        "scene_window_float": "scale_window must be two integers",
        "scene_window_three": "scale_window must be two integers",
        "chain_pin_one_coordinate": "coordinates",
        "entropy_proj_a_2": "a must be in (0, 1)",
        "entropy_proj_a_nan": "a must be in (0, 1)",
        "sigma_eval_f_no_breakpoints": "breakpoints",
        "highdim_s_nan": "s must be finite",
        "highdim_d_inf": "d must be finite",
        "highdim_d_zero": "d must be positive",
        "kaufman_s_nan": "s must be finite",
        "trivial_d_inf": "d must be finite",
        "custom_value_nan": "value must be finite",
        "custom_breakpoints_number": "lists of numbers",
        "verify_highdim_s_nan": "s must be finite",
        "cdtable_reversed": "empty",
        "sigma_eval_f_nan": "finite",
        "sigma_eval_f_inf": "finite",
        "rho_no_mass_adapted": "no mass",
        "rho_no_mass_entropy_proj": "no mass",
        "radial_cells_zero": "need at least 2 cells",
        "radial_one_dim": "d = 2 or 3",
        "distance_depth_100": "depth must be in 0..40",
        "adapted_level_100": "depth must be in 0..40",
        "build_r_string": "'r' must be of type float",
        "build_product_set_number": "'A' must be of type dict",
        "build_radius_null": "'radius' must be of type float",
        "build_d_null": "'d' must be of type int",
        "build_delta_level_fraction": "'delta_level' must be of type int",
        "build_too_deep": "outside [2, 20]",
        "verify_highdim_slack_nan": "slack must be finite",
        "tubes_not_separated": "from the support",
        "build_product_set_r_string": "'r' must be a number",
        "build_product_set_x_string": "'x' must be a number",
        "custom_d_null": "d must be a number",
        "custom_not_object": "JSON object",
        "chain_M_zero": "outside [0, 0]",
        "profile_unknown_key": "takes no parameter 'eat'",
        "profile_duplicate_key": "gives 's' twice",
        "custom_bool_and_string": "d must be a number, got True",
        "custom_breakpoints_string": "lists of numbers",
    }.get(case, "") in err
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
