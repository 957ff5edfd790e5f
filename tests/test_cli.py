import hashlib
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dimlab.cli import main
from dimlab.dyadic import DyadicMeasure
from oracles import random_measure, two_slope_class_count


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


def test_dims_table_equals_box_count_and_entropy(tmp_path, capsys):
    """dims reads its table off one level walk; each line holds the bits
    box_count(j) and entropy(j) give, and the first line the fit's."""
    rng = np.random.default_rng(25)
    for i in range(12):
        d, m = (1, 12) if i % 3 == 0 else (2, 9) if i % 3 == 1 else (3, 6)
        mu = random_measure(rng, d=d, m=m, n_leaves=int(rng.integers(1, 300)))
        path = tmp_path / f"mu{i}.txt"
        path.write_text(mu.to_text())
        lo = int(rng.integers(0, m - 1))
        hi = int(rng.integers(lo + 2, m + 1))
        assert main(["dims", str(path), "--window", str(lo), str(hi)]) == 0
        mu = DyadicMeasure.from_text(path.read_text()).normalize()
        fit = mu.frostman_fit((lo, hi))
        assert capsys.readouterr().out.splitlines() == [
            f"frostman_s={fit.s!r} C={fit.C!r} residual={fit.residual!r}"] + [
            f"level={j} boxes={mu.box_count(j)} entropy={mu.entropy(j)!r}"
            for j in range(lo, hi + 1)]


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


def test_tubes_match_recorded_output(capsys):
    """`tubes` prints the recorded profiles byte for byte, 8 pins and 4
    radii each, on the separated halves of the depth-10 cantor_product
    r = 1/4 scene (equal masses) and of the depth-10 circle_pair scene
    (unequal masses)."""
    data = Path(__file__).parent / "data" / "tubes"
    out = []
    for name, radii in (("cantor10", ["0.125", "0.0625", "0.03125", "0.015625"]),
                        ("circle10", ["0.0625", "0.03125", "0.015625", "0.0078125"])):
        assert main(["tubes", "--mu", str(data / f"{name}_mu.txt"),
                     "--nu", str(data / f"{name}_nu.txt"), "--radii", *radii, "--pins", "8"]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == (data / "stdout.txt").read_text()


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
    candidates = int(lines[0].partition(" candidates=")[2])
    assert 1 <= full <= candidates
    coarse, _, rest = lines[3].removeprefix("pruned=coarse:").partition(" quarter:")
    quarter, repeated = rest.split(" repeated:")
    assert full + int(coarse) + int(quarter) + int(repeated) == candidates
    assert len(lines) == 4


def test_sigma_inf_ends_with_the_ladder_whatever_the_budget(capsys):
    """A budget beyond the two-slope ladder is not a search cost: the search
    makes the line and the ladder's class members, 1 + 1,703 at d = 2,
    t = 1, and returns."""
    rc = main(["sigma", "inf", "--profile", "planar:s=0.5", "--t", "1.0", "--tau", "0.1",
               "--budget", "10000000000000000"])
    assert rc == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.endswith(" candidates=1704")
    assert 1704 == 1 + two_slope_class_count(2.0, 1.0)


def test_verify_planar_negative_zeta_runs_and_fails(capsys):
    """A negative zeta is an admissible slack while phi(u) - zeta < 2: the
    six searches run, the upper ones miss, and the exit code is 1."""
    rc = main(["sigma", "verify-planar", "--u", "1.0", "--zeta", "-0.5", "--tau", "0.05",
               "--budget", "60"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1 and lines[-1] == "FAIL" and len(lines) == 7
    assert lines[-2].startswith("s=1.118033988749895 ")


def test_sigma_inf_reports_an_input_too_large_for_memory(monkeypatch, capsys):
    """A tau whose endpoint grid does not fit in memory is one error line
    and exit 2; the grid is never allocated."""
    from dimlab import sigma

    msg = "Unable to allocate 59.6 GiB for an array with shape (8000000001,)"
    for exc, err in ((MemoryError(msg), msg), (MemoryError(), "out of memory")):
        def grid(grid_n, exc=exc):
            assert grid_n == 8_000_000_000
            raise exc
        monkeypatch.setattr(sigma, "_grid", grid)
        rc = main(["sigma", "inf", "--profile", "planar:s=0.3", "--t", "1.0",
                   "--tau", "1e-9", "--budget", "2"])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("line, err", [
    ("0 x 1.0", "line 3: field 2 ('x') is not an integer"),
    ("0 1.5 1.0", "line 3: field 2 ('1.5') is not an integer"),
    ("0 1 y", "line 3: field 3 ('y') is not a number"),
    ("0 99999999999999999999 1.0", "line 3: field 2 ('99999999999999999999') is out of range"),
])
def test_measure_info_names_the_field_that_is_not_a_number(line, err, tmp_path, capsys):
    path = _write(tmp_path / "mu.txt", f"2 4\n\n{line}\n0 0 1.0\n")
    assert main(["measure", "info", path]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_measure_info_names_the_header_field_that_is_not_an_integer(tmp_path, capsys):
    path = _write(tmp_path / "mu.txt", "x 4\n0 0 1.0\n")
    assert main(["measure", "info", path]) == 2
    assert capsys.readouterr() == ("", "error: line 1: field 1 ('x') is not an integer\n")


def test_audit_names_the_direction_header_field_that_is_not_an_integer(tmp_path, capsys):
    mu = _write(tmp_path / "mu.txt", DyadicMeasure(2, 4, {(1, 2): 1.0}).to_text())
    rho = _write(tmp_path / "rho.txt", "sphere 2 x\n0 1.0\n")
    rc = main(["audit", "entropy-proj", "--rho", rho, "--mu", mu, "--m", "4",
               "--a", "0.2", "--b", "1.0"])
    assert rc == 2
    assert capsys.readouterr() == ("", "error: line 1: field 3 ('x') is not an integer\n")


@pytest.mark.parametrize("name, profile, tau, grid", [
    ("planar", "planar:s=0.4", "0.01", "800"),
    ("highdim", "highdim:d=3,s=1.2", "0.02", "400"),
    ("planar_3200", "planar:s=0.4", "0.0025", "3200"),
])
def test_sigma_eval_matches_recorded_output(name, profile, tau, grid, capsys):
    """`sigma eval` prints the recorded value and certificate byte for byte,
    for a two-slope f whose breakpoint 0.3141 lies off both grids."""
    data = Path(__file__).parent / "data"
    rc = main(["sigma", "eval", "--profile", profile, "--f", str(data / "sigma_eval_f.json"),
               "--tau", tau, "--grid", grid])
    assert rc == 0
    assert capsys.readouterr().out == (data / f"sigma_eval_{name}.txt").read_text()


def test_measure_info_and_dims_match_recorded_totals(capsys):
    """The printed total_mass of ten leaves of 0.1 (n * w) and of unequal
    masses (fsum), and the dims tables of both, byte for byte."""
    data = Path(__file__).parent / "data" / "totals"
    out = []
    for name in ("equal", "unequal"):
        for cmd in ("measure info", "dims"):
            assert main([*cmd.split(), str(data / f"{name}.txt")]) == 0
            out.append(capsys.readouterr().out)
    assert "".join(out) == (data / "stdout.txt").read_text()


@pytest.mark.parametrize("cmd", ["measure info", "dims", "distance", "audit entropy-proj"])
def test_total_mass_overflow_exits_2(cmd, tmp_path, capsys):
    """A measure or sphere file whose total overflows a float ends with one
    error line and exit 2, not an OverflowError traceback."""
    mu = _write(tmp_path / "mu.txt", "1 1\n0 1e308\n1 1e308\n")
    argv = {
        "measure info": ["measure", "info", mu],
        "dims": ["dims", mu],
        "distance": ["distance", _write(tmp_path / "mu2.txt", "2 1\n0 0 1e308\n1 1 1.5e308\n"),
                     "--pin", "-0.5", "0.5", "--depth", "4"],
        "audit entropy-proj": ["audit", "entropy-proj", "--rho",
                               _write(tmp_path / "rho.txt", "sphere 2 8\n0 1e308\n3 1e308\n"),
                               "--mu", str(Path(__file__).parent / "data" / "measure" / "mu.txt"),
                               "--m", "4", "--a", "0.2", "--b", "1.0"],
    }[cmd]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: the total of the 2 masses overflows") and err.count("\n") == 1
    assert "Traceback" not in out + err


def test_usage_errors_exit_2(capsys, tmp_path):
    assert main(["measure", "info", "/nonexistent"]) == 2
    assert main(["sigma", "phi", "--u", "2.0"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["experiment", "run", str(bad)]) == 2
    capsys.readouterr()
    # the search takes no seed: argparse rejects the flag with its usage line
    with pytest.raises(SystemExit) as exc:
        main(["sigma", "inf", "--profile", "trivial", "--t", "1.0", "--tau", "0.1",
              "--seed", "0"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: dimlab ")
    assert err.endswith("dimlab: error: unrecognized arguments: --seed 0\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, params, depth", [
    ("cantor_product", {"r": 0.25}, 16),
    ("lattice_falconer", {"q": 4}, 16),
    ("lattice_falconer", {"q": 2}, 8),
    ("lattice_falconer", {"q": 1 << 22}, 8),
    ("train_track", {"delta_level": 12}, 20),
    ("product_set", {"A": {"kind": "cantor", "params": {"r": 0.25}}}, 16),
    ("product_set", {"A": {"kind": "lebesgue"}}, 8),
], ids=["cantor_product", "lattice_falconer", "lattice_falconer_q2", "lattice_falconer_q2_22",
        "train_track",
        "product_set_cantor", "product_set_lebesgue"])
def test_measure_build_keeps_to_the_leaf_budget(kind, params, depth, tmp_path, monkeypatch,
                                                capsys):
    """Every generator that builds a product of 65,536 leaves rejects it
    with one error line naming the count and the budget, exit 2, before its
    coordinates exist, when the budget is one leaf lower; at the budget it
    builds the measure."""
    from dimlab import generators

    leaves = 65_536
    out = tmp_path / "mu.txt"
    argv = ["measure", "build", "--kind", kind, "--params", json.dumps(params),
            "--depth", str(depth), "--out", str(out)]
    assert main(["sigma", "phi", "--u", "1.0"]) == 0  # the parser exists
    capsys.readouterr()
    monkeypatch.setattr(generators, "_LEAF_BUDGET", leaves - 1)
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: generator {kind!r}: the product has 65,536 "
                                       "leaves, more than the leaf budget of 65,535\n")
    # the coordinates alone would take 16 bytes a leaf
    assert peak < 4 * leaves
    assert not out.exists()
    monkeypatch.setattr(generators, "_LEAF_BUDGET", leaves)
    assert main(argv) == 0
    assert len(DyadicMeasure.from_text(out.read_text()).masses) == leaves


@pytest.mark.parametrize("kind, params", [
    ("product_set", {"A": {"kind": "lebesgue"}}),
    ("lattice_falconer", {"q": 1 << 22}),
    ("lattice_falconer", {"q": 2}),
], ids=["product_set_lebesgue", "lattice_falconer_q2_22", "lattice_falconer_q2"])
def test_oversize_build_exits_2_before_any_cell_exists(kind, params, tmp_path, capsys):
    """A depth-20 product of 2^40 leaves is rejected from its factors' sizes
    alone: exit 2, one error line naming the product's leaf count, under
    1 MB traced (a factor's 2^20 cells would take 8 MB)."""
    argv = ["measure", "build", "--kind", kind, "--params", json.dumps(params),
            "--depth", "20", "--out", str(tmp_path / "mu.txt")]
    assert main(["sigma", "phi", "--u", "1.0"]) == 0  # the parser exists
    capsys.readouterr()
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: generator {kind!r}: the product has "
                                       "1,099,511,627,776 leaves, more than the leaf budget of "
                                       "2,097,152\n")
    assert peak < 1 << 20, peak


def test_product_builds_match_recorded_hashes(tmp_path):
    """`measure build` writes, byte for byte, the files whose sha256 is
    recorded in tests/data/builds for every product kind: cantor_product,
    lattice_falconer (q = 2, 4, 16 and 2^22), train_track and product_set's
    cantor, lebesgue and point."""
    data = Path(__file__).parent / "data" / "builds"
    want = dict(line.split()[::-1] for line in (data / "sha256.txt").read_text().splitlines())
    got = {}
    for line in (data / "cases.txt").read_text().splitlines():
        name, kind, depth, params = line.split(maxsplit=3)
        out = tmp_path / f"{name}.txt"
        assert main(["measure", "build", "--kind", kind, "--params", params, "--depth", depth,
                     "--out", str(out)]) == 0
        got[out.name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == want


def test_build_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    """A generator that runs out of memory exits 2 (an input too large),
    not 1 as a failed [build] stage."""
    from dimlab import experiment

    def exhausted(params, depth):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setitem(experiment._BUILDERS, "lattice_falconer", exhausted)
    assert main(["measure", "build", "--kind", "lattice_falconer", "--depth", "8",
                 "--out", str(tmp_path / "mu.txt")]) == 2
    assert capsys.readouterr() == ("", "error: Unable to allocate 8.00 TiB\n")


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
    "verify_planar_zeta_high", "verify_planar_zeta_nan", "verify_planar_zeta_inf",
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
    "scene_scenario_path", "scene_scenario_comma", "scene_scenario_number",
    "scene_unknown_key", "scene_zeta_string", "scene_zeta_bool", "scene_missing_depth",
    "scene_generator_unknown_key", "scene_params_unknown_key", "scene_pins_unknown_key",
    "build_params_unknown_key", "build_d_not_taken", "build_product_set_A_unknown_key",
    "build_product_set_A_params_unknown_key",
    "distance_pin_inf", "distance_pin_nan", "radial_pin_inf", "radial_pin_nan",
    "chain_pin_inf", "chain_pin_nan", "entropy_proj_constant_nan", "entropy_proj_b_nan",
    "adapted_s_nan", "adapted_s_inf", "adapted_max_fail_nan", "scene_lattice_d3",
    "adapted_eps_nan", "adapted_eps_inf", "adapted_eps_zero", "adapted_eps_negative",
    "adapted_level_zero", "adapted_level_negative", "build_r_tiny", "build_r_inf",
    "build_product_set_r_tiny", "scene_r_inf", "build_lattice_q_2_22", "build_lattice_q_2_40",
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
    adapted = ["audit", "adapted", "--rho", rho, "--mu", mu, "--level", "6", "--s"]

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
        stem = str(name).replace("/", "_")
        return ["experiment", "run", _write(tmp_path / f"scene_{stem}.json", json.dumps(rec))]
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
        "verify_planar_zeta_high": ["sigma", "verify-planar", "--u", "1.0", "--zeta", "0.7"],
        "verify_planar_zeta_nan": ["sigma", "verify-planar", "--u", "1.0", "--zeta", "nan"],
        "verify_planar_zeta_inf": ["sigma", "verify-planar", "--u", "1.0", "--zeta", "inf"],
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
        "scene_scenario_path": scene_run("../escaped", output=str(tmp_path / "out")),
        "scene_scenario_comma": scene_run("a,b"),
        "scene_scenario_number": scene_run(7),
        "scene_unknown_key": scene_run("uk", scale_windw=[2, 10]),
        "scene_zeta_string": scene_run("zs", zeta="0.5"),
        "scene_zeta_bool": scene_run("zb", zeta=False),
        "scene_missing_depth": ["experiment", "run", _write(tmp_path / "nodepth.json", json.dumps(
            {"scenario": "nd", "generator": {"kind": "cantor_product", "params": {}}}))],
        "scene_generator_unknown_key": scene_run(
            "gk", generator={"kind": "cantor_product", "param": {"r": 0.125}}),
        "scene_params_unknown_key": scene_run(
            "pk", generator={"kind": "cantor_product", "params": {"r": 0.25, "radius": 3}}),
        "scene_pins_unknown_key": scene_run("nk", pins={"cnt": 2}),
        "build_params_unknown_key": build("cantor_product", {"rr": 0.125}),
        "build_d_not_taken": build("circle_pair", {"d": 3}),
        "build_product_set_A_unknown_key": build(
            "product_set", {"A": {"kind": "lebesgue", "parms": {}}}),
        "build_product_set_A_params_unknown_key": build(
            "product_set", {"A": {"kind": "cantor", "params": {"rr": 0.125}}}),
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
        "distance_pin_inf": ["distance", mu, "--pin", "inf", "0.5", "--depth", "6"],
        "distance_pin_nan": ["distance", mu, "--pin", "nan", "0.5", "--depth", "6"],
        "radial_pin_inf": ["radial", mu, "--pin", "inf", "0.5", "--cells", "16"],
        "radial_pin_nan": ["radial", mu, "--pin", "nan", "0.5", "--cells", "16"],
        "chain_pin_inf": ["chain", "run", "--measure", mu, "--pin", "inf", "0.5",
                          "--intervals", "2:4,4:6"],
        "chain_pin_nan": ["chain", "run", "--measure", mu, "--pin", "nan", "0.5",
                          "--intervals", "2:4,4:6"],
        "entropy_proj_constant_nan": entropy_proj + ["0.2", "--constant", "nan"],
        "entropy_proj_b_nan": entropy_proj + ["0.2", "--b", "nan"],
        "adapted_s_nan": adapted + ["nan", "--eps", "0.1"],
        "adapted_s_inf": adapted + ["inf", "--eps", "0.1"],
        "adapted_max_fail_nan": adapted + ["0.5", "--eps", "0.1", "--max-fail", "nan"],
        "adapted_eps_nan": adapted + ["0.5", "--eps", "nan"],
        "adapted_eps_inf": adapted + ["0.5", "--eps", "inf"],
        "adapted_eps_zero": adapted + ["0.5", "--eps", "0"],
        "adapted_eps_negative": adapted + ["0.5", "--eps", "-1"],
        "adapted_level_zero": ["audit", "adapted", "--rho", rho, "--mu", mu,
                               "--level", "0", "--s", "0.5", "--eps", "0.1"],
        "adapted_level_negative": ["audit", "adapted", "--rho", rho, "--mu", mu,
                                   "--level", "-3", "--s", "0.5", "--eps", "0.1"],
        "build_r_tiny": build("cantor_product", {"r": 1e-13}),
        "build_r_inf": build("cantor_product", {"r": math.inf}),
        "build_product_set_r_tiny": build(
            "product_set", {"A": {"kind": "cantor", "params": {"r": 1e-300}}}),
        "scene_r_inf": scene_run("r_inf", generator={"kind": "cantor_product",
                                                     "params": {"r": math.inf}}),
        # rejected before the 1-d factor's points exist (8 TiB of them at q = 2^40)
        # a lattice factor keeps min(log2 q, depth) bits of its first digit block,
        # so a large q is over the budget only deep enough
        "build_lattice_q_2_22": build("lattice_falconer", {"q": 1 << 22}, depth="20"),
        "build_lattice_q_2_40": build("lattice_falconer", {"q": 1 << 40}, depth="20"),
        "scene_lattice_d3": scene_run("d3", generator={"kind": "lattice_falconer",
                                                       "params": {"q": 4, "d": 3}}, depth=8),
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
        "scene_scenario_path": "scenario must be a plain name",
        "scene_scenario_comma": "scenario must be a plain name",
        "scene_scenario_number": "scenario must be a plain name",
        "scene_unknown_key": "unknown config field 'scale_windw'",
        "scene_zeta_string": "zeta must be a number",
        "scene_zeta_bool": "zeta must be a number",
        "scene_missing_depth": "missing config field 'depth'",
        "scene_generator_unknown_key": "generator takes no key 'param'",
        "scene_params_unknown_key": "generator 'cantor_product' takes no key 'radius'",
        "scene_pins_unknown_key": "pins takes no key 'cnt'",
        "build_params_unknown_key": "generator 'cantor_product' takes no key 'rr'",
        "build_d_not_taken": "generator 'circle_pair' takes no key 'd'",
        "build_product_set_A_unknown_key": "product_set's A takes no key 'parms'",
        "build_product_set_A_params_unknown_key": "1-d generator 'cantor' takes no key 'rr'",
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
        "verify_planar_zeta_high": "phi(u) - zeta must be in (0, 2), got -0.08196601125010505"
                                   " at zeta = 0.7",
        "verify_planar_zeta_nan": "zeta must be finite, got nan",
        "verify_planar_zeta_inf": "zeta must be finite, got inf",
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
        "distance_pin_inf": "pin (inf, 0.5) is not finite",
        "distance_pin_nan": "pin (nan, 0.5) is not finite",
        "radial_pin_inf": "pin (inf, 0.5) is not finite",
        "radial_pin_nan": "pin (nan, 0.5) is not finite",
        "chain_pin_inf": "pin (inf, 0.5) is not finite",
        "chain_pin_nan": "pin (nan, 0.5) is not finite",
        "entropy_proj_constant_nan": "fitted_constant must be finite, got nan",
        "entropy_proj_b_nan": "b must be finite, got nan",
        "adapted_s_nan": "s must be finite, got nan",
        "adapted_s_inf": "s must be finite, got inf",
        "adapted_max_fail_nan": "max-fail must be finite, got nan",
        "adapted_eps_nan": "eps must be finite, got nan",
        "adapted_eps_inf": "eps must be finite, got inf",
        "adapted_eps_zero": "eps must be positive, got 0.0",
        "adapted_eps_negative": "eps must be positive, got -1.0",
        "adapted_level_zero": "level must be at least 1, got 0",
        "adapted_level_negative": "level must be at least 1, got -3",
        "build_r_tiny": "ratio 1e-13 is not of the form 2^-k",
        "build_r_inf": "ratio inf is not of the form 2^-k",
        "build_product_set_r_tiny": "ratio 1e-300 is not of the form 2^-k",
        "scene_r_inf": "ratio inf is not of the form 2^-k",
        "build_lattice_q_2_22": "the product has 1,099,511,627,776 leaves, more than the leaf",
        "build_lattice_q_2_40": "the product has 1,099,511,627,776 leaves, more than the leaf",
        "scene_lattice_d3": "d = 3, and no target is defined",
    }.get(case, "") in err
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not list(tmp_path.glob("escaped_*"))  # nothing written outside the output
