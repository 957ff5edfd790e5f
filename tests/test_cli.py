import json
import os

import pytest

from dimlab.cli import main
from dimlab.dyadic import DyadicMeasure


def test_measure_build_and_info(tmp_path, capsys):
    out = str(tmp_path / "mu.txt")
    rc = main(["measure", "build", "--kind", "cantor_product",
               "--params", '{"r": 0.25, "d": 2}', "--depth", "8", "--out", out])
    assert rc == 0
    mu = DyadicMeasure.from_text(open(out).read())
    assert mu.m == 8 and mu.d == 2
    rc = main(["measure", "info", out])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "d=2 depth=8" in captured
    assert "normalized=True" in captured


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
    assert open(dist).read().startswith("range ")
    rad = str(tmp_path / "rad.txt")
    rc = main(["radial", src, "--pin", "-0.5", "0.5", "--cells", "64",
               "--out", rad])
    assert rc == 0
    assert open(rad).read().startswith("sphere 2 64")


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


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("case", [
    "profile_missing_s", "generator_missing_param", "rho_empty", "rho_truncated",
    "measure_nan", "pin_wrong_dim_distance", "pin_wrong_dim_radial", "circle_pair_radius",
    "lattice_dim", "sigma_inf_tau_zero", "sigma_inf_budget_negative", "verify_planar_tau_zero",
    "verify_highdim_tau_zero", "sigma_eval_grid_zero",
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
    argv = {
        "profile_missing_s": ["sigma", "eval", "--profile", "highdim:d=3", "--f", f,
                              "--tau", "0.02"],
        "generator_missing_param": ["experiment", "run", scene],
        "rho_empty": ["audit", "adapted", "--rho", _write(tmp_path / "rho.txt", ""),
                      "--mu", mu, "--level", "6", "--s", "0.5", "--eps", "0.1"],
        "rho_truncated": ["audit", "adapted", "--rho",
                          _write(tmp_path / "rho.txt", "sphere 2\n"),
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
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
