import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import openrabi as orb
from openrabi.cli import main, parse_config_file
from util import steady_means


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# figure-style defaults\n"
        "scenario = c\n"
        "gamma-rate = 1e-7   # overrides the lambda/4 rule\n"
        "omega_grid = 0.9,1.0\n"
        "\n"
    )
    parsed = parse_config_file(cfg)
    assert parsed == {"scenario": "c", "gamma_rate": "1e-7", "omega_grid": "0.9,1.0"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario c\n")
    with pytest.raises(ValueError):
        parse_config_file(bad)


def test_sweep_omega_matches_analytic(tmp_path):
    out = tmp_path / "omega.csv"
    code = main([
        "sweep-omega", "--omega-grid", "0.7,1.0,1.3", "--cutoffs", "1",
        "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 3
    for row in rows:
        assert row["error"] == ""
        numeric = float(row["n_mean"])
        analytic = float(row["n1_analytic"])
        assert numeric == pytest.approx(analytic, rel=0.02)
    values = [float(r["n_mean"]) for r in rows]
    assert values[0] > values[1] > values[2]


def test_sweep_omega_rwa_dark(tmp_path):
    out = tmp_path / "rwa.csv"
    assert main([
        "sweep-omega", "--coupling", "rwa", "--omega-grid", "1.0", "--cutoffs", "1,2",
        "--out", str(out),
    ]) == 0
    for row in read_rows(out):
        n_mean = float(row["n_mean"])
        assert 0 <= n_mean < 1e-12  # tiny negatives are clamped in the artifact
        assert float(row["n1_analytic"]) == 0.0


def test_sweep_omega_deterministic_output(tmp_path):
    args = ["sweep-omega", "--omega-grid", "0.9,1.1", "--cutoffs", "1",
            "--scenario", "c"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()


def test_config_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega_grid = 1.0\ncutoffs = 1\nkappa = 1e-5\n")
    out = tmp_path / "o.csv"
    assert main([
        "sweep-omega", "--config", str(cfg), "--kappa", "1e-6", "--out", str(out),
    ]) == 0
    (row,) = read_rows(out)
    expected = orb.one_photon_excitations(
        orb.RabiParams(omega=1.0, g=0.05, kappa=1e-6, lam=1e-6, gamma=2.5e-7)
    )
    assert float(row["n1_analytic"]) == pytest.approx(expected.n_mean, rel=1e-10)


def test_sweep_gamma_monotone(tmp_path):
    out = tmp_path / "gamma.csv"
    assert main([
        "sweep-gamma", "--gamma-grid", "0,2.5e-7,1e-6,4e-6", "--cutoffs", "2",
        "--out", str(out),
    ]) == 0
    values = [float(r["n_mean"]) for r in read_rows(out)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] > 0  # damping alone generates excitation


def test_damping_map_single_point_consistency(tmp_path):
    out = tmp_path / "map.csv"
    assert main([
        "damping-map", "--log-kappa-grid=-6", "--log-lambda-grid=-6",
        "--omegas", "1.0", "--out", str(out),
    ]) == 0
    (row,) = read_rows(out)
    spec = orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.05, kappa=1e-6, lam=1e-6, gamma=2.5e-7),
        cutoff=2,
        parasitic=orb.scenario_parasitic("c"),
    )
    n, e, _ = steady_means(spec)
    assert float(row["log10_total_excitation"]) == pytest.approx(np.log10(n + e), rel=1e-9)


def test_distribution_report(tmp_path):
    out = tmp_path / "dist.csv"
    assert main([
        "distribution", "--kappas", "1e-6", "--omegas", "1.0", "--out", str(out),
    ]) == 0
    rows = read_rows(out)
    assert [int(r["n"]) for r in rows] == [0, 1, 2]
    thermal = [float(r["p_n_thermal"]) for r in rows]
    steady = [float(r["p_n_steady"]) for r in rows]
    # thermal reference is geometric by construction, steady column is not
    assert thermal[1] / thermal[0] == pytest.approx(thermal[2] / thermal[1], rel=1e-9)
    assert steady[2] / steady[1] > 2 * steady[1] / steady[0]
    assert float(rows[0]["i_af"]) > 0


def test_error_rows_and_exit_code(tmp_path):
    # a decoupled, undamped atom has no unique steady state; each command keeps
    # its key columns and leaves the solved columns blank in the error row
    sweep_blank = ["n_mean", "e_mean", "n1_analytic", "e1_analytic", "i_af"]
    cases = {
        "sweep-omega": (["--omega-grid", "1.0", "--cutoffs", "1"], sweep_blank),
        "sweep-gamma": (["--gamma-grid", "0", "--cutoffs", "1"], sweep_blank),
        "distribution": (["--kappas", "1e-6", "--omegas", "1.0"],
                         ["n", "p_n_steady", "p_n_thermal", "i_af"]),
    }
    for command, (grid, columns) in cases.items():
        out = tmp_path / f"{command}.csv"
        code = main([command, *grid, "--g", "0", "--lambda", "0", "--gamma-rate", "0",
                     "--out", str(out)])
        assert code == 3
        (row,) = read_rows(out)
        assert "NonUniqueSteadyState" in row["error"]
        filled = [key for key, value in row.items() if value != ""]
        assert filled == [key for key in row if key not in columns], command


def test_trajectories_subcommand(tmp_path):
    out = tmp_path / "traj.csv"
    assert main([
        "trajectories", "--n-traj", "200", "--points", "5", "--t-max", "2.0",
        "--seed", "7", "--out", str(out),
    ]) == 0
    rows = read_rows(out)
    assert len(rows) == 5
    assert float(rows[0]["mean_n"]) == 1.0
    for row in rows[1:]:
        diff = abs(float(row["mean_n"]) - float(row["exact"]))
        assert diff <= max(4 * float(row["stderr_n"]), 0.05)


def test_convergence_subcommand(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["convergence", "--cutoffs", "1,2,3", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [int(r["cutoff"]) for r in rows] == [1, 2, 3]
    assert rows[0]["rel_change"] == ""
    assert rows[2]["converged"] == "true"


def test_worker_pool_matches_serial(tmp_path):
    args = ["sweep-omega", "--omega-grid", "0.8,1.2", "--cutoffs", "1"]
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(parallel), "--workers", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_console_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    # the child imports the same openrabi as this process, installed or not
    src = str(Path(orb.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "openrabi.cli", "sweep-omega",
         "--omega-grid", "1.0", "--cutoffs", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("argv, named", [
    pytest.param(["sweep-omega", "--config", "bad.cfg"], "'omeega'", id="unknown-key"),
    pytest.param(["sweep-omega", "--config", "not-taken.cfg"], "'cutoff'", id="key-not-taken"),
    pytest.param(["sweep-omega", "--config", "bad-cast.cfg"], "'cutoffs'", id="bad-cast"),
    pytest.param(["sweep-omega", "--config", "no-equals.cfg"], None, id="no-equals"),
    pytest.param(["sweep-omega", "--config", "missing.cfg"], None, id="missing-config"),
    pytest.param(["trajectories", "--points", "1"], None, id="one-point"),
    pytest.param(["sweep-omega", "--omega-grid="], None, id="empty-omega-grid"),
    pytest.param(["distribution", "--kappas="], None, id="empty-kappas"),
    pytest.param(["sweep-gamma", "--gamma-grid=-1e-6,1e-6"], None, id="negative-gamma"),
    pytest.param(["sweep-omega", "--kappa", "nan"], None, id="nan-kappa"),
    pytest.param(["damping-map", "--cutoff", "0"], None, id="cutoff-zero"),
    pytest.param(["convergence", "--cutoff", "3,1"], None, id="descending-cutoffs"),
    pytest.param(["convergence", "--cutoff", "1,1"], "cutoffs", id="repeated-cutoffs"),
    pytest.param(["damping-map", "--log-kappa-grid=400"], "log_kappa_grid",
                 id="overflowing-log-kappa"),
    pytest.param(["sweep-omega", "--workers", "-3"], "workers", id="negative-workers"),
    pytest.param(["trajectories", "--scenario", "a", "--g", "9"], "--scenario, --g",
                 id="decay-model-flags"),
    pytest.param(["trajectories", "--config", "decay-model.cfg"], "--lambda",
                 id="decay-model-config"),
])
def test_unknown_config_key_reports_error(tmp_path, capsys, argv, named):
    # every configuration error: exit 2, one error line, no traceback, no CSV
    (tmp_path / "bad.cfg").write_text("omeega = 1.0\n")
    (tmp_path / "not-taken.cfg").write_text("cutoff = 3\n")  # sweep-omega takes cutoffs
    (tmp_path / "bad-cast.cfg").write_text("cutoffs = 1,x\n")
    (tmp_path / "no-equals.cfg").write_text("scenario c\n")
    (tmp_path / "decay-model.cfg").write_text("lambda = 1e-3\n")  # decay mode by default
    argv = [str(tmp_path / arg) if arg.endswith(".cfg") else arg for arg in argv]
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()
    if named is not None:
        assert named in err


def test_seed_only_on_trajectories():
    with pytest.raises(SystemExit) as exc:
        main(["sweep-omega", "--seed", "5"])
    assert exc.value.code == 2
