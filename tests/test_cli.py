import csv
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import openrabi as orb
from openrabi import cli
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


def test_sweep_evaluates_each_closed_form_once_per_command(tmp_path, monkeypatch):
    # a sweep's cutoff-1 and cutoff-2 rows share their parameters, and so
    # their closed form: one evaluation per omega.  The same command run
    # again evaluates none, as each is kept for the process
    cli._analytic_reference.cache_clear()
    calls = []
    closed_form = cli.one_photon_excitations

    def spy(params):
        calls.append(params)
        return closed_form(params)

    monkeypatch.setattr(cli, "one_photon_excitations", spy)
    omegas = [0.7, 1.0, 1.3]
    tables = []
    for run in range(2):
        out = tmp_path / f"omega{run}.csv"
        assert main(["sweep-omega", "--omega-grid", "0.7,1.0,1.3", "--cutoff", "1,2",
                     "--out", str(out)]) == 0
        assert [p.omega for p in calls] == omegas
        tables.append(read_rows(out))
    assert tables[0] == tables[1]
    rows = tables[0]
    assert [r["cutoff"] for r in rows] == ["1", "2"] * 3
    for first, second in zip(rows[::2], rows[1::2]):
        assert (first["n1_analytic"], first["e1_analytic"]) == (
            second["n1_analytic"], second["e1_analytic"])


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
    # in its error row, and every other point of the grid still runs
    sweep_blank = ["n_mean", "e_mean", "n1_analytic", "e1_analytic", "i_af"]
    cases = {
        "sweep-omega": (["--omega-grid", "1.0", "--cutoffs", "1", "--gamma-rate", "0"],
                        sweep_blank, 1),
        "sweep-gamma": (["--gamma-grid", "0", "--cutoffs", "1"], sweep_blank, 1),
        "distribution": (["--kappas", "1e-6", "--omegas", "1.0", "--gamma-rate", "0"],
                         ["n", "p_n_steady", "p_n_thermal", "i_af"], 1),
        "convergence": (["--cutoff", "1,2,3", "--gamma-rate", "0"],
                        ["n_mean", "e_mean", "rel_change", "converged"], 3),
    }
    for command, (grid, columns, points) in cases.items():
        out = tmp_path / f"{command}.csv"
        code = main([command, *grid, "--g", "0", "--lambda", "0", "--out", str(out)])
        assert code == 3
        rows = read_rows(out)
        assert len(rows) == points, command
        for row in rows:
            assert "NonUniqueSteadyState" in row["error"]
            filled = [key for key, value in row.items() if value != ""]
            assert filled == [key for key in row if key not in columns], command
    assert [row["cutoff"] for row in rows] == ["1", "2", "3"]


def test_error_text_with_a_comma_keeps_its_row(tmp_path, monkeypatch):
    # numpy's MemoryError text holds a shape, and so a comma
    text = ("Unable to allocate 149. TiB for an array with shape (1000000, 10000000) "
            "and data type complex128")

    def fail(gen):
        raise MemoryError(text)

    monkeypatch.setattr(cli, "steady_states", fail)
    out = tmp_path / "convergence.csv"
    assert main(["convergence", "--cutoff", "1", "--out", str(out)]) == 3
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(rows) == 1 and len(rows[0]) == len(header)
    assert rows[0][header.index("error")] == f"MemoryError: {text}"


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


@pytest.mark.parametrize("args", [
    pytest.param(["sweep-omega", "--omega-grid", "0.8,1.2", "--cutoffs", "1"], id="sweep-omega"),
    pytest.param(["convergence", "--scenario", "c", "--cutoffs", "1,2,3"], id="convergence"),
])
def test_worker_pool_matches_serial(tmp_path, args):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(parallel), "--workers", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_pool_starts_no_more_workers_than_grid_points(tmp_path, monkeypatch):
    # a forked pool starts all of its workers on its first task, so a grid of
    # 2 points with --workers 64 asks for 2, and a grid of 1 point runs
    # serially.  A stand-in executor records the sizes and solves in this
    # process, as the test's own pool
    sizes = []

    class Executor:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Executor)
    monkeypatch.setattr(cli, "_live_pool", None)
    for cutoffs in ("1,2", "1"):
        out = tmp_path / f"{len(cutoffs)}.csv"
        assert main(["convergence", "--scenario", "c", "--cutoffs", cutoffs, "--workers", "64",
                     "--out", str(out)]) == 0
        assert len(read_rows(out)) == len(cutoffs.split(","))
    assert sizes == [2]


def _child_env():
    # the child imports the same openrabi as this process, installed or not
    src = str(Path(orb.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_commands_share_one_worker_pool_and_leave_no_worker(tmp_path):
    # two --workers 2 commands in one child process run on the same two
    # workers; the child exits at once and no worker outlives it
    code = textwrap.dedent("""
        import multiprocessing, sys
        from openrabi import cli
        pids = []
        for k in (1, 2):
            code = cli.main(["sweep-omega", "--omega-grid", "0.8,1.2", "--cutoffs", "1",
                             "--workers", "2", "--out", sys.argv[1] + f"/{k}.csv"])
            assert code == 0, code
            pids.append(sorted(p.pid for p in multiprocessing.active_children()))
        assert pids[0] == pids[1] and len(pids[0]) == 2, pids
        print(*pids[0])
    """)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()
    for pid in map(int, proc.stdout.split()):
        deadline = time.monotonic() + 10
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)   # an orphan that exited waits to be reaped
        assert not _alive(pid), f"worker {pid} outlived its process"


def test_one_pool_per_process_grows_to_the_largest_request(tmp_path):
    # in one child process, --workers 3 on a 2-point grid starts 2 workers; on
    # a 3-point grid those stop and 3 start; a 2-point grid then runs on the
    # 3.  Each table equals its serial run
    code = textwrap.dedent("""
        import multiprocessing, sys
        from openrabi import cli
        def run(omegas, workers, name):
            code = cli.main(["sweep-omega", "--omega-grid", omegas, "--cutoffs", "1",
                             "--workers", str(workers), "--out", sys.argv[1] + f"/{name}.csv"])
            assert code == 0, code
            return sorted(p.pid for p in multiprocessing.active_children())
        two = run("0.8,1.2", 3, "two")
        three = run("0.8,1.0,1.2", 3, "three")
        again = run("0.8,1.2", 3, "again")
        assert len(two) == 2 and len(three) == 3 and again == three, (two, three, again)
        assert not set(two) & set(three), (two, three)
        run("0.8,1.2", 1, "two_serial")
        run("0.8,1.0,1.2", 1, "three_serial")
    """)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    serial = {n: (tmp_path / f"{n}_serial.csv").read_bytes() for n in ("two", "three")}
    assert (tmp_path / "two.csv").read_bytes() == serial["two"]
    assert (tmp_path / "again.csv").read_bytes() == serial["two"]
    assert (tmp_path / "three.csv").read_bytes() == serial["three"]


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_pool_initializer_sets_one_blas_thread():
    # in a child process, so that this one keeps its thread count: each
    # bundled OpenBLAS found reads back one thread, and where both are found,
    # after BLAS and LAPACK calls the process runs no thread besides its own
    code = textwrap.dedent("""
        import ctypes, importlib, json, os, pathlib
        import numpy as np, scipy.linalg
        from openrabi import cli
        cli._one_blas_thread()
        a = np.random.default_rng(0).random((300, 300))
        scipy.linalg.lu_factor(a @ a)
        counts = []
        for package, pattern, setter in cli._OPENBLAS:
            site = pathlib.Path(importlib.import_module(package).__file__).parents[1]
            for path in (site / f"{package}.libs").glob(pattern):
                get = getattr(ctypes.CDLL(str(path)), setter.replace("_set_", "_get_"), None)
                if get is not None:
                    get.restype = ctypes.c_int
                    counts.append(get())
        tasks = "/proc/self/task"
        threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
        print(json.dumps({"counts": counts, "threads": threads}))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    if not found["counts"]:
        pytest.skip("no bundled OpenBLAS in this install")
    assert found["counts"] == [1] * len(found["counts"])
    if len(found["counts"]) == len(cli._OPENBLAS) and found["threads"] is not None:
        assert found["threads"] == 1


@pytest.mark.parametrize("threads", [None, "2"])
def test_main_runs_one_blas_thread_unless_the_count_is_set(tmp_path, threads):
    # in a child process: after a command, each bundled OpenBLAS found reads
    # back one thread; with OPENBLAS_NUM_THREADS set, the count it started with
    code = textwrap.dedent("""
        import ctypes, importlib, json, pathlib, sys
        from openrabi import cli
        getters = []
        for package, pattern, setter in cli._OPENBLAS:
            site = pathlib.Path(importlib.import_module(package).__file__).parents[1]
            for path in (site / f"{package}.libs").glob(pattern):
                get = getattr(ctypes.CDLL(str(path)), setter.replace("_set_", "_get_"), None)
                if get is not None:
                    get.restype = ctypes.c_int
                    getters.append(get)
        before = [get() for get in getters]
        assert cli.main(["convergence", "--cutoff", "1", "--out", sys.argv[1]]) == 0
        print(json.dumps({"before": before, "after": [get() for get in getters]}))
    """)
    env = {k: v for k, v in _child_env().items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out.csv")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    if not found["after"]:
        pytest.skip("no bundled OpenBLAS in this install")
    if threads is None:
        assert found["after"] == [1] * len(found["after"])
    else:
        assert found["after"] == found["before"]
        if (os.cpu_count() or 1) >= 2:
            assert found["after"] == [2] * len(found["after"])


def test_console_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "openrabi.cli", "sweep-omega",
         "--omega-grid", "1.0", "--cutoffs", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_import_leaves_integrators_unloaded():
    # the CLI and the library load neither scipy.integrate nor scipy.optimize,
    # and the order of the steady-state LU loads scipy.sparse.csgraph only
    # when a solve needs it
    code = ("import sys, openrabi.cli; openrabi.cli.build_parser(); "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', "
            "'scipy.sparse.csgraph') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# (command, option) pairs whose value the command's grid sets
_GRID_SET = [("sweep-omega", "omega"), ("sweep-gamma", "gamma-rate"), ("damping-map", "omega"),
             ("damping-map", "kappa"), ("damping-map", "lambda"), ("distribution", "omega"),
             ("distribution", "kappa")]


@pytest.mark.parametrize("argv, named", [
    pytest.param(["sweep-omega", "--config", "bad.cfg"], "'omeega'", id="unknown-key"),
    pytest.param(["sweep-omega", "--config", "not-taken.cfg"], "'cutoff'", id="key-not-taken"),
    pytest.param(["sweep-omega", "--config", "bad-cast.cfg"], "'cutoffs'", id="bad-cast"),
    pytest.param(["sweep-omega", "--config", "no-equals.cfg"], None, id="no-equals"),
    pytest.param(["sweep-omega", "--config", "missing.cfg"], None, id="missing-config"),
    pytest.param(["trajectories", "--points", "1"], None, id="one-point"),
    pytest.param(["trajectories", "--kappa", "nan"], "rate must be finite", id="decay-nan-kappa"),
    pytest.param(["trajectories", "--kappa", "inf"], "rate must be finite", id="decay-inf-kappa"),
    pytest.param(["trajectories", "--t-max", "nan"], "t_max", id="nan-t-max"),
    pytest.param(["trajectories", "--t-max", "inf"], "t_max", id="inf-t-max"),
    pytest.param(["trajectories", "--t-max", "0"], "--t-max", id="zero-t-max"),
    pytest.param(["trajectories", "--seed", "-1"], "seed", id="negative-seed"),
    pytest.param(["trajectories", "--cutoff", "0"], "cutoff", id="decay-cutoff-zero"),
    pytest.param(["sweep-omega", "--omega-grid="], None, id="empty-omega-grid"),
    pytest.param(["distribution", "--kappas="], None, id="empty-kappas"),
    pytest.param(["sweep-gamma", "--gamma-grid=-1e-6,1e-6"], None, id="negative-gamma"),
    pytest.param(["sweep-omega", "--kappa", "nan"], None, id="nan-kappa"),
    pytest.param(["sweep-omega", "--kappa", "abc"], "--kappa", id="bad-kappa-flag"),
    pytest.param(["sweep-omega", "--scenario", "z"], "--scenario", id="bad-scenario-flag"),
    pytest.param(["convergence", "--cutoff", "1,x"], "--cutoff", id="bad-cutoffs-flag"),
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
    pytest.param(["sweep-omega", "--seed", "5"], "--seed", id="seed-not-taken"),
    pytest.param(["sweep-omega", "--kappa"], "--kappa", id="flag-without-value"),
    pytest.param([], "command", id="no-command"),
    pytest.param(["bogus"], "'bogus'", id="unknown-command"),
    *[pytest.param([command, f"--{flag}", "0.5"], f"--{flag}", id=f"{command}-{flag}-flag")
      for command, flag in _GRID_SET],
    *[pytest.param([command, "--config", f"{flag}.cfg"], repr(flag.replace("-", "_")),
                   id=f"{command}-{flag}-config")
      for command, flag in _GRID_SET],
])
def test_unknown_config_key_reports_error(tmp_path, capsys, argv, named):
    # every configuration error: exit 2, one error line, no traceback, no CSV
    (tmp_path / "bad.cfg").write_text("omeega = 1.0\n")
    (tmp_path / "not-taken.cfg").write_text("cutoff = 3\n")  # sweep-omega takes cutoffs
    (tmp_path / "bad-cast.cfg").write_text("cutoffs = 1,x\n")
    (tmp_path / "no-equals.cfg").write_text("scenario c\n")
    (tmp_path / "decay-model.cfg").write_text("lambda = 1e-3\n")  # decay mode by default
    for flag in ("omega", "gamma-rate", "kappa", "lambda"):
        (tmp_path / f"{flag}.cfg").write_text(f"{flag} = 0.5\n")
    argv = [str(tmp_path / arg) if arg.endswith(".cfg") else arg for arg in argv]
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()
    if named is not None:
        assert named in err


def test_trajectory_solver_failure_reports_error(tmp_path, capsys):
    # a step so long that the norm decays past any jump: exit 3, one line, no CSV
    out = tmp_path / "x.csv"
    assert main(["trajectories", "--points", "2", "--t-max", "1e308", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: norm decayed with no open jump channel\n"
    assert not out.exists()
