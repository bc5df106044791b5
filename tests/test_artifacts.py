"""CSV artifacts pinned byte for byte: those of scripts/reproduce_sweeps.py, a
decay and three model-mode jump ensembles, two scenario-a cutoff ladders and
one RWA cutoff-4 point."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import openrabi as orb
from openrabi.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("data") / "reproduce_sweeps.sha256"


def test_reproduce_sweeps_matches_manifest(tmp_path):
    # the manifest holds `sha256sum` lines of the 14 CSVs; any moved byte
    # fails here, and a deliberate change records the new hashes
    src = str(Path(orb.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_sweeps.py"), "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    expected = dict(reversed(line.split()) for line in MANIFEST.read_text().splitlines())
    actual = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in tmp_path.glob("*.csv")}
    assert actual == expected


def _assert_pinned(tmp_path, pin, argv):
    # a pin file holds one `sha256sum` line: the digest and the CSV's name
    digest, name = (MANIFEST.parent / pin).read_text().split()
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_model_mode_ensemble_matches_manifest(tmp_path):
    # the reproduce manifest pins decay mode only; model mode reads the
    # operators of build_hamiltonian and build_dissipators
    _assert_pinned(tmp_path, "trajectories_model.sha256", [
        "trajectories", "--mode", "model", "--scenario", "c", "--cutoff", "1", "--kappa", "0.5",
        "--lambda", "0.5", "--g", "0.3", "--n-traj", "200", "--seed", "7"])


def test_rwa_model_mode_ensemble_matches_manifest(tmp_path):
    # scenario a under the RWA with thermal photons: the raising jumps and
    # the spectator mode's decay, which the scenario-c pin does not reach
    _assert_pinned(tmp_path, "trajectories_model_a_rwa.sha256", [
        "trajectories", "--mode", "model", "--scenario", "a", "--coupling", "rwa", "--nbar", "0.3",
        "--cutoff", "2", "--kappa", "0.5", "--lambda", "0.5", "--g", "0.3", "--n-traj", "200",
        "--seed", "7"])


def test_decay_ensemble_at_cutoff_4_matches_manifest(tmp_path):
    # a decaying cavity at cutoff 4, whose H_eff is diagonal: its eigenvector
    # matrices are the identity, unlike those of the model pins
    _assert_pinned(tmp_path, "trajectories_decay_c4.sha256", [
        "trajectories", "--cutoff", "4", "--kappa", "0.5", "--n-traj", "500", "--seed", "7"])


def test_scenario_d_model_mode_ensemble_matches_manifest(tmp_path):
    # scenario d under full coupling with thermal photons: raising jumps and
    # the spectator atom's decay and dephasing (sigma_z)
    _assert_pinned(tmp_path, "trajectories_model_d.sha256", [
        "trajectories", "--mode", "model", "--scenario", "d", "--nbar", "0.3", "--cutoff", "2",
        "--kappa", "0.5", "--lambda", "0.5", "--g", "0.3", "--n-traj", "200", "--seed", "7"])


def test_cutoff_ladder_matches_manifest(tmp_path):
    # scenario a at cutoffs 1-6, the benchmark's cutoff-ladder command: its
    # cutoffs 3-6 take GMRES, which no reproduce artifact reaches
    _assert_pinned(tmp_path, "cutoff_ladder.sha256",
                   ["convergence", "--scenario", "a", "--cutoff", "1,2,3,4,5,6"])


def test_rwa_cutoff_ladder_matches_manifest(tmp_path):
    # scenario a under the RWA with thermal photons at cutoffs 5-7: cutoff 5
    # takes the band over 23 blocks, near its tie with GMRES, and cutoffs 6-7
    # take GMRES over 27 and 31 blocks, patterns that neither the reproduce
    # artifacts nor the full-coupling ladder reach
    _assert_pinned(tmp_path, "convergence_rwa.sha256", [
        "convergence", "--scenario", "a", "--coupling", "rwa", "--nbar", "0.3", "--cutoff", "5,6,7"])


def test_rwa_cutoff_4_matches_manifest(tmp_path):
    # the same model at cutoff 4: 19 blocks, all on the band, well below the
    # GMRES crossover, so the band over many blocks stays pinned wherever
    # that crossover moves
    _assert_pinned(tmp_path, "convergence_rwa_c4.sha256", [
        "convergence", "--scenario", "a", "--coupling", "rwa", "--nbar", "0.3", "--cutoff", "4"])
