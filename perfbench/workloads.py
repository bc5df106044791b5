"""The benchmark's workloads: the openrabi CLI commands of one pass each.

A pass runs every command of its workload once, serially, in the workload's
own process, each with ``--workers 1``.  ``points`` is the work a command
does, counted the same way on every workload: one per steady-state solve,
and one per trajectory per sample step in the ensemble commands.
"""

from __future__ import annotations

from dataclasses import dataclass

_SCENARIOS = ("bare", "a", "b", "c", "d")

# the order-one rates at which quantum-jump ensembles are validated; the
# dephasing rate follows lambda/4 = 0.125 and omega keeps its default 1.0
MODEL_ENSEMBLE = {"scenario": "c", "cutoff": 1, "omega": 1.0, "g": 0.3,
                  "kappa": 0.5, "lam": 0.5, "gamma": 0.125}
MODEL_TRAJECTORIES = 2000
DECAY_TRAJECTORIES = 10000
DECAY_SEED = 2024          # the seed of scripts/reproduce_sweeps.py
SAMPLE_STEPS = 16          # the trajectories command's default 17 sample times


@dataclass(frozen=True)
class Command:
    out: str               # CSV file name inside the pass directory
    argv: tuple[str, ...]  # arguments after ``openrabi``, without --out/--workers
    points: int


def figure_sweeps(seed: int) -> list[Command]:
    """The steady-state commands of scripts/reproduce_sweeps.py: 228 points."""
    cmds = []
    for s in _SCENARIOS:
        cmds.append(Command(f"sweep_omega_{s}.csv",
                            ("sweep-omega", "--scenario", s, "--cutoff", "1,2"), 13 * 2))
        cmds.append(Command(f"sweep_gamma_{s}.csv",
                            ("sweep-gamma", "--scenario", s, "--cutoff", "1,2"), 4 * 2))
    cmds.append(Command("damping_map.csv", (
        "damping-map", "--scenario", "c",
        "--log-kappa-grid=-7,-6.5,-6,-5.5,-5", "--log-lambda-grid=-7,-6.5,-6,-5.5,-5",
        "--omegas", "0.7,1.0"), 2 * 5 * 5))
    cmds.append(Command("distribution.csv", (
        "distribution", "--scenario", "c", "--kappas", "1e-6,1e-7", "--omegas", "1.0,0.7"), 4))
    cmds.append(Command("convergence.csv", ("convergence", "--cutoff", "1,2,3,4"), 4))
    return cmds


def cutoff_ladder(seed: int) -> list[Command]:
    """Scenario a from Liouvillian 64^2 to 9604^2, across the dense/sparse switch."""
    return [Command("convergence.csv",
                    ("convergence", "--scenario", "a", "--cutoff", "1,2,3,4,5,6"), 6)]


def jump_ensemble(seed: int) -> list[Command]:
    """The decay ensemble of reproduce_sweeps, and a model-mode ensemble on
    scenario c whose trajectory seeds derive from the benchmark seed."""
    m = MODEL_ENSEMBLE
    return [
        Command("trajectories_decay.csv",
                ("trajectories", "--n-traj", str(DECAY_TRAJECTORIES), "--seed", str(DECAY_SEED)),
                DECAY_TRAJECTORIES * SAMPLE_STEPS),
        Command("trajectories_model.csv",
                ("trajectories", "--mode", "model", "--scenario", m["scenario"],
                 "--cutoff", str(m["cutoff"]), "--kappa", str(m["kappa"]),
                 "--lambda", str(m["lam"]), "--g", str(m["g"]),
                 "--n-traj", str(MODEL_TRAJECTORIES), "--seed", str(seed)),
                MODEL_TRAJECTORIES * SAMPLE_STEPS),
    ]


WORKLOADS = {
    "figure-sweeps": figure_sweeps,
    "cutoff-ladder": cutoff_ladder,
    "jump-ensemble": jump_ensemble,
}
