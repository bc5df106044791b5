#!/usr/bin/env python3
"""Regenerate the four figure-style CSV datasets plus the convergence table.

Writes into --outdir (default results/):

  sweep_omega_<scenario>.csv   excitations vs atomic frequency, every scenario
  sweep_gamma_<scenario>.csv   excitations vs dephasing rate, every scenario
  damping_map.csv              total excitation over a (kappa, lambda) log grid
  distribution.csv             cavity photon distribution vs thermal reference
  convergence.csv              cutoff convergence table at resonance

All runs use the default rate set kappa = lambda = 1e-6, gamma = lambda/4,
g = 0.05 at zero reservoir temperature.
"""

import argparse
import sys
from pathlib import Path

from openrabi.cli import main as cli


def run(argv):
    print("  openrabi " + " ".join(argv))
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    workers = ["--workers", str(args.workers)]

    for scenario in ("bare", "a", "b", "c", "d"):
        run(["sweep-omega", "--scenario", scenario, "--cutoff", "1,2",
             "--out", str(outdir / f"sweep_omega_{scenario}.csv")] + workers)
        run(["sweep-gamma", "--scenario", scenario, "--cutoff", "1,2",
             "--out", str(outdir / f"sweep_gamma_{scenario}.csv")] + workers)

    run(["damping-map", "--scenario", "c",
         "--log-kappa-grid=-7,-6.5,-6,-5.5,-5",
         "--log-lambda-grid=-7,-6.5,-6,-5.5,-5",
         "--omegas", "0.7,1.0", "--out", str(outdir / "damping_map.csv")] + workers)

    run(["distribution", "--scenario", "c", "--kappas", "1e-6,1e-7",
         "--omegas", "1.0,0.7", "--out", str(outdir / "distribution.csv")] + workers)

    run(["convergence", "--cutoff", "1,2,3,4",
         "--out", str(outdir / "convergence.csv")] + workers)

    run(["trajectories", "--n-traj", "10000", "--seed", "2024",
         "--out", str(outdir / "trajectories.csv")])

    print(f"done; artifacts in {outdir}/")


if __name__ == "__main__":
    main()
