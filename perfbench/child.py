"""Run one workload in this process and write its timings as JSON.

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --trace 0|1 --src DIR --out DIR

Started by run.py with ``openrabi`` importable from ``--src``.  Runs whole
passes of the workload's CLI commands until ``--seconds`` have elapsed; each
pass writes its CSVs to ``<out>/pass-NNN/``.  With ``--trace 1`` passes
alternate untraced and traced, so the run reports the tracing overhead
against its own untraced passes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import PASS, Tracer, layer_metrics, span_cost_us
from workloads import WORKLOADS

# fixed-cost probe: run_trajectory calls at t_max = 0 per ensemble
_PROBE_CALLS = 300


def _fixed_cost_us(tracer: Tracer) -> float:
    """Per-trajectory cost of run_trajectory at t_max = 0 (set-up, chiefly
    the eigendecomposition of H_eff), weighted over the workload's ensembles."""
    from openrabi.trajectories import run_trajectory, trajectory_seed

    total, weight = 0.0, 0
    for n_traj, (unr, psi0, t_grid, _, base_seed, ops) in tracer.ensembles.items():
        dt = float(t_grid[1] - t_grid[0])
        samples = []
        for i in range(_PROBE_CALLS):
            seed = trajectory_seed(base_seed, i)
            t0 = time.perf_counter()
            run_trajectory(unr, psi0, 0.0, dt, seed, ops)
            samples.append(time.perf_counter() - t0)
        total += n_traj * statistics.median(samples) * 1e6
        weight += n_traj
    return total / weight if weight else 0.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    import openrabi.cli as cli

    if args.src.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"openrabi was imported from {cli.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    commands = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    passes, roots = [], []
    begin = time.perf_counter()
    while True:
        k = len(passes)
        traced = tracer is not None and k % 2 == 1
        pass_dir = args.out / f"pass-{k:03d}"
        pass_dir.mkdir(parents=True)
        if traced:
            tracer.install()
            roots.append(tracer.open(PASS))
        command_s, exits = [], []
        t_pass = time.perf_counter()
        for cmd in commands:
            t0 = time.perf_counter()
            try:
                code = cli.main([*cmd.argv, "--workers", "1", "--out", str(pass_dir / cmd.out)])
            except Exception:  # a crash is a failed operation; the run goes on
                traceback.print_exc()
                code = -1
            command_s.append(time.perf_counter() - t0)
            exits.append(code)
        pass_s = time.perf_counter() - t_pass
        if traced:
            tracer.close(roots[-1])
            tracer.uninstall()
        passes.append({"dir": pass_dir.name, "seconds": pass_s, "traced": traced,
                       "command_s": command_s, "exit": exits})
        if time.perf_counter() - begin >= args.seconds and (tracer is None or len(passes) >= 2):
            break

    result = {
        "workload": args.workload,
        "commands": [" ".join(c.argv) for c in commands],
        "points_per_pass": sum(c.points for c in commands),
        "passes": passes,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, roots)
        layers["trajectories.fixed_us_per_traj"] = (_fixed_cost_us(tracer), "us")
        # pass 0 is the cold first pass and is left out of the comparison
        plain = statistics.median(p["seconds"] for p in passes[2::2] or passes[:1])
        traced_s = statistics.median(p["seconds"] for p in passes if p["traced"])
        layers["trace.overhead_pct"] = (100.0 * (traced_s / plain - 1.0), "%")
        layers["trace.span_us"] = (span_cost_us(), "us")
        result["layers"] = layers
        tracer.write(args.out / "spans.csv")
    (args.out / "child.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
