"""Benchmark of the openrabi CLI: three workloads, timed end to end and per layer.

    python3 perfbench/run.py [--workload all|figure-sweeps|cutoff-ladder|jump-ensemble]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of an openrabi source tree.  Each workload runs in a fresh
process of its own (perfbench/child.py) with ``openrabi`` imported from
``src/``.  The output checks of perfbench/checks.py run on every pass's CSVs.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  Run
outputs go to perfbench/out/.

The BLAS thread setting is left as found and recorded with every result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from workloads import MODEL_ENSEMBLE, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5       # fresh interpreters per run; setup_s is their median
RUN_LIMIT_S = 170       # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    def blas(config: dict) -> str:
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def setup_seconds() -> float:
    """Median time from starting a fresh interpreter to ``openrabi.cli``
    imported and its parser built."""
    code = "import openrabi.cli as c; c.build_parser(); print(c.__file__, flush=True)"
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or SRC not in Path(line.strip()).resolve().parents:
            raise BenchError(f"openrabi.cli did not import from {SRC}: {line.strip()!r}")
    return statistics.median(samples)


def run_child(workload: str, seed: int, seconds: float, trace: int, out: Path,
              deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--src", str(SRC), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} process exited with {proc.returncode}")
    return json.loads((out / "child.json").read_text(encoding="utf-8"))


def check_outputs(workload: str, pass_dirs: list[Path]) -> list[str]:
    if workload == "figure-sweeps":
        refs = checks.sweep_references()
        check = lambda d: checks.check_sweeps(d, refs)
    elif workload == "cutoff-ladder":
        ref = checks.null_vector_excitations("a", 1)
        check = lambda d: checks.check_ladder(d, ref)
    else:
        check = lambda d: (
            checks.check_decay(d / "trajectories_decay.csv")
            + checks.check_model_ensemble(d / "trajectories_model.csv",
                                          t_min=checks.MODEL_CHECK_T_MIN, **MODEL_ENSEMBLE))
    errors: list[str] = []
    for d in pass_dirs:
        try:
            errors += check(d)
        except (OSError, ValueError, KeyError) as exc:  # missing or malformed CSV
            errors.append(f"{d.name}: {type(exc).__name__}: {exc}")
    return errors


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    setup_s = None if trace else setup_seconds()
    child = run_child(workload, seed, seconds, trace, out, deadline)
    passes = child["passes"]
    errors = check_outputs(workload, [out / p["dir"] for p in passes])
    attempted = sum(len(p["exit"]) for p in passes)
    failed = sum(code != 0 for p in passes for code in p["exit"])
    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in child["layers"].items()}
    else:
        points = child["points_per_pass"]
        # the first pass runs cold (lazily initialised code paths, first
        # touches of memory); it is checked but not timed when others follow
        timed = passes[1:] or passes
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "points_per_s": {"value": statistics.median(points / p["seconds"] for p in timed),
                             "unit": "points/s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MiB"},
        }
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "check_errors": errors,
              "pass_seconds": [p["seconds"] for p in passes], "result": result}
    (out / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for e in errors[:20]:
        print(f"{workload}: CHECK FAILED: {e}", file=sys.stderr)
    return record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "openrabi" / "cli.py").is_file():
        print(f"error: no openrabi source tree at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("environment " + json.dumps(records[0]["environment"]))
    for rec in records:
        res = rec["result"]
        print(f"{rec['workload']}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} passes={len(rec['pass_seconds'])}")
        for name, m in res["metrics"].items():
            print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if len(records) == 1:
        final = records[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v
                        for r in records for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
