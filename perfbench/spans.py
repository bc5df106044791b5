"""Spans around the public functions of every openrabi layer.

The program is not edited.  ``Tracer.install`` replaces each public function
of each layer module by a timing wrapper, in every ``openrabi`` module
namespace that binds it, so both the CLI and the library's own internal calls
(which look names up in their module globals) go through the wrappers.
``uninstall`` puts the originals back.

A span records name, start, end and parent; spans stay in memory and are
written when the run ends.  A span's self time is its duration minus the
time covered by its children.
"""

from __future__ import annotations

import csv
import functools
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("cli", "models", "hilbert", "liouville", "steady",
          "observables", "analytic", "trajectories")
PASS = "bench.pass"


# what a span keeps of its call's result, per span name
_ATTRS = {
    "liouville.assemble": lambda gen: {"nnz": int(gen.matrix.nnz)},
    "steady.steady_state": lambda res: {
        "method": res.diagnostics["method"],
        "refine_rounds": int(res.diagnostics["refine_rounds"])},
    "trajectories.run_trajectory": lambda rec: {"jumps": len(rec.jump_times)},
}


class Tracer:
    def __init__(self) -> None:
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.attrs: dict[int, dict] = {}
        # latest ensemble_average arguments per ensemble size, for the
        # fixed-cost probe of run_trajectory
        self.ensembles: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        attrs = _ATTRS.get(name)
        is_ensemble = name == "trajectories.ensemble_average"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if attrs is not None:
                self.attrs[idx] = attrs(out)
            if is_ensemble:
                self.ensembles[args[3]] = args
            return out

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"openrabi.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "openrabi" and not modname.startswith("openrabi."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["id", "name", "parent", "start_s", "end_s", "attrs"])
            for i, name in enumerate(self.name):
                attrs = json.dumps(self.attrs[i]) if i in self.attrs else ""
                out.writerow([i, name, self.parent[i], f"{self.start[i]:.9f}",
                              f"{self.end[i]:.9f}", attrs])


def _noop() -> None:
    pass


def span_cost_us(calls: int = 50000) -> float:
    """Cost of one span: a traced no-op call minus a plain one."""
    traced = Tracer()._wrap("bench.noop", _noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    t1 = time.perf_counter()
    for _ in range(calls):
        _noop()
    t2 = time.perf_counter()
    return ((t1 - t0) - (t2 - t1)) / calls * 1e6


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tr: Tracer, passes: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced passes rooted at span ids ``passes``.

    Sums are per pass (median over the traced passes); ``_p50``/``_p90`` are
    percentiles over every call in the traced passes.
    """
    n = len(tr.name)
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0.0] * n          # time covered by each span's children
    traj_child = [0.0] * n     # ... by its run_trajectory children
    last_solve = {}            # convergence_scan span -> its last steady_state span
    for i in range(n):
        p = tr.parent[i]
        if p < 0:
            continue
        child[p] += dur[i]
        if tr.name[i] == "trajectories.run_trajectory":
            traj_child[p] += dur[i]
        elif tr.name[i] == "steady.steady_state" and tr.name[p] == "steady.convergence_scan":
            last_solve[p] = i

    per_pass: list[dict[str, float]] = []
    dense, sparse, traj_us = [], [], []
    bounds = passes + [n]
    for root, stop in zip(bounds, bounds[1:]):
        acc: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            acc[key] = acc.get(key, 0.0) + value

        for i in range(root + 1, stop):
            name = tr.name[i]
            add(name.split(".", 1)[0] + ".self_ms", (dur[i] - child[i]) * 1e3)
            add(name + "#ms", dur[i] * 1e3)
            add(name + "#calls", 1)
            attrs = tr.attrs.get(i, {})
            if name == "liouville.assemble":
                add("liouville.nnz", attrs["nnz"])
            elif name == "steady.steady_state":
                add("steady.refine_rounds", attrs["refine_rounds"])
                dense_path = attrs["method"] == "dense-lu"
                add("steady.dense_solves" if dense_path else "steady.sparse_solves", 1)
                (dense if dense_path else sparse).append(dur[i] * 1e3)
            elif name == "trajectories.run_trajectory":
                add("trajectories.jumps", attrs["jumps"])
                traj_us.append(dur[i] * 1e6)
            elif name == "trajectories.ensemble_average":
                add("trajectories.ensemble_self_ms", (dur[i] - traj_child[i]) * 1e3)
            elif name == "steady.convergence_scan" and i in last_solve:
                add("steady.top_cutoff_ms", dur[last_solve[i]] * 1e3)
            elif name in ("liouville.hamiltonian_superop", "liouville.dissipator_superop"):
                add("liouville.superop_calls", 1)
        acc["trace.spans"] = stop - root - 1
        per_pass.append(acc)

    def med(key: str) -> float:
        return statistics.median(p.get(key, 0.0) for p in per_pass)

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (med(f"{layer}.self_ms"), "ms/pass")
    for metric, span in (
        ("cli.write_csv_ms", "cli.write_csv"),
        ("models.build_hamiltonian_ms", "models.build_hamiltonian"),
        ("models.build_dissipators_ms", "models.build_dissipators"),
        ("hilbert.embed_ms", "hilbert.embed"),
        ("hilbert.partial_trace_ms", "hilbert.partial_trace"),
        ("liouville.assemble_ms", "liouville.assemble"),
        ("observables.report_ms", "observables.report"),
        ("observables.photon_distribution_ms", "observables.photon_distribution"),
        ("analytic.one_photon_ms", "analytic.one_photon_excitations"),
        ("trajectories.unravel_ms", "trajectories.unravel"),
    ):
        out[metric] = (med(span + "#ms"), "ms/pass")
    out["models.build_space_calls"] = (med("models.build_space#calls"), "calls/pass")
    out["hilbert.embed_calls"] = (med("hilbert.embed#calls"), "calls/pass")
    out["liouville.superop_calls"] = (med("liouville.superop_calls"), "calls/pass")
    out["liouville.nnz"] = (med("liouville.nnz"), "nnz/pass")
    out["steady.dense_solves"] = (med("steady.dense_solves"), "solves/pass")
    out["steady.sparse_solves"] = (med("steady.sparse_solves"), "solves/pass")
    out["steady.dense_ms_p50"] = (_percentile(dense, 50), "ms")
    out["steady.dense_ms_p90"] = (_percentile(dense, 90), "ms")
    out["steady.sparse_ms_p50"] = (_percentile(sparse, 50), "ms")
    out["steady.top_cutoff_ms"] = (med("steady.top_cutoff_ms"), "ms/pass")
    out["steady.refine_rounds"] = (med("steady.refine_rounds"), "rounds/pass")
    out["trajectories.trajectories"] = (med("trajectories.run_trajectory#calls"), "traj/pass")
    out["trajectories.jumps"] = (med("trajectories.jumps"), "jumps/pass")
    out["trajectories.traj_us_p50"] = (_percentile(traj_us, 50), "us")
    out["trajectories.ensemble_self_ms"] = (med("trajectories.ensemble_self_ms"), "ms/pass")
    out["trace.spans"] = (med("trace.spans"), "spans/pass")
    return out
