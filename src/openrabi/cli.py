"""Command-line interface writing figure-style parameter sweeps as CSV.

``sweep-omega``, ``sweep-gamma``, ``damping-map``, ``distribution`` and
``convergence`` are grids of steady-state solves run by one engine,
``_run_grid``; ``trajectories`` has a runner of its own.  Every option is
declared once in ``_OPTIONS``, which drives the parser, the casts and checks
of flag and config values alike, and the defaults.  A config file
(``--config``) holds flat ``key = value`` lines with ``#`` comments; flags
override it.

CSV artifacts use a header row, 12 significant digits and LF line endings,
and are byte-for-byte deterministic for a fixed configuration and seed.
Exit codes: 0 on success; 2 on a configuration error (one ``error:`` line,
no CSV written); 3 when the solver failed at some grid points, each recorded
in the ``error`` column while the remaining rows still run, or when the
trajectory ensemble failed (one ``error:`` line, no CSV written).
"""

from __future__ import annotations

import argparse
import atexit
import csv
import ctypes
import importlib
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from pathlib import Path
from typing import Callable, NamedTuple, NoReturn

import numpy as np

from .analytic import one_photon_excitations, thermal_distribution
from .hilbert import VALIDITY_TOL, Boson, CompositeSpace, annihilation, basis_ket, number
from .liouville import LindbladTerm
from .models import (
    SCENARIOS,
    Coupling,
    ModelSpec,
    RabiParams,
    batch_size,
    build_dissipators,
    build_hamiltonian,
    build_liouvillians,
    build_space,
    excitation_operator,
    scenario_parasitic,
)
from .observables import ObservableReport, reports
from .steady import steady_states
from .trajectories import StepSizeUnderflowError, ensemble_average, unravel

_FLOAT_FMT = "{:.11e}"
# rel_change = |n_c - n_{c-1}| / n_c cancels about 4 of the 12 digits the
# means carry, so it is printed with the 8 that are true
_REL_CHANGE_FMT = "{:.7e}"


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` file; ``#`` starts a comment; keys normalized to _."""
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip().lower().replace("-", "_")] = value.strip()
    return cfg


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _FLOAT_FMT.format(float(value))
    return str(value)


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Quotes only a field that holds a comma, a quote or a line break, such
    as an error text."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


@dataclass(frozen=True)
class _Option:
    """One option: its flags, its cast and choices (flag and config value
    alike), its help and its default; ``None`` means unset."""

    flags: tuple[str, ...]
    cast: Callable[[str], object]
    help: str
    default: object = None
    choices: tuple[str, ...] | None = None


_OPTIONS = {
    "out": _Option(("--out",), str, "output CSV path"),
    "scenario": _Option(("--scenario",), str, "spectator configuration", "bare",
                        tuple(SCENARIOS)),
    "coupling": _Option(("--coupling",), str, "coupling form", "full",
                        tuple(c.value for c in Coupling)),
    "omega": _Option(("--omega",), float, "atomic transition frequency", 1.0),
    "g": _Option(("--g",), float, "atom-field coupling constant", 0.05),
    "kappa": _Option(("--kappa",), float, "cavity relaxation rate", 1e-6),
    "lam": _Option(("--lambda",), float, "atomic relaxation rate", 1e-6),
    "gamma_rate": _Option(("--gamma-rate",), float, "pure dephasing rate (defaults to lambda/4)"),
    "nbar": _Option(("--nbar",), float, "reservoir mean photon number (experimental)", 0.0),
    "seed": _Option(("--seed",), int, "base seed of the trajectory ensemble", 1234),
    "workers": _Option(("--workers",), int, "worker processes for grid points", 1),
    "cutoffs": _Option(("--cutoff", "--cutoffs"), _ints, "comma-separated Fock cutoffs", (1, 2)),
    "cutoff": _Option(("--cutoff",), int, "Fock cutoff per mode", 2),
    "omega_grid": _Option(("--omega-grid",), _floats, "comma-separated atomic frequencies",
                          tuple(round(x, 6) for x in np.linspace(0.7, 1.3, 13))),
    "gamma_grid": _Option(("--gamma-grid",), _floats, "comma-separated dephasing rates",
                          (0.0, 2.5e-7, 1e-6, 4e-6)),
    "log_kappa_grid": _Option(("--log-kappa-grid",), _floats, "comma-separated log10 kappa values",
                              (-7.0, -6.5, -6.0, -5.5, -5.0)),
    "log_lambda_grid": _Option(("--log-lambda-grid",), _floats,
                               "comma-separated log10 lambda values", (-7.0, -6.5, -6.0, -5.5, -5.0)),
    "omegas": _Option(("--omegas",), _floats, "comma-separated atomic frequencies", (0.7, 1.0)),
    "kappas": _Option(("--kappas",), _floats, "comma-separated cavity relaxation rates",
                      (1e-6, 1e-7)),
    "mode": _Option(("--mode",), str, "decay: damped cavity from |1>; model: the scenario",
                    "decay", ("decay", "model")),
    "t_max": _Option(("--t-max",), float, "last sample time", 4.0),
    "points": _Option(("--points",), int, "number of sample times (>= 2)", 17),
    "n_traj": _Option(("--n-traj",), int, "number of trajectories", 2000),
}

#: options every subcommand takes; each command adds its own in ``_Command.options``
_COMMON = ("out", "scenario", "coupling", "g", "nbar", "workers")
#: the options that describe the model, which ``trajectories --mode decay`` does
#: not read: it damps a lone cavity at ``--kappa``
_MODEL_OPTIONS = ("scenario", "coupling", "omega", "g", "lam", "gamma_rate", "nbar")


def _spec(o: argparse.Namespace, cutoff: int, **point: float) -> ModelSpec:
    """The model at one point: ``point`` holds the parameters the grid sets and
    the command's options the others (a command takes no option its grid sets).

    Dephasing follows lam/4 at the point unless ``--gamma-rate`` fixes it.
    """
    p = {key: value for key, value in vars(o).items()
         if key in ("omega", "g", "kappa", "lam", "nbar")} | point
    if "gamma" not in p:
        p["gamma"] = p["lam"] / 4.0 if o.gamma_rate is None else o.gamma_rate
    return ModelSpec(params=RabiParams(**p), cutoff=cutoff, coupling=Coupling(o.coupling),
                     parasitic=scenario_parasitic(o.scenario))


def _solve_batch(specs: list[ModelSpec]) -> list[tuple[ObservableReport | None, str]]:
    """Observables of the steady state at each point of one model structure,
    or its error text, built, solved and reported as one batch."""
    gens = build_liouvillians(specs)
    outcomes = steady_states(gens)
    solved = [outcome.rho for outcome in outcomes if not isinstance(outcome, Exception)]
    reps = iter(reports(np.stack(solved), gens[0].space) if solved else [])
    return [(None, f"{type(outcome).__name__}: {outcome}") if isinstance(outcome, Exception)
            else (next(reps), "") for outcome in outcomes]


def _solve_all(specs: list[ModelSpec]) -> list[tuple[ObservableReport | None, str]]:
    """Observables of the steady state at each grid point, or its error text.
    The points of one model structure go through ``_solve_batch`` in batches
    of about ``batch_size`` points, cut evenly; each point's numbers and
    error are those it has alone."""
    results: list = [None] * len(specs)
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.parasitic, spec.coupling, spec.cutoff), []).append(i)
    for members in groups.values():
        try:
            runs = -(-len(members) // batch_size(specs[members[0]]))
            for batch in np.array_split(members, runs):
                for i, result in zip(batch, _solve_batch([specs[i] for i in batch])):
                    results[i] = result
        except Exception as exc:  # per-row error reporting keeps the sweep going
            for i in members:
                if results[i] is None:
                    results[i] = (None, f"{type(exc).__name__}: {exc}")
    return results


#: the OpenBLAS copies bundled with numpy and scipy (the banded LU calls scipy's):
#: package, library file pattern in ``<package>.libs``, thread-count setter
_OPENBLAS = (("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
             ("scipy", "libscipy_openblas-*.so", "scipy_openblas_set_num_threads"))


def _one_blas_thread() -> None:
    """One thread in each bundled OpenBLAS: the pool workers' initializer, so
    that the workers do not oversubscribe the cores, and ``_serial_blas``'s
    setting for the calling process.  In a forked worker, setting
    the count restarts the library's thread pool, whose idle threads then spin
    for ~0.1 s of CPU each, so the pool is shut down again; with one thread
    the library does not restart it.  It finds the libraries by the layout of
    the numpy and scipy pip wheels (a ``<package>.libs`` directory beside the
    package) and calls them by OpenBLAS's exported names, the shutdown being
    its internal ``blas_thread_shutdown_``; a library or function that is not
    found, as in other installs, is skipped."""
    for package, pattern, setter in _OPENBLAS:
        site = Path(importlib.import_module(package).__file__).parents[1]
        for path in (site / f"{package}.libs").glob(pattern):
            lib = ctypes.CDLL(str(path))
            set_threads = getattr(lib, setter, None)
            if set_threads is None:
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
            shutdown = getattr(lib, "blas_thread_shutdown_", None)
            if shutdown is not None:
                shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                shutdown()


@cache
def _serial_blas() -> None:
    """One BLAS thread in this process as well, set once, unless
    ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` sets the count.  numpy and
    scipy each bundle an OpenBLAS whose idle threads busy-wait, and with the
    default count on each the two pools contend for the cores: on 2 cores the
    scenario-``a`` cutoff ladder ran at half the speed of one thread each."""
    if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        _one_blas_thread()


#: the process's one worker pool and its number of workers, once started
_live_pool: tuple[ProcessPoolExecutor, int] | None = None


def _pool(workers: int) -> ProcessPoolExecutor:
    """The process's one pool, of at least ``workers`` workers.  It is started
    on first use and serves every later command that asks for no more
    workers, so that each worker keeps the model and solver caches it built;
    a command that asks for more shuts it down and starts a larger one.  The
    pool is shut down at exit."""
    global _live_pool
    if _live_pool is None or _live_pool[1] < workers:
        if _live_pool is not None:
            _live_pool[0].shutdown()
        _live_pool = (ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread),
                      workers)
    return _live_pool[0]


@atexit.register
def _shutdown_pool() -> None:
    if _live_pool is not None:
        _live_pool[0].shutdown()


def _run_grid(header: tuple[str, ...], points: Callable, rows: Callable,
              o: argparse.Namespace) -> int:
    """The grid engine.  ``points(o)`` gives (key columns, spec) pairs, all built
    (and so validated) before any solve; ``rows(solved)`` gives the CSV rows of
    the whole solved grid, a list of (key columns, spec, report or ``None``,
    error text)."""
    grid = points(o)
    specs = [spec for _, spec in grid]
    # no more workers than points: a forked pool starts every worker on its first task
    workers = min(o.workers, len(specs))
    if workers <= 1:
        results = _solve_all(specs)
    else:
        # one contiguous share of the grid per worker, solved as batches: two
        # messages per worker, not two per point
        share = -(-len(specs) // workers)
        results = [result for part in _pool(workers).map(
            _solve_all, [specs[i:i + share] for i in range(0, len(specs), share)])
                   for result in part]
    solved = [(keys, spec, *result) for (keys, spec), result in zip(grid, results)]
    write_csv(o.out, list(header), rows(solved))
    return 3 if any(error for _, error in results) else 0


def _per_point(rows: Callable, solved: list) -> list[list]:
    """The table of a grid whose rows depend on their own point alone:
    ``rows(spec, report or None)`` gives the CSV rows of one point, which go
    between its key columns and its error text."""
    return [[*keys, *row, error] for keys, spec, rep, error in solved for row in rows(spec, rep)]


def _clamp_tiny_negative(value: float) -> float:
    """Excitation numbers are non-negative; eigenvalue noise within the
    positivity tolerance ``VALIDITY_TOL`` is clamped to zero in the artifacts."""
    return 0.0 if -VALIDITY_TOL < value < 0.0 else value


def _means(rep: ObservableReport) -> tuple[float, float]:
    return _clamp_tiny_negative(rep.n_mean["cavity"]), _clamp_tiny_negative(rep.e_mean["atom"])


@lru_cache(maxsize=256)
def _analytic_reference(params: RabiParams,
                        coupling: Coupling) -> tuple[float | None, float | None]:
    """Closed-form one-photon reference for the bare model at these parameters.

    Zero under the rotating-wave approximation (no anti-rotating term, no
    excitation); undefined at finite reservoir temperature.  Each is
    evaluated once per process: the sweeps of every scenario share their
    parameters, and so their closed forms.
    """
    if params.nbar != 0:
        return None, None
    if coupling is Coupling.RWA:
        return 0.0, 0.0
    try:
        ref = one_photon_excitations(params)
    except ValueError:
        return None, None
    return ref.n_mean, ref.e_mean


def _sweep_points(axis: str, o: argparse.Namespace) -> list:
    """A one-parameter sweep of ``axis`` (omega or gamma) times the cutoffs."""
    return [((o.scenario, x, cutoff), _spec(o, cutoff, **{axis: x}))
            for x in getattr(o, f"{axis}_grid") for cutoff in o.cutoffs]


def _sweep_rows(solved: list) -> list[list]:
    """The table of a sweep, with the closed forms of each point's parameters
    and coupling."""
    return [[*keys, *((None, None) if rep is None else _means(rep)),
             *_analytic_reference(spec.params, spec.coupling),
             None if rep is None else rep.i_af, error] for keys, spec, rep, error in solved]


def _exp10(key: str, log10: float) -> float:
    """10**log10; a value too large for a float is a configuration error of ``key``."""
    try:
        return 10.0**log10
    except OverflowError:
        raise ValueError(f"{key}: 10**{log10} overflows a float") from None


def _damping_points(o: argparse.Namespace) -> list:
    return [((omega, lk, ll), _spec(o, o.cutoff, omega=omega, kappa=_exp10("log_kappa_grid", lk),
                                    lam=_exp10("log_lambda_grid", ll)))
            for omega in o.omegas for lk in o.log_kappa_grid for ll in o.log_lambda_grid]


def _damping_rows(spec: ModelSpec, rep: ObservableReport | None) -> list[list]:
    if rep is None:
        return [[None]]
    n, e = _means(rep)
    total = n + e
    return [[math.log10(total) if total > 0 else None]]


def _distribution_points(o: argparse.Namespace) -> list:
    return [((kappa, omega), _spec(o, o.cutoff, omega=omega, kappa=kappa))
            for kappa in o.kappas for omega in o.omegas]


def _distribution_rows(spec: ModelSpec, rep: ObservableReport | None) -> list[list]:
    if rep is None:
        return [[None, None, None, None]]
    dist = [_clamp_tiny_negative(p) for p in rep.distributions["cavity"]]
    thermal = thermal_distribution(_means(rep)[0], spec.cutoff)
    return [[n, dist[n], thermal[n], rep.i_af] for n in range(spec.cutoff + 1)]


def _cmd_trajectories(o: argparse.Namespace) -> int:
    if o.points < 2:
        raise ValueError(f"points must be >= 2, got {o.points}")
    if not (math.isfinite(o.t_max) and o.t_max > 0):
        raise ValueError(f"--t-max (t_max) must be finite and > 0, got {o.t_max}")
    t_grid = np.arange(o.points) * (o.t_max / (o.points - 1))
    if o.mode == "decay":
        # single damped mode from |1>: the ensemble mean follows exp(-kappa t)
        if o.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {o.cutoff}")
        space = CompositeSpace((Boson(o.cutoff, "cavity"),))
        h = number(o.cutoff)
        terms = [LindbladTerm(annihilation(o.cutoff), o.kappa)]
        psi0 = basis_ket(space, [1])
        operators = (number(o.cutoff),)
    else:
        spec = _spec(o, o.cutoff)
        space = build_space(spec)
        h = build_hamiltonian(spec)
        terms = build_dissipators(spec)
        psi0 = basis_ket(space, [0] * len(space.dims))
        operators = (excitation_operator(space, "cavity"), excitation_operator(space, "atom"))
    try:
        ens = ensemble_average(unravel(h, terms, space), psi0, t_grid, o.n_traj, o.seed, operators)
    except StepSizeUnderflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    columns = {"time": t_grid, "mean_n": ens.mean[0], "stderr_n": ens.stderr[0]}
    if o.mode == "decay":
        columns["exact"] = np.exp(-o.kappa * t_grid)
    else:
        columns.update(mean_e=ens.mean[1], stderr_e=ens.stderr[1])
    write_csv(o.out, list(columns), [list(row) for row in zip(*columns.values())])
    return 0


def _convergence_points(o: argparse.Namespace) -> list:
    if any(b <= a for a, b in zip(o.cutoffs, o.cutoffs[1:])):
        raise ValueError(f"cutoffs must be strictly ascending, got {list(o.cutoffs)}")
    return [((cutoff,), _spec(o, cutoff)) for cutoff in o.cutoffs]


def _convergence_rows(solved: list) -> list[list]:
    """Per cutoff the means, and rel_change = |n_c - n_prev| / n_c against the
    row before, which is converged below 1%; blank after a first or failed row."""
    table, prev_n = [], None
    for keys, _, rep, error in solved:
        if rep is None:
            table.append([*keys, None, None, None, None, error])
            prev_n = None
            continue
        n, e = _means(rep)
        change = None if prev_n is None else abs(n - prev_n) / max(abs(n), 1e-300)
        table.append([*keys, n, e, None if change is None else _REL_CHANGE_FMT.format(change),
                      change is not None and change < 0.01, error])
        prev_n = n
    return table


class _Command(NamedTuple):
    help: str
    options: tuple[str, ...]   # taken in addition to _COMMON
    defaults: dict             # overrides of the option defaults
    run: Callable[[argparse.Namespace], int]


def _sweep(axis: str, help: str, scalars: tuple[str, ...]) -> _Command:
    header = ("scenario", axis, "cutoff", "n_mean", "e_mean", "n1_analytic", "e1_analytic",
              "i_af", "error")
    return _Command(help, (f"{axis}_grid", "cutoffs", *scalars), {"out": f"sweep_{axis}.csv"},
                    partial(_run_grid, header, partial(_sweep_points, axis), _sweep_rows))


_COMMANDS = {
    "sweep-omega": _sweep("omega", "excitations vs atomic frequency",
                          ("kappa", "lam", "gamma_rate")),
    "sweep-gamma": _sweep("gamma", "excitations vs dephasing rate", ("omega", "kappa", "lam")),
    "damping-map": _Command(
        "total excitation over a (kappa, lambda) log grid",
        ("cutoff", "log_kappa_grid", "log_lambda_grid", "omegas", "gamma_rate"),
        {"scenario": "c", "out": "damping_map.csv"},
        partial(_run_grid,
                ("omega", "log10_kappa", "log10_lambda", "log10_total_excitation", "error"),
                _damping_points, partial(_per_point, _damping_rows))),
    "distribution": _Command(
        "photon distribution vs thermal reference",
        ("cutoff", "kappas", "omegas", "lam", "gamma_rate"),
        {"scenario": "c", "omegas": (1.0, 0.7), "out": "distribution.csv"},
        partial(_run_grid, ("kappa", "omega", "n", "p_n_steady", "p_n_thermal", "i_af", "error"),
                _distribution_points, partial(_per_point, _distribution_rows))),
    "trajectories": _Command(
        "quantum-jump ensemble validation run",
        ("mode", "cutoff", "t_max", "points", "n_traj", "seed", "omega", "kappa", "lam",
         "gamma_rate"),
        {"cutoff": 1, "kappa": 1.0, "out": "trajectories.csv"}, _cmd_trajectories),
    "convergence": _Command(
        "steady-state observables per Fock cutoff",
        ("cutoffs", "omega", "kappa", "lam", "gamma_rate"),
        {"cutoffs": (1, 2, 3), "out": "convergence.csv"},
        partial(_run_grid, ("cutoff", "n_mean", "e_mean", "rel_change", "converged", "error"),
                _convergence_points, _convergence_rows)),
}


class _Parser(argparse.ArgumentParser):
    """Its errors, and its subparsers', are configuration errors: ``main``
    prints one ``error:`` line where argparse would print the usage and exit."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="openrabi",
        description="Steady-state excitation sweeps of the lossy Rabi model",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        # no abbreviations: --omega must not be read as --omega-grid or --omegas
        sub = subparsers.add_parser(name, help=command.help, allow_abbrev=False)
        sub.add_argument("--config", help="flat key = value config file")
        # values stay text here: resolve_config casts and checks them as it
        # does config values
        for key in _COMMON + command.options:
            opt = _OPTIONS[key]
            sub.add_argument(*opt.flags, dest=key, help=opt.help,
                             metavar="{" + ",".join(opt.choices) + "}" if opt.choices else None)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: parsing leaves it as it was."""
    return build_parser()


def _cast(key: str, value: str, name: str) -> object:
    """``value`` of option ``key``, cast and checked against its choices; a bad
    value is a configuration error naming ``name``, its flag or config key."""
    opt = _OPTIONS[key]
    if opt.choices and value not in opt.choices:
        raise ValueError(f"{name}: {value!r} is not one of {list(opt.choices)}")
    try:
        return opt.cast(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def resolve_config(args: argparse.Namespace, cfg: dict[str, str], command: str) -> argparse.Namespace:
    """Merge option defaults, per-command defaults, config-file values and
    flags (flags win), casting and checking config and flag values alike, and
    check that every config key is an option of the command, that no grid is
    empty, that ``workers`` is at least 1 and that ``trajectories --mode
    decay`` is given no model option.  The parameter values themselves are
    checked by ``RabiParams`` and ``ModelSpec`` as the specs are built."""
    cmd = _COMMANDS[command]
    keys = _COMMON + cmd.options
    merged = {key: _OPTIONS[key].default for key in keys}
    merged.update(cmd.defaults)
    given = set()   # keys set by the config file or a flag
    for name, value in cfg.items():
        key = "lam" if name == "lambda" else name
        if key not in keys:
            raise ValueError(f"config key {name!r} is not an option of {command}")
        merged[key] = _cast(key, value, f"config key {name!r}")
        given.add(key)
    for key, value in vars(args).items():
        if key in keys and value is not None:
            merged[key] = _cast(key, value, _OPTIONS[key].flags[0])
            given.add(key)
    if command == "trajectories" and merged["mode"] == "decay":
        model = [_OPTIONS[key].flags[0] for key in _MODEL_OPTIONS if key in given]
        if model:
            raise ValueError(f"trajectories --mode decay takes no model options, got "
                             f"{', '.join(model)}")
    for key in keys:
        if _OPTIONS[key].cast in (_floats, _ints) and not merged[key]:
            raise ValueError(f"{key} must not be empty")
    if merged["workers"] < 1:
        raise ValueError(f"workers must be >= 1, got {merged['workers']}")
    return argparse.Namespace(**merged)


def main(argv: list[str] | None = None) -> int:
    try:
        args, extra = _parser().parse_known_args(argv)
        if extra:
            raise ValueError(f"{args.command}: unrecognized arguments: {' '.join(extra)}")
        cfg = parse_config_file(args.config) if args.config else {}
        config = resolve_config(args, cfg, args.command)
        _serial_blas()
        return _COMMANDS[args.command].run(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
