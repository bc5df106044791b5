"""Command-line interface writing figure-style parameter sweeps as CSV.

``sweep-omega``, ``sweep-gamma``, ``damping-map`` and ``distribution`` are
grids of steady-state solves run by one engine, ``_run_grid``;
``trajectories`` and ``convergence`` have runners of their own.  Every option
is declared once in ``_OPTIONS``, which drives the parser, the config-file
casts and the defaults.  A config file (``--config``) holds flat
``key = value`` lines with ``#`` comments; flags override it.

CSV artifacts use a header row, 12 significant digits and LF line endings,
and are byte-for-byte deterministic for a fixed configuration and seed.
Exit codes: 0 on success; 2 on a configuration error (one ``error:`` line,
no CSV written); 3 when the solver failed at some grid points, each recorded
in the ``error`` column while the remaining rows still run.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .analytic import one_photon_excitations, thermal_distribution
from .hilbert import PSD_TOL, Boson, CompositeSpace, annihilation, basis_ket, number
from .liouville import LindbladTerm
from .models import (
    SCENARIOS,
    Coupling,
    ModelSpec,
    RabiParams,
    build_dissipators,
    build_hamiltonian,
    build_liouvillian,
    build_space,
    excitation_operator,
    scenario_parasitic,
)
from .observables import ObservableReport, report
from .steady import convergence_scan, steady_state
from .trajectories import ensemble_average, unravel

_FLOAT_FMT = "{:.11e}"


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
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


@dataclass(frozen=True)
class _Option:
    """One option: its flags, its cast (flag and config value alike), its help
    and its default; ``None`` means unset."""

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
_COMMON = ("out", "scenario", "coupling", "omega", "g", "kappa", "lam", "gamma_rate",
           "nbar", "workers")
#: the options that describe the model, which ``trajectories --mode decay`` does
#: not read: it damps a lone cavity at ``--kappa``
_MODEL_OPTIONS = ("scenario", "coupling", "omega", "g", "lam", "gamma_rate", "nbar")


def _spec(o: argparse.Namespace, cutoff: int, **point: float) -> ModelSpec:
    """The model at one point: the command's parameters with ``point`` overriding.

    Dephasing follows lam/4 at the point unless ``--gamma-rate`` fixes it.
    """
    p = {"omega": o.omega, "g": o.g, "kappa": o.kappa, "lam": o.lam, "nbar": o.nbar, **point}
    p.setdefault("gamma", p["lam"] / 4.0 if o.gamma_rate is None else o.gamma_rate)
    return ModelSpec(params=RabiParams(**p), cutoff=cutoff, coupling=Coupling(o.coupling),
                     parasitic=scenario_parasitic(o.scenario))


def _solve(spec: ModelSpec) -> tuple[ObservableReport | None, str]:
    """Observables of the steady state at one grid point, or the error text."""
    try:
        gen = build_liouvillian(spec)
        return report(steady_state(gen).rho, gen.space), ""
    except Exception as exc:  # per-row error reporting keeps the sweep going
        return None, f"{type(exc).__name__}: {exc}"


def _run_grid(header: tuple[str, ...], points: Callable, rows: Callable,
              o: argparse.Namespace) -> int:
    """The grid engine.  ``points(o)`` gives (key columns, spec) pairs, all built
    (and so validated) before any solve; ``rows(spec, report or None)`` gives
    the CSV rows of one point between its key columns and its error text."""
    grid = points(o)
    specs = [spec for _, spec in grid]
    if o.workers <= 1:
        results = [_solve(spec) for spec in specs]
    else:
        with ProcessPoolExecutor(max_workers=o.workers) as pool:
            results = list(pool.map(_solve, specs))
    table = [[*keys, *row, error]
             for (keys, spec), (rep, error) in zip(grid, results)
             for row in rows(spec, rep)]
    write_csv(o.out, list(header), table)
    return 3 if any(error for _, error in results) else 0


def _clamp_tiny_negative(value: float) -> float:
    """Excitation numbers are non-negative; eigenvalue noise within the
    positivity tolerance ``PSD_TOL`` is clamped to zero in the artifacts."""
    return 0.0 if -PSD_TOL < value < 0.0 else value


def _means(rep: ObservableReport) -> tuple[float, float]:
    return _clamp_tiny_negative(rep.n_mean["cavity"]), _clamp_tiny_negative(rep.e_mean["atom"])


def _analytic_reference(spec: ModelSpec) -> tuple[float | None, float | None]:
    """Closed-form one-photon reference for the bare model at these parameters.

    Zero under the rotating-wave approximation (no anti-rotating term, no
    excitation); undefined at finite reservoir temperature.
    """
    if spec.params.nbar != 0:
        return None, None
    if spec.coupling is Coupling.RWA:
        return 0.0, 0.0
    try:
        ref = one_photon_excitations(spec.params)
    except ValueError:
        return None, None
    return ref.n_mean, ref.e_mean


def _sweep_points(axis: str, o: argparse.Namespace) -> list:
    """A one-parameter sweep of ``axis`` (omega or gamma) times the cutoffs."""
    return [((o.scenario, x, cutoff), _spec(o, cutoff, **{axis: x}))
            for x in getattr(o, f"{axis}_grid") for cutoff in o.cutoffs]


def _sweep_rows(spec: ModelSpec, rep: ObservableReport | None) -> list[list]:
    n1, e1 = _analytic_reference(spec)
    if rep is None:
        return [[None, None, n1, e1, None]]
    return [[*_means(rep), n1, e1, rep.i_af]]


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
    t_grid = np.arange(o.points) * (o.t_max / (o.points - 1))
    if o.mode == "decay":
        # single damped mode from |1>: the ensemble mean follows exp(-kappa t)
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
    ens = ensemble_average(unravel(h, terms, space), psi0, t_grid, o.n_traj, o.seed, operators)
    columns = {"time": t_grid, "mean_n": ens.mean[0], "stderr_n": ens.stderr[0]}
    if o.mode == "decay":
        columns["exact"] = np.exp(-o.kappa * t_grid)
    else:
        columns.update(mean_e=ens.mean[1], stderr_e=ens.stderr[1])
    write_csv(o.out, list(columns), [list(row) for row in zip(*columns.values())])
    return 0


def _cmd_convergence(o: argparse.Namespace) -> int:
    header = ["cutoff", "n_mean", "e_mean", "rel_change", "converged", "error"]
    spec = _spec(o, o.cutoffs[0])
    rows = []
    try:
        # cutoffs that do not strictly ascend raise ValueError before any solve:
        # a configuration error
        for row in convergence_scan(spec, o.cutoffs):
            change = None if math.isnan(row.rel_change) else row.rel_change
            rows.append([row.cutoff, row.n_mean, row.e_mean, change, row.converged, ""])
    except RuntimeError as exc:  # solver failure: an error row after the solved cutoffs
        rows.append([None, None, None, None, None, f"{type(exc).__name__}: {exc}"])
    write_csv(o.out, header, rows)
    return 3 if rows[-1][-1] else 0


class _Command(NamedTuple):
    help: str
    options: tuple[str, ...]   # taken in addition to _COMMON
    defaults: dict             # overrides of the option defaults
    run: Callable[[argparse.Namespace], int]


def _sweep(axis: str, help: str) -> _Command:
    header = ("scenario", axis, "cutoff", "n_mean", "e_mean", "n1_analytic", "e1_analytic",
              "i_af", "error")
    return _Command(help, (f"{axis}_grid", "cutoffs"), {"out": f"sweep_{axis}.csv"},
                    partial(_run_grid, header, partial(_sweep_points, axis), _sweep_rows))


_COMMANDS = {
    "sweep-omega": _sweep("omega", "excitations vs atomic frequency"),
    "sweep-gamma": _sweep("gamma", "excitations vs dephasing rate"),
    "damping-map": _Command(
        "total excitation over a (kappa, lambda) log grid",
        ("cutoff", "log_kappa_grid", "log_lambda_grid", "omegas"),
        {"scenario": "c", "out": "damping_map.csv"},
        partial(_run_grid,
                ("omega", "log10_kappa", "log10_lambda", "log10_total_excitation", "error"),
                _damping_points, _damping_rows)),
    "distribution": _Command(
        "photon distribution vs thermal reference", ("cutoff", "kappas", "omegas"),
        {"scenario": "c", "omegas": (1.0, 0.7), "out": "distribution.csv"},
        partial(_run_grid, ("kappa", "omega", "n", "p_n_steady", "p_n_thermal", "i_af", "error"),
                _distribution_points, _distribution_rows)),
    "trajectories": _Command(
        "quantum-jump ensemble validation run",
        ("mode", "cutoff", "t_max", "points", "n_traj", "seed"),
        {"cutoff": 1, "kappa": 1.0, "out": "trajectories.csv"}, _cmd_trajectories),
    "convergence": _Command(
        "steady-state observables per Fock cutoff", ("cutoffs",),
        {"cutoffs": (1, 2, 3), "out": "convergence.csv"}, _cmd_convergence),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openrabi",
        description="Steady-state excitation sweeps of the lossy Rabi model",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help)
        sub.add_argument("--config", help="flat key = value config file")
        for key in _COMMON + command.options:
            opt = _OPTIONS[key]
            sub.add_argument(*opt.flags, dest=key, type=opt.cast, choices=opt.choices,
                             help=opt.help)
    return parser


def resolve_config(args: argparse.Namespace, cfg: dict[str, str], command: str) -> argparse.Namespace:
    """Merge option defaults, per-command defaults, config-file values and
    flags (flags win), and check that every config key is an option of the
    command, that no grid is empty, that ``workers`` is at least 1 and that
    ``trajectories --mode decay`` is given no model option.  The values
    themselves are checked by ``RabiParams`` and ``ModelSpec`` as the specs
    are built."""
    cmd = _COMMANDS[command]
    keys = _COMMON + cmd.options
    merged = {key: _OPTIONS[key].default for key in keys}
    merged.update(cmd.defaults)
    given = set()   # keys set by the config file or a flag
    for name, value in cfg.items():
        key = "lam" if name == "lambda" else name
        if key not in keys:
            raise ValueError(f"config key {name!r} is not an option of {command}")
        opt = _OPTIONS[key]
        if opt.choices and value not in opt.choices:
            raise ValueError(f"config key {name!r}: {value!r} is not one of {list(opt.choices)}")
        try:
            merged[key] = opt.cast(value)
        except ValueError as exc:
            raise ValueError(f"config key {name!r}: {exc}") from None
        given.add(key)
    for key, value in vars(args).items():
        if key in keys and value is not None:
            merged[key] = value
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
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config_file(args.config) if args.config else {}
        return _COMMANDS[args.command].run(resolve_config(args, cfg, args.command))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
