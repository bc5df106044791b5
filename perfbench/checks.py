"""Output checks for the benchmark workloads, computed apart from the program.

Nothing here imports ``openrabi``.  The references are either built from the
model definition (README and docstrings of ``models.py``/``analytic.py``) or
are properties the method must have:

(a) bare cutoff-1 rows, and every row's analytic columns, equal the one-photon
    closed forms, evaluated in mpmath;
(b) one point per scenario equals an extended-precision null vector of a
    Liouvillian assembled here with ``numpy.kron``;
(c) excitations are strictly positive (the thermal value at nbar = 0 is 0);
(d) every spectator scenario excites the cavity more than the bare model;
(e) the cutoff ladder converges: ``rel_change`` falls and the top two agree;
(f) the decay ensemble follows exp(-kappa t) within its standard errors;
(g) the model ensemble follows a master-equation evolution computed here.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import scipy.linalg as la

# default rate set of every figure command: g = 0.05, kappa = lambda = 1e-6,
# dephasing lambda/4, nbar = 0
G, KAPPA, LAM = 0.05, 1e-6, 1e-6
GAMMA = LAM / 4

# spectator per scenario: a second mode at frequency nu (coupling sqrt(nu) g,
# damping nu kappa) or a second atom at frequency omega_t (same g and rates)
SPECTATORS = {
    "bare": None,
    "a": ("mode", 2.0),
    "b": ("mode", 0.5),
    "c": ("atom", 0.2),
    "d": ("atom", 1.8),
}
SCENARIOS = tuple(SPECTATORS)

_SM = np.array([[0, 1], [0, 0]], dtype=complex)   # |g><e| in the (|g>, |e>) basis
_EXC = np.diag([0, 1]).astype(complex)
_SZ = np.diag([-1, 1]).astype(complex)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float:
    return float(text) if text != "" else math.nan


def _lower(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1).astype(complex)


def _on(local: np.ndarray, dims: list[int], pos: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for i, d in enumerate(dims):
        out = np.kron(out, local if i == pos else np.eye(d, dtype=complex))
    return out


def model(scenario: str, cutoff: int, omega: float, g: float, kappa: float,
          lam: float, gamma: float):
    """Hamiltonian, (rate, jump operator) list, cavity number and atom projector.

    Factor order: atom, spectator atom, cavity, spectator mode (first slowest).
    The coupling is g p sigma_y with p = i(a^+ - a)/sqrt2 and
    sigma_y = i(sigma_- - sigma_+).
    """
    spec = SPECTATORS[scenario]
    cav = 2 if spec and spec[0] == "atom" else 1
    dims = [2] * cav + [cutoff + 1] * (2 if spec and spec[0] == "mode" else 1)
    a1 = _lower(cutoff)
    p1 = 1j * (a1.conj().T - a1) / math.sqrt(2.0)
    sy1 = 1j * (_SM - _SM.conj().T)

    a, p = _on(a1, dims, cav), _on(p1, dims, cav)
    h = a.conj().T @ a + omega * _on(_EXC, dims, 0) + g * p @ _on(sy1, dims, 0)
    jumps = [(kappa, a), (lam, _on(_SM, dims, 0)), (gamma / 2, _on(_SZ, dims, 0))]
    if spec and spec[0] == "mode":
        nu = spec[1]
        at, pt = _on(a1, dims, cav + 1), _on(p1, dims, cav + 1)
        h = h + nu * at.conj().T @ at + math.sqrt(nu) * g * pt @ _on(sy1, dims, 0)
        jumps.append((nu * kappa, at))
    elif spec:
        h = h + spec[1] * _on(_EXC, dims, 1) + g * p @ _on(sy1, dims, 1)
        jumps += [(lam, _on(_SM, dims, 1)), (gamma / 2, _on(_SZ, dims, 1))]
    return h, [(r, f) for r, f in jumps if r > 0], a.conj().T @ a, _on(_EXC, dims, 0)


def liouvillian(h: np.ndarray, jumps) -> np.ndarray:
    """Dense generator on column-stacked rho: vec(A rho B) = (B^T kron A) vec(rho)."""
    eye = np.eye(h.shape[0], dtype=complex)
    out = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for rate, f in jumps:
        fdf = f.conj().T @ f
        out += rate * (np.kron(f.conj(), f) - 0.5 * np.kron(eye, fdf) - 0.5 * np.kron(fdf.T, eye))
    return out


def _gauss_solve(a: list[list], b: list) -> list:
    """Gaussian elimination with partial pivoting at the working mpmath precision.

    ``mpmath.lu_solve`` rejects these systems: its singularity test compares
    trailing row sums against an absolute tolerance, which the 1e-6 rates trip.
    """
    n = len(b)
    for j in range(n):
        piv = max(range(j, n), key=lambda i: abs(a[i][j]))
        if a[piv][j] == 0:
            raise ZeroDivisionError("singular system")
        a[j], a[piv] = a[piv], a[j]
        b[j], b[piv] = b[piv], b[j]
        inv = 1 / a[j][j]
        for i in range(j + 1, n):
            f = a[i][j] * inv
            if f:
                row_i, row_j = a[i], a[j]
                for k in range(j + 1, n):
                    if row_j[k]:
                        row_i[k] -= f * row_j[k]
                b[i] -= f * b[j]
    x = [mp.mpc(0)] * n
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - mp.fsum(a[i][k] * x[k] for k in range(i + 1, n))) / a[i][i]
    return x


def null_vector_excitations(scenario: str, cutoff: int, omega: float = 1.0,
                            dps: int = 40) -> tuple[float, float]:
    """<n>, <E> of the steady state, solved at ``dps`` digits with row 0 of L
    replaced by the trace constraint."""
    h, jumps, n_op, e_op = model(scenario, cutoff, omega, G, KAPPA, LAM, GAMMA)
    lmat = liouvillian(h, jumps)
    d = h.shape[0]
    with mp.workdps(dps):
        rows = [[mp.mpc(v) for v in row] for row in lmat.tolist()]
        rows[0] = [mp.mpc(1 if j % (d + 1) == 0 else 0) for j in range(d * d)]
        x = _gauss_solve(rows, [mp.mpc(1)] + [mp.mpc(0)] * (d * d - 1))
        pops = [x[i * (d + 1)].real for i in range(d)]
        n = mp.fsum(pops[i] * n_op[i, i].real for i in range(d))
        e = mp.fsum(pops[i] * e_op[i, i].real for i in range(d))
    return float(n), float(e)


def one_photon(omega: float, gamma: float, g: float = G, kappa: float = KAPPA,
               lam: float = LAM) -> tuple[float, float]:
    """Closed-form one-photon <n>, <E> at nbar = 0, in 50-digit arithmetic."""
    with mp.workdps(50):
        om, gg, k, lm, gm = (mp.mpf(v) for v in (omega, g, kappa, lam, gamma))
        linewidth = gm + (k + lm) / 2
        pump = gg**2 * linewidth
        lorentz = (om - 1) ** 2 + linewidth**2
        alpha = lorentz + 2 * om
        beta = alpha**2 - 4 * om**2
        denom = 2 * pump * (alpha * (k + lm) + 2 * pump) + lm * k * beta
        n = pump / denom * (2 * pump + lm * lorentz)
        e = pump / denom * (2 * pump + k * lorentz)
    return float(n), float(e)


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


# ---------------------------------------------------------------- figure-sweeps


def sweep_references() -> dict[str, tuple[int, tuple[float, float]]]:
    """(b) references per scenario, as (cutoff, (n, e)) at omega = 1.  Bare is
    taken at cutoff 2 because the closed forms already pin its cutoff-1 rows."""
    return {s: (c, null_vector_excitations(s, c))
            for s, c in (("bare", 2), ("a", 1), ("b", 1), ("c", 1), ("d", 1))}


def check_sweeps(outdir: Path, refs: dict[str, tuple[int, tuple[float, float]]]) -> list[str]:
    errors: list[str] = []
    sweeps = {}
    for axis in ("omega", "gamma"):
        for s in SCENARIOS:
            rows = read_csv(outdir / f"sweep_{axis}_{s}.csv")
            sweeps[axis, s] = rows
            for r in rows:
                if r["error"]:
                    errors.append(f"sweep-{axis} {s}: row error {r['error']}")
                    continue
                n, e = _num(r["n_mean"]), _num(r["e_mean"])
                where = f"sweep-{axis} {s} {axis}={r[axis]} cutoff={r['cutoff']}"
                if not (n > 0 and e > 0):                                   # (c)
                    errors.append(f"{where}: n_mean {n} / e_mean {e} not > 0")
                omega = float(r["omega"]) if axis == "omega" else 1.0        # (a)
                gamma = float(r["gamma"]) if axis == "gamma" else GAMMA
                n1, e1 = one_photon(omega, gamma)
                # every row carries the bare closed form; bare cutoff 1 equals it
                got = [(_num(r["n1_analytic"]), n1), (_num(r["e1_analytic"]), e1)]
                if s == "bare" and r["cutoff"] == "1":
                    got += [(n, n1), (e, e1)]
                if not all(_close(v, ref, 1e-9) for v, ref in got):
                    errors.append(f"{where}: {[v for v, _ in got]} != closed form ({n1}, {e1})")
    for axis in ("omega", "gamma"):                                           # (d)
        bare = {(r[axis], r["cutoff"]): _num(r["n_mean"]) for r in sweeps[axis, "bare"]}
        for s in SCENARIOS[1:]:
            for r in sweeps[axis, s]:
                key = (r[axis], r["cutoff"])
                if not _num(r["n_mean"]) > bare.get(key, math.inf):
                    errors.append(f"sweep-{axis} {s} at {key}: n_mean {r['n_mean']}"
                                  f" does not exceed bare {bare.get(key)}")
    for s, (cutoff, (n_ref, e_ref)) in refs.items():                     # (b)
        row = [r for r in sweeps["omega", s]
               if float(r["omega"]) == 1.0 and int(r["cutoff"]) == cutoff]
        if len(row) != 1:
            errors.append(f"sweep-omega {s}: no single row at omega=1, cutoff={cutoff}")
            continue
        n, e = _num(row[0]["n_mean"]), _num(row[0]["e_mean"])
        if not (_close(n, n_ref, 1e-8) and _close(e, e_ref, 1e-8)):
            errors.append(f"sweep-omega {s} cutoff {cutoff}: ({n}, {e}) != "
                          f"null vector ({n_ref}, {e_ref})")

    for r in read_csv(outdir / "damping_map.csv"):                            # (c)
        if r["error"] or not math.isfinite(_num(r["log10_total_excitation"])):
            errors.append(f"damping-map {r}: no finite log10 total excitation")
    dist: dict[tuple[str, str], list[float]] = {}
    for r in read_csv(outdir / "distribution.csv"):
        if r["error"]:
            errors.append(f"distribution row error {r['error']}")
            continue
        dist.setdefault((r["kappa"], r["omega"]), []).append(_num(r["p_n_steady"]))
    for key, probs in dist.items():
        if not (abs(math.fsum(probs) - 1.0) <= 1e-9 and all(p >= 0 for p in probs)
                and probs[1] > 0):
            errors.append(f"distribution {key}: {probs} is not a populated distribution")
    if len(dist) != 4:
        errors.append(f"distribution: expected 4 (kappa, omega) pairs, got {len(dist)}")
    errors += _check_ladder(outdir / "convergence.csv", "bare", [1, 2, 3, 4], None)
    return errors


# ---------------------------------------------------------------- cutoff-ladder


def _check_ladder(path: Path, scenario: str, cutoffs: list[int],
                  top_agreement: float | None,
                  reference: tuple[float, float] | None = None) -> list[str]:
    rows = read_csv(path)
    errors = []
    if [int(r["cutoff"] or 0) for r in rows] != cutoffs:
        return [f"convergence {scenario}: cutoffs {[r['cutoff'] for r in rows]} != {cutoffs}"]
    for r in rows:                                                            # (c)
        if r["error"] or not (_num(r["n_mean"]) > 0 and _num(r["e_mean"]) > 0):
            errors.append(f"convergence {scenario}: bad row {r}")
    changes = [_num(r["rel_change"]) for r in rows[1:]]
    if not all(b < a for a, b in zip(changes, changes[1:])):                  # (e)
        errors.append(f"convergence {scenario}: rel_change does not fall: {changes}")
    if top_agreement is not None and not changes[-1] <= top_agreement:
        errors.append(f"convergence {scenario}: top cutoffs differ by {changes[-1]}")
    if reference is not None:                                                 # (b)
        n, e = _num(rows[0]["n_mean"]), _num(rows[0]["e_mean"])
        if not (_close(n, reference[0], 1e-8) and _close(e, reference[1], 1e-8)):
            errors.append(f"convergence {scenario} cutoff 1: ({n}, {e}) != null vector {reference}")
    return errors


def check_ladder(outdir: Path, reference: tuple[float, float]) -> list[str]:
    return _check_ladder(outdir / "convergence.csv", "a", [1, 2, 3, 4, 5, 6], 1e-8, reference)


# ---------------------------------------------------------------- jump-ensemble

# ensemble means must lie within this many of their own standard errors
Z_MAX = 5.0
# The model ensemble starts in the ground state.  Before most trajectories
# have jumped, the rare atomic-decay jumps carry the mean while the sample
# variance misses them: at t <= 0.5 the mean sits 7-25 of its reported
# standard errors (rms over seeds) from the master equation.  From t = 1.5
# on, with 2000 trajectories, that rms is near 1 and |z| stayed below 4
# over 20 seeds.
MODEL_CHECK_T_MIN = 1.5


def check_decay(path: Path, kappa: float = 1.0) -> list[str]:
    errors = []
    for r in read_csv(path):                                                  # (f)
        t, mean, se = float(r["time"]), float(r["mean_n"]), float(r["stderr_n"])
        exact = math.exp(-kappa * t)
        if not _close(float(r["exact"]), exact, 1e-11):
            errors.append(f"decay t={t}: exact column {r['exact']} != exp(-kappa t) {exact}")
        if abs(mean - exact) > Z_MAX * se + 1e-12:
            errors.append(f"decay t={t}: mean {mean} is {abs(mean - exact) / max(se, 1e-300):.1f}"
                          f" standard errors from exp(-kappa t) = {exact}")
    return errors


def master_equation_means(scenario: str, cutoff: int, times: np.ndarray, omega: float,
                          g: float, kappa: float, lam: float, gamma: float) -> np.ndarray:
    """<n>(t), <E>(t) from the ground state by expm of the Liouvillian; shape (2, T)."""
    h, jumps, n_op, e_op = model(scenario, cutoff, omega, g, kappa, lam, gamma)
    lmat = liouvillian(h, jumps)
    d = h.shape[0]
    v = np.zeros(d * d, dtype=complex)
    v[0] = 1.0
    step = la.expm(lmat * (times[1] - times[0]))
    out = np.empty((2, times.size))
    for k in range(times.size):
        rho = v.reshape(d, d, order="F")
        out[0, k] = np.trace(n_op @ rho).real
        out[1, k] = np.trace(e_op @ rho).real
        v = step @ v
    return out


def check_model_ensemble(path: Path, t_min: float, **model_args) -> list[str]:
    rows = read_csv(path)
    times = np.array([float(r["time"]) for r in rows])
    ref = master_equation_means(times=times, **model_args)
    errors = []
    for k, r in enumerate(rows):                                              # (g)
        if times[k] < t_min:
            continue
        for j, col in enumerate(("n", "e")):
            mean, se = float(r[f"mean_{col}"]), float(r[f"stderr_{col}"])
            if abs(mean - ref[j, k]) > Z_MAX * se:
                errors.append(f"model ensemble t={times[k]}: mean_{col} {mean} is "
                              f"{abs(mean - ref[j, k]) / se:.1f} standard errors from "
                              f"the master equation {ref[j, k]}")
    return errors
