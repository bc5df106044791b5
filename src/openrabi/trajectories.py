"""Monte Carlo quantum-jump unraveling of the master equation.

Between jumps the state evolves under the non-hermitian drift
``H_eff = H - (i/2) sum_k rate_k F_k^+ F_k`` without renormalization; a jump
fires when the squared norm crosses a uniform random threshold, the channel
is drawn proportionally to ``rate_k <F_k^+ F_k>``, and the state is
renormalized (Dalibard, Castin & Molmer, PRL 68, 580 (1992); Plenio &
Knight, RMP 70, 101 (1998)).  Averaging projector/number observables over
trajectories reproduces the master-equation solution.

``run_trajectory`` follows one trajectory and is the reference.
``ensemble_average`` builds the propagator and the jump weights once per
ensemble and steps the trajectories ``_BLOCK`` at a time: every live state of
a block advances by one sample step in one call, and the norm-crossing
bisection runs on all the states that crossed in that step together.  Each
state still goes through the same BLAS calls as a lone state (one gemv per
state, one dot per norm), so an ensemble member's samples equal its
``run_trajectory`` observables bit for bit.  Each trajectory keeps its own
random stream and its draw order (threshold, then channel per jump), so the
results do not depend on the block size or on execution order.  The engine
runs in one process; ``--workers`` does not apply to it.

Intended for validation at moderate times on small spaces; asymptotics are
the steady-state solver's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .hilbert import VALIDITY_TOL, CompositeSpace, DimensionError
from .liouville import LindbladTerm, SuperOperator

_BISECT_FRACTION = 1e-3   # jump-time tolerance as a fraction of the step size
# trajectories stepped together; each live Generator holds ~0.9 KiB, so one
# block of every trajectory would cost memory that the speed does not need
_BLOCK = 1024

Seed = int | np.random.SeedSequence


class StepSizeUnderflowError(RuntimeError):
    """The norm decayed and no jump could carry it: the unraveling has no jump
    operators, or every channel's weight is zero in the current state."""


@dataclass(frozen=True)
class Unraveling:
    """Non-hermitian drift plus scaled jump operators sqrt(rate)*F."""

    space: CompositeSpace
    h_eff: np.ndarray
    jumps: tuple[np.ndarray, ...]


def unravel(h: np.ndarray, terms: list[LindbladTerm], space: CompositeSpace) -> Unraveling:
    h = np.asarray(h, dtype=complex)
    if h.shape != (space.dim, space.dim):
        raise DimensionError(f"Hamiltonian shape {h.shape} does not match dim {space.dim}")
    h_eff = h.copy()
    jumps = []
    for term in terms:
        op = np.asarray(term.operator, dtype=complex)
        if op.shape != h.shape:
            raise DimensionError("jump operator shape does not match the Hamiltonian")
        h_eff -= 0.5j * term.rate * (op.conj().T @ op)
        jumps.append(np.sqrt(term.rate) * op)
    return Unraveling(space, h_eff, tuple(jumps))


def recombine(unr: Unraveling) -> SuperOperator:
    """Generator reassembled from drift and jumps; equals the Lindblad assembly."""
    d = unr.space.dim
    eye = sp.identity(d, format="csr")
    he = sp.csr_matrix(unr.h_eff)
    mat = -1j * (sp.kron(eye, he, format="csr") - sp.kron(he.conj(), eye, format="csr"))
    for j in unr.jumps:
        js = sp.csr_matrix(j)
        mat = mat + sp.kron(js.conj(), js, format="csr")
    return SuperOperator(unr.space, mat.tocsr())


def _matvec(a: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``a @ psi`` for a state (D,) or for each row of a block (m, D).

    A stacked matrix-vector product makes one gemv per state, so a state's
    arithmetic does not depend on the block it sits in; one matrix product
    over the block would round differently from ``a @ state``.
    """
    return np.matmul(a, psi[..., None])[..., 0]


def _norm_sq(psi: np.ndarray) -> np.ndarray:
    """Squared norm of a state, or of each row of a block (one dot per state)."""
    return np.vecdot(psi, psi).real


class _Propagator:
    """exp(-i H_eff t) through the eigendecomposition, with an expm fallback."""

    def __init__(self, h_eff: np.ndarray):
        self._h = h_eff
        w, v = la.eig(h_eff)
        try:
            vinv = la.inv(v)
            ok = np.abs(v @ np.diag(w) @ vinv - h_eff).max() <= VALIDITY_TOL * max(
                np.abs(h_eff).max(), 1.0
            )
        except la.LinAlgError:
            ok = False
        self._eig = (w, v, vinv) if ok else None

    def apply(self, psi: np.ndarray, t: float | np.ndarray) -> np.ndarray:
        """Evolve a state (D,) by ``t``, or each row of a block (m, D) by its own t[i]."""
        t = np.asarray(t, dtype=float)
        if self._eig is not None:
            w, v, vinv = self._eig
            return _matvec(v, np.exp(-1j * w * t[..., None]) * _matvec(vinv, psi))
        # defective H_eff: one matrix exponential per distinct time
        rows, times = psi.reshape(-1, psi.shape[-1]), t.reshape(-1)
        out = np.empty_like(rows)
        for tk in np.unique(times):
            at = times == tk
            out[at] = _matvec(la.expm(-1j * self._h * tk), rows[at])
        return out.reshape(psi.shape)


@dataclass
class TrajectoryRecord:
    seed: Seed
    times: np.ndarray                       # sample grid, multiples of dt
    observables: np.ndarray                 # shape (n_operators, n_times)
    jump_times: list[float] = field(default_factory=list)
    jump_channels: list[int] = field(default_factory=list)


def _expectations(psi: np.ndarray, operators: tuple[np.ndarray, ...]) -> np.ndarray:
    """Normalized <op> of a state, shape (n_operators,), or of each row of a
    block, shape (n_operators, m)."""
    norm_sq = _norm_sq(psi)
    out = np.empty((len(operators), *psi.shape[:-1]))
    for j, op in enumerate(operators):
        out[j] = np.vecdot(psi, _matvec(op, psi)).real / norm_sq
    return out


def _checked_start(psi0: np.ndarray, t_max: float, dt: float) -> np.ndarray:
    """``psi0`` as a complex array, once it is normalized and the times are valid."""
    psi0 = np.asarray(psi0, dtype=complex)
    norm0 = np.linalg.norm(psi0)
    if abs(norm0 - 1.0) > VALIDITY_TOL:
        raise ValueError(f"psi0 must be normalized, got norm {norm0}")
    if dt <= 0 or t_max < 0:
        raise ValueError("need dt > 0 and t_max >= 0")
    return psi0


def _generator(seed: Seed) -> np.random.Generator:
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.Generator(np.random.PCG64(seq))


def _draw_channel(rng: np.random.Generator, probs: np.ndarray) -> int:
    """Index drawn with probabilities ``probs``: one ``rng.random()`` and the
    arithmetic of ``rng.choice(len(probs), p=probs)``, without its checks."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _jump(
    unr: Unraveling, weights: list[np.ndarray], state: np.ndarray, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Draw a channel with probability ~ <state|w_k|state> and return it with
    the renormalized state after that jump."""
    probs = np.array([float(np.vdot(state, w @ state).real) for w in weights])
    total = probs.sum()
    if total <= 0:
        raise StepSizeUnderflowError("norm decayed with no open jump channel")
    channel = _draw_channel(rng, probs / total)
    jumped = unr.jumps[channel] @ state
    return channel, jumped / np.linalg.norm(jumped)


def run_trajectory(
    unr: Unraveling,
    psi0: np.ndarray,
    t_max: float,
    dt: float,
    seed: Seed,
    operators: tuple[np.ndarray, ...] = (),
) -> TrajectoryRecord:
    """One stochastic pure-state trajectory, deterministic for a fixed seed."""
    psi0 = _checked_start(psi0, t_max, dt)
    rng = _generator(seed)
    prop = _Propagator(unr.h_eff)
    weights = [j.conj().T @ j for j in unr.jumps]
    n_steps = int(round(t_max / dt))
    times = np.arange(n_steps + 1) * dt
    record = TrajectoryRecord(
        seed=seed, times=times, observables=np.empty((len(operators), n_steps + 1))
    )
    record.observables[:, 0] = _expectations(psi0, operators)

    psi = psi0.copy()
    threshold = rng.random()
    tol = dt * _BISECT_FRACTION
    for k in range(1, n_steps + 1):
        remaining = dt
        elapsed = times[k - 1]
        while True:
            trial = prop.apply(psi, remaining)
            if _norm_sq(trial) > threshold:
                psi = trial
                break
            if not unr.jumps:
                raise StepSizeUnderflowError("norm decayed but the unraveling has no jumps")
            # bisect the crossing of ||psi(tau)||^2 = threshold in (0, remaining];
            # the squared norm is monotone non-increasing between jumps
            lo, hi = 0.0, remaining
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if _norm_sq(prop.apply(psi, mid)) > threshold:
                    lo = mid
                else:
                    hi = mid
            tau = 0.5 * (lo + hi)
            channel, psi = _jump(unr, weights, prop.apply(psi, tau), rng)
            record.jump_times.append(elapsed + tau)
            record.jump_channels.append(channel)
            threshold = rng.random()
            elapsed += tau
            remaining -= tau
            if remaining <= 0:
                break
        record.observables[:, k] = _expectations(psi, operators)
    return record


@dataclass
class EnsembleResult:
    times: np.ndarray
    mean: np.ndarray     # shape (n_operators, n_times)
    stderr: np.ndarray   # same shape; sample standard error of the mean
    n_traj: int


def trajectory_seed(base_seed: int, index: int) -> np.random.SeedSequence:
    """Seed of trajectory ``index``: SeedSequence(base_seed) with spawn key (index,).

    The counter scheme makes results independent of execution order.
    """
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))


def _bisect(
    prop: _Propagator, psi: np.ndarray, threshold: np.ndarray, remaining: np.ndarray, tol: float
) -> np.ndarray:
    """Crossing times of ||psi_i(tau)||^2 = threshold_i in (0, remaining_i] for
    the rows of ``psi``: run_trajectory's bisection, row by row."""
    lo, hi = np.zeros_like(remaining), remaining.copy()
    open_ = np.flatnonzero(hi - lo > tol)
    while open_.size:
        mid = 0.5 * (lo[open_] + hi[open_])
        above = _norm_sq(prop.apply(psi[open_], mid)) > threshold[open_]
        lo[open_[above]] = mid[above]
        hi[open_[~above]] = mid[~above]
        open_ = open_[hi[open_] - lo[open_] > tol]
    return 0.5 * (lo + hi)


def _run_block(
    unr: Unraveling,
    prop: _Propagator,
    weights: list[np.ndarray],
    psi0: np.ndarray,
    dt: float,
    seeds: list[np.random.SeedSequence],
    operators: tuple[np.ndarray, ...],
    out: np.ndarray,
) -> None:
    """Step one trajectory per seed from ``psi0`` and write the samples of
    sample steps 1.. into ``out`` (shape (len(seeds), n_operators, n_times))."""
    rngs = [_generator(seed) for seed in seeds]
    psi = np.tile(psi0, (len(rngs), 1))
    threshold = np.array([rng.random() for rng in rngs])
    tol = dt * _BISECT_FRACTION
    for k in range(1, out.shape[2]):
        remaining = np.full(len(rngs), dt)
        live = np.arange(len(rngs))     # the trajectories still inside step k
        while live.size:
            trial = prop.apply(psi[live], remaining[live])
            kept = _norm_sq(trial) > threshold[live]
            psi[live[kept]] = trial[kept]
            crossed = live[~kept]
            if not crossed.size:
                break
            if not unr.jumps:
                raise StepSizeUnderflowError("norm decayed but the unraveling has no jumps")
            tau = _bisect(prop, psi[crossed], threshold[crossed], remaining[crossed], tol)
            for i, state in zip(crossed, prop.apply(psi[crossed], tau)):
                _, psi[i] = _jump(unr, weights, state, rngs[i])
                threshold[i] = rngs[i].random()
            remaining[crossed] -= tau
            live = crossed[remaining[crossed] > 0]
        out[:, :, k] = _expectations(psi, operators).T


def _ensemble_samples(
    unr: Unraveling,
    psi0: np.ndarray,
    t_grid: np.ndarray,
    n_traj: int,
    base_seed: int,
    operators: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Samples of every trajectory, shape (n_traj, n_operators, n_times); row
    ``i`` equals the observables of ``run_trajectory`` with seed
    ``trajectory_seed(base_seed, i)``."""
    if n_traj < 2:
        raise ValueError("n_traj must be >= 2 for meaningful error bars")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 2 or t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0 and contain at least two points")
    spacing = np.diff(t_grid)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise ValueError("t_grid must be uniform")
    dt = float(spacing[0])
    psi0 = _checked_start(psi0, float(t_grid[-1]), dt)

    prop = _Propagator(unr.h_eff)
    weights = [j.conj().T @ j for j in unr.jumps]
    samples = np.empty((n_traj, len(operators), t_grid.size))
    samples[:, :, 0] = _expectations(psi0, operators)
    for start in range(0, n_traj, _BLOCK):
        stop = min(start + _BLOCK, n_traj)
        seeds = [trajectory_seed(base_seed, i) for i in range(start, stop)]
        _run_block(unr, prop, weights, psi0, dt, seeds, operators, samples[start:stop])
    return samples


def ensemble_average(
    unr: Unraveling,
    psi0: np.ndarray,
    t_grid: np.ndarray,
    n_traj: int,
    base_seed: int,
    operators: tuple[np.ndarray, ...],
) -> EnsembleResult:
    """Trajectory-averaged observables with per-time standard errors.

    ``t_grid`` must be uniform and start at zero; its spacing is the stepping
    interval of the underlying trajectories.
    """
    samples = _ensemble_samples(unr, psi0, t_grid, n_traj, base_seed, operators)
    # compensated reduction keeps the ensemble mean order-insensitive
    mean = np.empty((len(operators), samples.shape[2]))
    stderr = np.empty_like(mean)
    for j in range(len(operators)):
        for k in range(samples.shape[2]):
            column = samples[:, j, k]
            m = math.fsum(column) / n_traj
            var = math.fsum((column - m) ** 2) / (n_traj - 1)
            mean[j, k] = m
            stderr[j, k] = math.sqrt(var / n_traj)
    return EnsembleResult(times=np.asarray(t_grid, dtype=float), mean=mean, stderr=stderr,
                          n_traj=n_traj)
