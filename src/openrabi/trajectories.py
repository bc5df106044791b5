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
a block advances by one sample step in one call, the norm-crossing bisection
runs on all the states that crossed in that step together, and ``_jumps``
makes all of that step's jumps in one call (``run_trajectory`` calls it on a
one-row block).  Each state still goes through the same BLAS calls as a lone
state (one gemv per state, one dot per norm), so an ensemble member's samples
equal its ``run_trajectory`` observables bit for bit.

Each trajectory keeps its own random stream, that of
``trajectory_seed(base_seed, i)``, and its draw order (threshold, then per
jump the channel and the next threshold), so the results do not depend on
the block size or on execution order.  The ensemble does not build those
streams one ``SeedSequence`` at a time: ``_stream_states`` runs numpy's
``SeedSequence`` hash and PCG64's seeding step for a whole block of spawn keys
at once, and the states are loaded into a pool of generators built once per
process.  The engine runs in one process; ``--workers`` does not apply to it.

Intended for validation at moderate times on small spaces; asymptotics are
the steady-state solver's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .hilbert import VALIDITY_TOL, CompositeSpace, DimensionError
from .liouville import LindbladTerm, SuperOperator

_BISECT_FRACTION = 1e-3   # jump-time tolerance as a fraction of the step size
# trajectories stepped together, and the size of the pool of generators that
# every block reuses; each Generator holds ~0.9 KiB, so one generator per
# trajectory would cost memory that the speed does not need
_BLOCK = 1024

# numpy's SeedSequence hash (pool of 4 uint32 words) and PCG64's multiplier
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1

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


def _draw_channels(rngs: list[np.random.Generator], probs: np.ndarray) -> np.ndarray:
    """Per row of ``probs`` (m, K) an index drawn with those probabilities from
    that row's generator: one ``rng.random()`` and the arithmetic of
    ``rng.choice(K, p=row)``, without its checks."""
    cdf = np.cumsum(probs, axis=-1)
    cdf /= cdf[:, -1:]
    u = np.array([rng.random() for rng in rngs])
    # the count of cdf entries <= u is searchsorted(u, side="right")
    return (cdf <= u[:, None]).sum(-1)


def _jumps(
    unr: Unraveling, weights: list[np.ndarray], states: np.ndarray,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Jump every row of ``states`` (m, D), row ``i`` drawing its channel
    with probability ~ <state|w_k|state> from ``rngs[i]``; return the channels
    and the states after those jumps, each renormalized."""
    probs = np.stack([np.vecdot(states, _matvec(w, states)).real for w in weights], axis=-1)
    total = probs.sum(-1)
    if (total <= 0).any():
        raise StepSizeUnderflowError("norm decayed with no open jump channel")
    channels = _draw_channels(rngs, probs / total[:, None])
    jumped = _matvec(np.stack(unr.jumps)[channels], states)
    return channels, jumped / np.sqrt(_norm_sq(jumped))[:, None]


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
            channels, jumped = _jumps(unr, weights, prop.apply(psi, tau)[None], [rng])
            psi = jumped[0]
            record.jump_times.append(elapsed + tau)
            record.jump_channels.append(int(channels[0]))
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


def _uint32_words(n: int) -> list[int]:
    """A non-negative int as 32-bit words, least significant first, as
    SeedSequence splits its entropy."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's multiply-xorshift hash of uint32 arrays, whose constant
    starts at ``init`` and is multiplied by ``mult`` at every call."""
    const = init

    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hash_


def _stream_states(base_seed: int, keys: np.ndarray) -> list[dict]:
    """``PCG64(trajectory_seed(base_seed, k)).state`` for every spawn key ``k``
    in ``keys`` (each below 2**32), computed for all keys in one pass.

    numpy's SeedSequence algorithm on uint32 arrays, one element per key: the
    entropy words of ``base_seed`` padded to the pool size, then the key's word;
    ``mix_entropy``; ``generate_state(4, uint64)``.  Then PCG64's ``srandom``
    seeding step in Python ints, one 128-bit state and increment per key.
    """
    keys = np.asarray(keys, dtype=np.uint32)
    run = _uint32_words(base_seed)
    run += [0] * (_POOL_SIZE - len(run))
    entropy = [np.full(keys.shape, w, dtype=np.uint32) for w in run] + [keys]

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    generate = _hasher(_INIT_B, _MULT_B)
    # 4 uint64 words of two halves each, low half first
    halves = [generate(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (lo | hi << np.uint64(32)).tolist() for lo, hi in zip(halves[::2], halves[1::2])
    )
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


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
    rngs: list[np.random.Generator],
    operators: tuple[np.ndarray, ...],
    out: np.ndarray,
) -> None:
    """Step one trajectory per generator from ``psi0`` and write the samples
    of sample steps 1.. into ``out`` (shape (len(rngs), n_operators, n_times))."""
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
            jumping = [rngs[i] for i in crossed]
            _, psi[crossed] = _jumps(unr, weights, prop.apply(psi[crossed], tau), jumping)
            threshold[crossed] = [rng.random() for rng in jumping]
            remaining[crossed] -= tau
            live = crossed[remaining[crossed] > 0]
        out[:, :, k] = _expectations(psi, operators).T


@cache
def _generator_pool(size: int) -> list[np.random.Generator]:
    """``size`` generators, built once per process, that every ensemble's
    blocks load their streams into (building 1024 takes ~8 ms).  Not
    thread-safe: ensembles run at once in threads of one process would share
    them."""
    placeholder = np.random.SeedSequence(0)
    return [np.random.Generator(np.random.PCG64(placeholder)) for _ in range(size)]


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
    if base_seed < 0:
        raise ValueError(f"seed must be >= 0, got {base_seed}")
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
    # one generator per row of a block; each block overwrites their states
    pool = _generator_pool(_BLOCK)
    for start in range(0, n_traj, _BLOCK):
        keys = np.arange(start, min(start + _BLOCK, n_traj), dtype=np.uint32)
        rngs = pool[:keys.size]
        for rng, state in zip(rngs, _stream_states(base_seed, keys)):
            rng.bit_generator.state = state
        _run_block(unr, prop, weights, psi0, dt, rngs, operators, samples[start:start + keys.size])
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
            m = math.fsum(column.tolist()) / n_traj
            var = math.fsum(((column - m) ** 2).tolist()) / (n_traj - 1)
            mean[j, k] = m
            stderr[j, k] = math.sqrt(var / n_traj)
    return EnsembleResult(times=np.asarray(t_grid, dtype=float), mean=mean, stderr=stderr,
                          n_traj=n_traj)
