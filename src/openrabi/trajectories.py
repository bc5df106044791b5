"""Monte Carlo quantum-jump unraveling of the master equation.

Between jumps the state evolves under the non-hermitian drift
``H_eff = H - (i/2) sum_k rate_k F_k^+ F_k`` without renormalization; a jump
fires when the squared norm crosses a uniform random threshold, the channel
is drawn proportionally to ``rate_k <F_k^+ F_k>``, and the state is
renormalized (Dalibard, Castin & Molmer, PRL 68, 580 (1992); Plenio &
Knight, RMP 70, 101 (1998)).  Averaging projector/number observables over
trajectories reproduces the master-equation solution.

``run_trajectory`` follows one trajectory and is the reference.
``ensemble_average`` builds the propagator and the jump operators' actions
once per ensemble and steps the trajectories ``_BLOCK`` at a time.  A sample
step takes the eigen-coordinates of the whole block once and evolves every
state by dt in one call; that trial is the block's new state.  Only the rows
whose squared norm fell to their threshold are gathered: the norm-crossing
bisection runs on all of them together, and ``_jumps`` makes all of their
jumps in one call (``run_trajectory`` calls it on a one-row block).  It
applies each jump operator once, draws each row's channel by the squared
norms of those jumped states and keeps the drawn one.  The jumped states
evolve for the rest of the step, crossing again as often as they must.
Each row carries its squared norm from its last evolve or jump to the step's
samples, so no state's norm is taken twice.

Every matrix the ensemble applies (the propagator's eigenvectors and their
inverse, each jump operator, each observable) is set up once per ensemble by
``_action``: the identity adds 0.0, a matrix with at most one nonzero per
row, each real or purely imaginary, gathers and scales, and any other matrix
stays one gemv per state.  The jumps a, sigma_-, sigma_+ and sigma_z
embedded by ``kron`` and the number and projector observables all gather;
the eigenvectors gather only when H_eff is diagonal (decay mode).  Each
gathered entry is one product, rounded once as gemv rounds it, +0.0 replaces
-0.0 as gemv's zeroed accumulator does, and each result is C-ordered, so the
norms round alike; with one dot per norm, an ensemble member's samples equal
its ``run_trajectory`` observables bit for bit, and ``run_trajectory`` makes
every product as one gemv.  The mean and the standard error of each operator
and sample time come from sums over its column that are rounded once
(``math.fsum``), so they do not depend on the trajectories' order.

Each trajectory keeps its own random stream, that of
``trajectory_seed(base_seed, i)``, and its draw order (threshold, then per
jump the channel and the next threshold), so the results do not depend on
the block size or on execution order.  The ensemble holds no ``Generator``:
``_stream_states`` runs numpy's ``SeedSequence`` hash and PCG64's seeding
step for a whole block of spawn keys at once, and keeps each stream as four
``uint64`` arrays (the high and low words of PCG64's 128-bit state and
increment); ``_uniforms`` steps the streams of a set of rows together and
returns exactly what ``Generator.random()`` would (PCG64 is a 128-bit LCG
with an XSL-RR output; O'Neill, HMC-CS-2014-0905).  ``run_trajectory``
keeps numpy's own generator.  The engine runs in one process; ``--workers``
does not apply to it.

Intended for validation at moderate times on small spaces; asymptotics are
the steady-state solver's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .hilbert import VALIDITY_TOL, CompositeSpace, DimensionError
from .liouville import LindbladTerm, SuperOperator, _check_hermitian

_BISECT_FRACTION = 1e-3   # jump-time tolerance as a fraction of the step size
_BLOCK = 4096             # trajectories stepped together

# numpy's SeedSequence hash (pool of 4 uint32 words), and PCG64's multiplier
# as its high and low 64-bit words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT_HI, _PCG64_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MASK32 = (1 << 32) - 1

_Streams = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

Seed = int | np.random.SeedSequence


class StepSizeUnderflowError(RuntimeError):
    """The norm decayed and no jump could carry it: the unraveling has no jump
    operators, or every jump operator maps the current state to zero."""


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
    _check_hermitian(h)
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


def _identity(psi: np.ndarray) -> np.ndarray:
    """``_matvec(I, psi)``: gemv's zeroed accumulator turns a -0.0 into +0.0."""
    return psi + 0.0


def _gather(cols: np.ndarray, vals: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``_matvec(a, psi)`` for a matrix ``a`` whose row i holds at most the
    one nonzero ``vals[i]``, at column ``cols[i]``: one product per entry."""
    out = np.take(psi, cols, axis=-1)
    out *= vals
    out += 0.0
    return out


def _monomial(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The column and the value of each row's nonzero (0 and 0 in a zero row)
    when ``a`` has at most one nonzero per row, each real or purely
    imaginary; None otherwise."""
    nonzero = a != 0
    if (nonzero.sum(-1) > 1).any() or ((a.real != 0) & (a.imag != 0)).any():
        return None
    cols = nonzero.argmax(-1)
    return cols, a[np.arange(len(a)), cols].astype(complex)


_Action = Callable[[np.ndarray], np.ndarray]


def _action(a: np.ndarray, gather: bool) -> _Action:
    """``psi -> _matvec(a, psi)``, bit for bit.  With ``gather``, the identity
    adds 0.0 and a one-nonzero-per-row matrix gathers and scales; any other
    matrix, or any matrix without ``gather``, is one gemv per state.

    A real or purely imaginary factor makes each entry one product, rounded
    once with or without FMA, as gemv rounds it; adding 0.0 gives the +0.0
    of gemv's zeroed accumulator; and the result is C-ordered, the layout
    whose ``np.vecdot`` rounds like gemv's output."""
    a = np.asarray(a)
    if gather:
        if np.array_equal(a, np.eye(len(a))):
            return _identity
        if (found := _monomial(a)) is not None:
            return partial(_gather, *found)
    return partial(_matvec, a)


def _norm_sq(psi: np.ndarray) -> np.ndarray:
    """Squared norm of a state, or of each row of a block (one dot per state)."""
    return np.vecdot(psi, psi).real


class _Propagator:
    """exp(-i H_eff t) through the eigendecomposition, with an expm fallback.
    The eigenvector matrices are applied by ``_action(..., gather)``."""

    def __init__(self, h_eff: np.ndarray, gather: bool = False):
        self._h = h_eff
        w, v = la.eig(h_eff)
        try:
            vinv = la.inv(v)
            ok = np.abs(v @ np.diag(w) @ vinv - h_eff).max() <= VALIDITY_TOL * max(
                np.abs(h_eff).max(), 1.0
            )
        except la.LinAlgError:
            ok = False
        self._eig = (w, _action(v, gather), _action(vinv, gather)) if ok else None

    def coordinates(self, psi: np.ndarray) -> np.ndarray:
        """What ``evolve`` evolves: a state's (D,) or each row's (m, D)
        eigen-coordinates, or the state itself when H_eff is defective."""
        return psi if self._eig is None else self._eig[2](psi)

    def evolve(self, c: np.ndarray, t: float | np.ndarray) -> np.ndarray:
        """The state whose ``coordinates`` are ``c`` (D,), evolved by ``t``, or
        each row of a block (m, D) evolved by its own t[i] or all by one t."""
        t = np.asarray(t, dtype=float)
        if self._eig is not None:
            w, v, _ = self._eig
            return v(np.exp(-1j * w * t[..., None]) * c)
        # defective H_eff: one matrix exponential per distinct time
        rows = c.reshape(-1, c.shape[-1])
        times = np.broadcast_to(t, c.shape[:-1]).reshape(-1)
        out = np.empty_like(rows)
        for tk in np.unique(times):
            at = times == tk
            out[at] = _matvec(la.expm(-1j * self._h * tk), rows[at])
        return out.reshape(c.shape)


class _Actions:
    """The products of one unraveling's trajectory steps, built once by
    ``_action(..., gather)``: the propagator, each jump operator and each
    observable."""

    def __init__(self, unr: Unraveling, operators: tuple[np.ndarray, ...], gather: bool):
        self.prop = _Propagator(unr.h_eff, gather)
        self.jumps = [_action(j, gather) for j in unr.jumps]
        self.observe = [_action(op, gather) for op in operators]


@dataclass
class TrajectoryRecord:
    seed: Seed
    times: np.ndarray                       # sample grid, multiples of dt
    observables: np.ndarray                 # shape (n_operators, n_times)
    jump_times: list[float] = field(default_factory=list)
    jump_channels: list[int] = field(default_factory=list)


def _expectations(psi: np.ndarray, observe: list[_Action],
                  norm_sq: np.ndarray | None = None) -> np.ndarray:
    """Normalized <op> of a state, shape (n_operators,), or of each row of a
    block, shape (n_operators, m), for the operators whose actions are
    ``observe``.  ``norm_sq`` is the state's squared norm, or each row's,
    where the caller has it already: the block engine carries each row's
    from its last evolve or jump, the value ``_norm_sq`` gives."""
    if norm_sq is None:
        norm_sq = _norm_sq(psi)
    out = np.empty((len(observe), *psi.shape[:-1]))
    for j, op in enumerate(observe):
        out[j] = np.vecdot(psi, op(psi)).real / norm_sq
    return out


def _checked_start(psi0: np.ndarray, t_max: float, dt: float) -> np.ndarray:
    """``psi0`` as a complex array, once it is normalized and the times are valid."""
    psi0 = np.asarray(psi0, dtype=complex)
    norm0 = np.linalg.norm(psi0)
    # written so that a NaN fails each test
    if not abs(norm0 - 1.0) <= VALIDITY_TOL:
        raise ValueError(f"psi0 must be normalized, got norm {norm0}")
    if not (0 < dt < math.inf and 0 <= t_max < math.inf):
        raise ValueError(f"need finite dt > 0 and t_max >= 0, got dt {dt} and t_max {t_max}")
    return psi0


def _generator(seed: Seed) -> np.random.Generator:
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.Generator(np.random.PCG64(seq))


def _draw_channels(u: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per row of ``probs`` (m, K) an index drawn with those probabilities by
    that row's uniform ``u[i]``: the arithmetic of ``rng.choice(K, p=row)``
    for ``u[i] = rng.random()``, without its checks."""
    cdf = np.cumsum(probs, axis=-1)
    cdf /= cdf[:, -1:]
    # the count of cdf entries <= u is searchsorted(u, side="right")
    return (cdf <= u[:, None]).sum(-1)


def _jumps(acts: _Actions, states: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jump every row of ``states`` (m, D), row ``i`` drawing channel k with
    probability ~ ||F_k state||^2 by the uniform ``u[i]``; return the
    channels and the states after those jumps, each renormalized.

    Every channel's jumped state is made, shape (m, K, D); the probabilities
    are their squared norms, each row's K of them contiguous, so a row's
    total is summed alike in a block and alone."""
    candidates = np.stack([jump(states) for jump in acts.jumps], axis=1)
    probs = _norm_sq(candidates)
    total = probs.sum(-1)
    if (total <= 0).any():
        raise StepSizeUnderflowError("norm decayed with no open jump channel")
    channels = _draw_channels(u, probs / total[:, None])
    jumped = candidates[np.arange(len(states)), channels]
    return channels, jumped / np.sqrt(_norm_sq(jumped))[:, None]


def run_trajectory(
    unr: Unraveling,
    psi0: np.ndarray,
    t_max: float,
    dt: float,
    seed: Seed,
    operators: tuple[np.ndarray, ...] = (),
) -> TrajectoryRecord:
    """One stochastic pure-state trajectory, deterministic for a fixed seed.
    Every product is one gemv, the reference of the ensemble's gathers."""
    psi0 = _checked_start(psi0, t_max, dt)
    rng = _generator(seed)
    acts = _Actions(unr, operators, gather=False)
    prop = acts.prop
    n_steps = int(round(t_max / dt))
    times = np.arange(n_steps + 1) * dt
    record = TrajectoryRecord(
        seed=seed, times=times, observables=np.empty((len(operators), n_steps + 1))
    )
    record.observables[:, 0] = _expectations(psi0, acts.observe)

    psi = psi0.copy()
    threshold = rng.random()
    tol = dt * _BISECT_FRACTION
    for k in range(1, n_steps + 1):
        remaining = dt
        elapsed = times[k - 1]
        while True:
            coords = prop.coordinates(psi)
            trial = prop.evolve(coords, remaining)
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
                if _norm_sq(prop.evolve(coords, mid)) > threshold:
                    lo = mid
                else:
                    hi = mid
            tau = 0.5 * (lo + hi)
            channels, jumped = _jumps(acts, prop.evolve(coords, tau)[None],
                                      np.array([rng.random()]))
            psi = jumped[0]
            record.jump_times.append(elapsed + tau)
            record.jump_channels.append(int(channels[0]))
            threshold = rng.random()
            elapsed += tau
            remaining -= tau
            if remaining <= 0:
                break
        record.observables[:, k] = _expectations(psi, acts.observe)
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


def _mul64(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of ``a * b`` for a uint64 array ``a`` and a
    64-bit constant ``b``, from products of 32-bit halves."""
    a1, a0 = a >> np.uint64(32), a & np.uint64(_MASK32)
    b1, b0 = np.uint64(b >> 32), np.uint64(b & _MASK32)
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> np.uint64(32)) + (p01 & np.uint64(_MASK32)) + (p10 & np.uint64(_MASK32))
    high = a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
    return high, a * np.uint64(b)


def _add128(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray,
            b_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a + b`` mod 2**128, each number as its high and low 64-bit words."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _lcg_step(s_hi: np.ndarray, s_lo: np.ndarray, inc_hi: np.ndarray,
              inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's step ``state * mult + inc`` mod 2**128, in 64-bit words."""
    carry, lo = _mul64(s_lo, _PCG64_MULT_LO)
    hi = carry + s_lo * np.uint64(_PCG64_MULT_HI) + s_hi * np.uint64(_PCG64_MULT_LO)
    return _add128(hi, lo, inc_hi, inc_lo)


def _stream_states(base_seed: int, keys: np.ndarray) -> _Streams:
    """The PCG64 streams of ``trajectory_seed(base_seed, k)`` for every spawn
    key ``k`` in ``keys`` (each below 2**32), computed for all keys in one
    pass: ``state_hi, state_lo, inc_hi, inc_lo``, the 64-bit words of each
    stream's ``PCG64(...).state`` state and increment, one element per key.

    numpy's SeedSequence algorithm on uint32 arrays: the entropy words of
    ``base_seed`` padded to the pool size, then the key's word;
    ``mix_entropy``; ``generate_state(4, uint64)``.  Then PCG64's ``srandom``
    seeding step on the 64-bit words.
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
    seed_hi, seed_lo, seq_hi, seq_lo = (
        lo | hi << np.uint64(32) for lo, hi in zip(halves[::2], halves[1::2])
    )
    # srandom: inc = seq << 1 | 1, state = (inc + seed) * mult + inc
    inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
    state = _lcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
    return *state, inc_hi, inc_lo


def _uniforms(streams: _Streams, rows: np.ndarray, n: int) -> np.ndarray:
    """The next ``n`` values of ``Generator.random()`` of each stream in
    ``rows``, shape (n, len(rows)); those streams advance by ``n`` draws.

    A draw steps the LCG, folds the new state's words (XSL), rotates them
    right by the state's top 6 bits (RR), and keeps the top 53 bits of that
    64-bit output as a float in [0, 1)."""
    state_hi, state_lo, inc_hi, inc_lo = streams
    hi, lo, i_hi, i_lo = state_hi[rows], state_lo[rows], inc_hi[rows], inc_lo[rows]
    out = np.empty((n, hi.size))
    for j in range(n):
        hi, lo = _lcg_step(hi, lo, i_hi, i_lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        out[j] = (x >> np.uint64(11)) * 2.0**-53
    state_hi[rows], state_lo[rows] = hi, lo
    return out


def _bisect(
    prop: _Propagator, coords: np.ndarray, threshold: np.ndarray, remaining: np.ndarray, tol: float
) -> np.ndarray:
    """Crossing times of ||psi_i(tau)||^2 = threshold_i in (0, remaining_i] for
    the states whose ``prop.coordinates`` are the rows of ``coords``:
    run_trajectory's bisection, row by row.  Every row is evolved at every
    point, but a closed row's bounds no longer change; rows that start with
    the same interval close together, as each point halves it."""
    lo, hi = np.zeros_like(remaining), remaining.copy()
    open_ = hi - lo > tol
    while open_.any():
        mid = 0.5 * (lo + hi)
        above = _norm_sq(prop.evolve(coords, mid)) > threshold
        lo = np.where(open_ & above, mid, lo)
        hi = np.where(open_ & ~above, mid, hi)
        open_ = hi - lo > tol
    return 0.5 * (lo + hi)


def _run_block(
    acts: _Actions, psi0: np.ndarray, dt: float, streams: _Streams, out: np.ndarray,
) -> None:
    """Step one trajectory per stream from ``psi0`` and write the samples of
    sample steps 1.. into ``out`` (shape (n_streams, n_operators, n_times)).

    A step evolves the whole block by dt and keeps that trial as the block's
    state; only the rows whose squared norm fell to their threshold are
    gathered, and they are bisected, jumped and evolved for the rest of the
    step until none crosses again."""
    prop = acts.prop
    m = out.shape[0]
    psi = np.tile(psi0, (m, 1))
    threshold = _uniforms(streams, np.arange(m), 1)[0]
    tol = dt * _BISECT_FRACTION
    for k in range(1, out.shape[2]):
        coords = prop.coordinates(psi)
        psi = prop.evolve(coords, dt)
        norm_sq = _norm_sq(psi)
        rows = np.flatnonzero(norm_sq <= threshold)    # the trajectories that jump in step k
        coords, remaining = coords[rows], np.full(rows.size, dt)
        while rows.size:
            if not acts.jumps:
                raise StepSizeUnderflowError("norm decayed but the unraveling has no jumps")
            tau = _bisect(prop, coords, threshold[rows], remaining, tol)
            u = _uniforms(streams, rows, 2)     # the channel's draw, then the next threshold
            _, jumped = _jumps(acts, prop.evolve(coords, tau), u[0])
            threshold[rows] = u[1]
            remaining = remaining - tau
            psi[rows], norm_sq[rows] = jumped, _norm_sq(jumped)   # kept if the step ends here
            left = remaining > 0
            rows, remaining = rows[left], remaining[left]
            coords = prop.coordinates(jumped[left])
            trial = prop.evolve(coords, remaining)
            trial_norm_sq = _norm_sq(trial)
            kept = trial_norm_sq > threshold[rows]
            psi[rows[kept]], norm_sq[rows[kept]] = trial[kept], trial_norm_sq[kept]
            rows, coords, remaining = rows[~kept], coords[~kept], remaining[~kept]
        out[:, :, k] = _expectations(psi, acts.observe, norm_sq).T


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
    if not np.isfinite(t_grid).all():   # else the spacing test calls NaN not uniform
        raise ValueError("t_grid must be finite")
    spacing = np.diff(t_grid)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise ValueError("t_grid must be uniform")
    dt = float(spacing[0])
    psi0 = _checked_start(psi0, float(t_grid[-1]), dt)

    acts = _Actions(unr, operators, gather=True)
    samples = np.empty((n_traj, len(operators), t_grid.size))
    samples[:, :, 0] = _expectations(psi0, acts.observe)
    for start in range(0, n_traj, _BLOCK):
        keys = np.arange(start, min(start + _BLOCK, n_traj), dtype=np.uint32)
        _run_block(acts, psi0, dt, _stream_states(base_seed, keys),
                   samples[start:start + keys.size])
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
    # exactly rounded sums keep the mean and the error independent of the
    # trajectories' order; each column is read through one reused buffer
    mean = np.empty((len(operators), samples.shape[2]))
    stderr = np.empty_like(mean)
    column = np.empty(n_traj)
    for j in range(len(operators)):
        for k in range(samples.shape[2]):
            np.copyto(column, samples[:, j, k])
            m = math.fsum(memoryview(column)) / n_traj
            np.square(np.subtract(column, m, out=column), out=column)
            var = math.fsum(memoryview(column)) / (n_traj - 1)
            mean[j, k] = m
            stderr[j, k] = math.sqrt(var / n_traj)
    return EnsembleResult(times=np.asarray(t_grid, dtype=float), mean=mean, stderr=stderr,
                          n_traj=n_traj)
