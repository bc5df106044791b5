"""Steady states of the master equation, plus the exact exponential action as a
time-domain cross-check.

The steady state is the null vector of the generator, computed by replacing
the first scalar equation with the trace constraint and solving the resulting
nonsingular system T.  T splits into connected blocks (the superparity
sectors of a Rabi model), which ``_structure``, cached per sparsity pattern,
lays out once; a ``_Block`` is one of them, its unknowns in that layout plus
the CSR pattern of its submatrix there and where its values sit among the
generator's.  State i belongs to
the Hilbert class of the block that holds ``rho[i, 0]``, and a block's
unknowns are the column-major chunks ``vec(X_pq)`` of its class pairs
(p, q); a pattern whose blocks split some ``X_pq`` has no classes, and its
blocks hold their unknowns in ascending order.  Two solvers share the
layout:

* LAPACK's banded LU with partial pivoting (``zgbtrf``/``zgbtrs``) reads each
  block through a permutation, the reverse Cuthill-McKee order of T's
  pattern, under which the block is a band: its solve gathers the
  right-hand side into that order and scatters the solution back.  Its
  estimate of the LU's work picks the solver.
* GMRES without restart runs on the layout itself.  Its right
  preconditioner takes one Hermitian eigendecomposition per class of the
  Hamiltonian H of ``A = -i H - (1/2) sum_k G_k^+ G_k``, built from the
  Hilbert-space terms the generator carries (H and the jump operators
  ``G_k``), and acts chunk by chunk in H's eigen-coordinates U.  There it
  takes A as diagonal (the secular approximation), its entries ``-i E_i -
  (1/2) (U^+ G^+ G U)_ii`` H's energies and the golden-rule decay rates of
  its eigenstates: it inverts that Sylvester part ``S(X) = A X + X A^+`` on
  the coherences, and solves the Pauli rate matrix, the exact population
  block of T there, on the populations, which S alone holds up by
  denominators as small as the rates.  It is picked where the band's work
  is at least ``_KRYLOV_MIN_WORK`` per class, the measured crossover.  A
  pattern without classes, and a generator that carries no terms, go to
  the band.

Each block reads its values straight from the generator's CSR values,
through gathers cached with the pattern.  The solve runs solver by solver:
GMRES where it is picked, then the band.  Each solves every block still
pending, the trace row's block last, and one product then certifies them
all; a block that fails moves on to the next solver.  A solver lives only
through its own round: GMRES's preconditioner is built as the round starts
and freed as it ends, and every band factor once it has solved its block,
the trace row's block's once it has also refined the solution of e_0
(below).  One
certificate of uniqueness judges every block: for a fixed-seed random
right-hand side r, the block's part x_b of the solution must have
``||r_b - T_b x_b|| <= tol ||r_b||`` and ``eps ||T_b||_F ||x_b|| <= tol
||r_b||``, all from ``T x``, which is ``L x`` with row 0 replaced by ``tr
x``, and norms summed by block label.  As ``vec(1)^T L = 0``, ``T x = 0``
exactly when ``L x = 0`` and ``tr x = 0``, and every Lindblad null space
holds a state of trace 1, so T is singular exactly when the state is not
unique, which is exactly when one of its blocks is; a singular block leaves
a residual of about ``||r_b|| / sqrt(n_b)`` whatever x_b is.  An ``eigh``
that raises sends every block to the band; a GMRES run that stalls or fails
the certificate sends its block alone.  On the band a block that fails the
certificate (ill-conditioned, at rates below ~1e-8, or singular) is factored
again, refined in extended precision with that factor, and its residual
judged in that precision; a failure there, or an exactly zero
pivot, means the state is not unique.  The blocks solved before a zero
pivot are judged first, so the error names the first failing block in
solving order.

``steady_states`` solves generators of one sparsity pattern, such as a
grid's points of one model structure, as one batch, and ``steady_state`` is
its batch of one.  Per point run the factorizations, the solves and the
refinement, and GMRES where picked, so a point's LU arithmetic is that of the
point alone.  Stacked over the batch run the certificate (one product with
the block-diagonal matrix of the points' ``L``, and norms summed by labels
offset by point), the residual ``L vec(rho)``, the validity margins (the
trace, the hermiticity defect and one stacked ``eigvalsh``), the hermitian
part and the normalization.  Each stacked operation sums every point's
numbers in the order the point's own would, so a point's state,
diagnostics and error never depend on its batch mates, and a point that
fails takes its fallback, or raises, alone.  As the points' rounds run
one after another, no two preconditioners or band factors are held at once,
not even through the certificate, and a batch stacks only vectors of length
D^2, D x D states and, for its products, one copy of its points' generator
values.

As T is block-diagonal, the steady state's right-hand side e_0 meets the
trace row's block alone, and iterative refinement with extended-precision
residuals runs on that block in the round that solves it, with that round's
solve, from the solution of e_0 that the band solves together with the
certificate's, in one two-column ``zgbtrs``, and GMRES right after a
certificate solve that did not stall.  The refined solution counts once the
block is certified; should GMRES stall on e_0, the block goes to the band.
At the extreme rate/frequency separations typical here (rates ~1e-6
against frequencies ~1) the replaced system is ill-conditioned, so a small
residual does not bound the error of the solution; the size of the
correction does.  Refinement therefore always applies at least one
correction and stops once a correction is at most ``_REFINE_STOP`` (2^-52,
the rounding floor of double precision) of the solution, after at most
``_REFINE_ROUNDS`` rounds; ``SteadyStateResult`` lists the diagnostics.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import zgbtrf, zgbtrs, zgetrf, zgetrs

from .hilbert import VALIDITY_TOL, _density_margins
from .liouville import SuperOperator, Terms, devectorize, vectorize

_REFINE_ROUNDS = 3
_REFINE_STOP = np.finfo(float).eps   # largest ||dx||/||x|| (max norms) that ends refinement
# GMRES solves a system whose band factors cost this (work) or more per Hilbert class: its
# own fixed costs (an eigendecomposition and a preconditioner chunk per class, a run per
# block) grow with the classes.  The crossover, as measured (warm steady_state medians in
# ms, one BLAS thread, default rates and nbar 0 unless given; * marks the solver picked):
#   structure (classes)           band work   GMRES    band
#   bare full, cutoff 18 (2)      4.3e6        3.8     3.2 *
#   bare full, cutoff 20 (2)      6.4e6        4.2     4.4 *
#   c/d full, cutoff 6 (2)        6.2e6        3.1     3.2 *
#   c/d full, cutoff 5 (2)        7.2e6        3.3     2.6 *
#   bare full, cutoff 22 (2)      9.3e6        4.9 *   6.1
#   bare full, cutoff 17 (2)      9.7e6        3.6 *   4.7
#   c/d full, cutoff 8 (2)        1.6e7        4.3 *   6.8
#   a/b full, cutoff 3 (2)        2.5e7        3.8 *   7.3
#   RWA a/b, cutoff 4 (10)        5.9e6        6.6     4.3 *
#   RWA a/b, cutoff 5 (12)        2.6e7        10.0    13.1 *
#   RWA a/b, cutoff 5, nbar 0.3   2.6e7        12.1    13.2 *
#   RWA a/b, cutoff 6 (14)        8.7e7        14.7 *  35.1
#   RWA c/d, cutoff 16 (19)       1.1e7        16.0    5.4 *
# No one threshold on the total work serves both couplings: RWA c/d, with 19 classes of at
# most 4 states, loses 3x on GMRES above the work where bare full already wins by 20%.  RWA
# a/b at cutoff 5 keeps the band, 25% slower at nbar 0: a threshold low enough to take it
# (2.1e6 per class) would also take c/d full at cutoff 5, where the band wins by 27%.
_KRYLOV_MIN_WORK = 4e6
_KRYLOV_MAX = 100           # GMRES iterations (basis vectors) before a solve counts as stalled
_KRYLOV_TOL = 1e-12         # relative residual of each GMRES solve
_CERTIFICATE_TOL = 1e-6     # relative residual, and error bound, of the random-rhs solve
_CERTIFICATE_SEED = 20100   # seeds the random right-hand side
_DARK_FLOOR = 1e-3          # smallest |lambda_i + conj(lambda_j)|, in units of the smallest rate


class NonUniqueSteadyStateError(RuntimeError):
    """The generator has more than one stationary state."""


class NoConvergenceError(RuntimeError):
    """The solve did not reach the requested residual/validity tolerances."""


@dataclass
class SteadyStateResult:
    rho: np.ndarray
    residual: float             # ||L vec(rho)|| / ||L||_F
    # method ("gmres" or "banded-lu", the trace row's block's solver),
    # krylov_iterations (of every GMRES run: one per block for the
    # certificate, then the trace row's block's solve and refinement of e_0,
    # which run before the certificate judges that block, so they count
    # also where it then fails and the band takes over),
    # certificate (the largest of the blocks' margins, see _certify; a block
    # refined on the band counts its extended-precision residual),
    # refine_rounds, last_correction (||dx||/||x|| of the last round), blocks
    # (T's connected blocks) and the validity margins; a band-solved trace
    # row's block adds bandwidth ((kl, ku) of that block) and lu_nnz (entries
    # stored in its band factor, n_block * (2 kl + ku + 1))
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Block:
    """One connected block of T in the layout of ``_structure``; every array
    is read-only.  ``unknowns`` holds the vec indices of its unknowns in
    layout order.  In that layout its CSR submatrix has the columns
    ``indices`` and the row pointers ``indptr``, and its values are the
    generator's CSR values ``data[gather]``, but at the positions ``ones``,
    the trace row's entries (in the trace row's block alone), which are 1."""

    unknowns: np.ndarray
    gather: np.ndarray
    ones: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    def __post_init__(self):
        for array in (self.unknowns, self.gather, self.ones, self.indices, self.indptr):
            array.flags.writeable = False

    def values(self, data: np.ndarray, dtype: type = complex) -> np.ndarray:
        values = data[self.gather].astype(dtype, copy=False)
        values[self.ones] = 1.0
        return values

    def matrix(self, data: np.ndarray, dtype: type = complex) -> sp.csr_matrix:
        # a shallow copy of the block's CSR pattern, given these values: the
        # constructor would check the pattern again at every point
        matrix = copy.copy(self._pattern)
        matrix.data = self.values(data, dtype)
        return matrix

    @cached_property
    def _pattern(self) -> sp.csr_matrix:
        n = self.unknowns.size
        return sp.csr_matrix((np.ones(self.gather.size, dtype=np.int8), self.indices, self.indptr),
                             shape=(n, n))


def _cut(indptr: np.ndarray, indices: np.ndarray, source: np.ndarray,
         layouts: list[np.ndarray]) -> tuple[_Block, ...]:
    """The blocks of T's CSR pattern ``(indptr, indices)`` whose unknowns, in
    order, are each array of ``layouts``; no entry of a block's rows may
    leave it.  Each row keeps the order of its entries.  T's entry j holds
    the generator's value ``source[j]``, or a one where that is negative."""
    position = np.empty(indptr.size - 1, dtype=np.int32)   # each unknown's place in its block
    blocks = []
    for unknowns in layouts:
        position[unknowns] = np.arange(unknowns.size)
        lengths = indptr[unknowns + 1] - indptr[unknowns]
        local = np.zeros(unknowns.size + 1, dtype=np.int32)
        np.cumsum(lengths, out=local[1:])
        entries = np.repeat(indptr[unknowns] - local[:-1], lengths) + np.arange(local[-1])
        gather = source[entries]
        ones = np.flatnonzero(gather < 0)
        gather[ones] = 0   # any value: it is overwritten by the one
        blocks.append(_Block(unknowns=unknowns, gather=gather, ones=ones,
                             indices=position[indices[entries]], indptr=local))
    return tuple(blocks)


@dataclass(frozen=True)
class _Structure:
    """Both solvers' view of one D^2 x D^2 sparsity pattern; every array is
    read-only.  Block b's unknowns are the entries of ``X_pq`` (rho's rows of
    Hilbert class p and columns of class q, each class's states ascending)
    for each of its class pairs ``pairs[b]``, chunk after chunk, each chunk
    column-major; where a block splits some ``X_pq``, ``classes`` and
    ``pairs`` are None and the unknowns ascending.  The band takes block b's
    positions in the order ``order[b]``, with ``kl[b]`` sub- and ``ku[b]``
    superdiagonals, and ``slots[b]`` places its CSR entries in that band.
    ``label`` is the block of each unknown, and ``entry_block`` that of each
    entry of the generator, its row's, or the extra label ``len(blocks)``
    for row 0, which T replaces."""

    blocks: tuple[_Block, ...]
    classes: tuple[np.ndarray, ...] | None
    pairs: tuple[tuple[tuple[int, int], ...], ...] | None
    order: tuple[np.ndarray, ...]
    kl: tuple[int, ...]
    ku: tuple[int, ...]
    slots: tuple[np.ndarray, ...]
    trace_block: int          # the block that holds row 0
    work: float               # about the band LU's multiply-adds: sum of n_block kl (kl + ku + 1)
    label: np.ndarray
    entry_block: np.ndarray
    rhs: np.ndarray           # the certificate's: fixed-seed random, of length D^2
    rhs_norms: np.ndarray     # ||rhs|| on each block's unknowns
    trace_rhs: np.ndarray     # rhs and e_0 on the trace row's block's unknowns, as two rows


@lru_cache(maxsize=16)
def _structure(dim: int, indptr: bytes, indices: bytes) -> _Structure:
    """The structure of T for the generator's D^2 x D^2 CSR pattern (D is
    ``dim``) with int32 arrays ``indptr`` and ``indices``.  T's pattern is
    that one with row 0 replaced by the vectorized trace row, whose entries
    sit at the populations ``rho[k, k]``, made symmetric: state i is in the
    class of the block that holds vec index i (rho[i, 0]), class pair (p, q)
    in the block of its entries, and the band order is the pattern's reverse
    Cuthill-McKee order (Cuthill & McKee 1969, reversed as George 1971).  It
    depends on the pattern alone, so it is cached on the pattern's bytes."""
    # imported here: a process that never factors (the jump engine) skips it
    from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

    n = dim * dim
    indptr = np.frombuffer(indptr, dtype=np.int32)
    indices = np.frombuffer(indices, dtype=np.int32)
    # T's CSR pattern; its entry j >= dim is the generator's entry j - dim + start
    start = int(indptr[1])
    t_indptr = indptr - np.int32(start - dim)
    t_indptr[0] = 0
    t_indices = np.concatenate([np.arange(dim) * (dim + 1), indices[start:]], dtype=np.int32)
    source = np.arange(start - dim, indices.size, dtype=np.int32)
    source[:dim] = -1
    pattern = sp.csr_matrix((np.ones(t_indices.size, dtype=np.int8), t_indices, t_indptr),
                            shape=(n, n))
    pattern = (pattern + pattern.T).tocsr()
    k, labels = connected_components(pattern, directed=False)
    bounds = np.cumsum(np.bincount(labels))[:-1]
    owner = labels.reshape(dim, dim, order="F")   # owner[i, j]: the block of rho[i, j]
    label = np.unique(owner[:, 0], return_inverse=True)[1]
    pair_block = np.zeros((label.max() + 1,) * 2, dtype=np.intp)
    pair_block[label[:, None], label[None, :]] = owner
    classes = pairs = None
    if np.array_equal(pair_block[label[:, None], label[None, :]], owner):
        classes = tuple(np.flatnonzero(label == p) for p in range(pair_block.shape[0]))
        for states in classes:
            states.flags.writeable = False
        pairs = tuple(tuple((int(p), int(q)) for p, q in zip(*np.nonzero(pair_block == b)))
                      for b in range(k))
        layouts = [np.concatenate([(classes[p][:, None] + dim * classes[q]).ravel(order="F")
                                   for p, q in block_pairs]) for block_pairs in pairs]
    else:
        layouts = np.split(np.argsort(labels, kind="stable"), bounds)
    blocks = _cut(t_indptr, t_indices, source, layouts)
    # RCM visits one component at a time; the stable sort only makes the
    # blocks' contiguity independent of that
    rcm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
    rcm = rcm[np.argsort(labels[rcm], kind="stable")]
    place = np.empty(n, dtype=np.intp)   # each unknown's place in its block's band
    for band in np.split(rcm, bounds):
        place[band] = np.arange(band.size)
    order, kl, ku, slots, work = [], [], [], [], 0
    for block in blocks:
        rank = place[block.unknowns]   # the band place of each position
        order.append(np.argsort(rank))   # the position at each band place
        row, col = np.repeat(rank, np.diff(block.indptr)), rank[block.indices]
        low, up = int(np.max(row - col, initial=0)), int(np.max(col - row, initial=0))
        # A[row, col] sits at band row low + up + row - col of column col, in
        # the Fortran-ordered band, flattened
        slots.append(col * (2 * low + up + 1) + low + up + row - col)
        for array in order[-1], slots[-1]:
            array.flags.writeable = False
        kl.append(low)
        ku.append(up)
        work += rank.size * low * (low + up + 1)
    entry_block = np.append(np.full(start, k, dtype=np.int32),
                            labels[np.repeat(np.arange(1, n), np.diff(indptr[1:]))])
    rng = np.random.default_rng(_CERTIFICATE_SEED)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rhs_norms = np.sqrt(np.bincount(labels, weights=np.abs(rhs) ** 2, minlength=k))
    trace = blocks[labels[0]].unknowns
    trace_rhs = np.stack([rhs[trace], trace == 0]).astype(complex)
    for array in labels, entry_block, rhs, rhs_norms, trace_rhs:
        array.flags.writeable = False
    return _Structure(blocks=blocks, classes=classes, pairs=pairs, order=tuple(order),
                      kl=tuple(kl), ku=tuple(ku), slots=tuple(slots),
                      trace_block=int(labels[0]), work=float(work), label=labels,
                      entry_block=entry_block, rhs=rhs, rhs_norms=rhs_norms,
                      trace_rhs=trace_rhs)


def _stacked(mats: Sequence[sp.csr_matrix]) -> sp.csr_matrix:
    """The block-diagonal matrix of generators of one CSR pattern: each row
    sums its entries in the order of its generator's own, so a product with
    it gives each generator's product bit for bit, and its values are each
    generator's in turn."""
    if len(mats) == 1:
        return mats[0]
    first, count = mats[0], len(mats)
    n = first.shape[0]
    index = np.int32 if count * max(n, first.nnz) < 2 ** 31 else np.int64
    step = np.arange(count, dtype=index)[:, None]
    indptr = np.concatenate([np.zeros(1, dtype=index),
                             (first.indptr[1:] + first.nnz * step).ravel()])
    indices = (first.indices + n * step).ravel()
    return sp.csr_matrix((np.concatenate([mat.data for mat in mats]), indices, indptr),
                         shape=(count * n, count * n))


def _squares(values: np.ndarray, labels: np.ndarray, bins: int) -> np.ndarray:
    """Per row of ``values``, the sums of ``|value|^2`` by label, shape (rows,
    bins): one ``bincount`` with each row's labels offset by its row, which
    sums each bin in the order that row's own ``bincount`` would."""
    rows = values.shape[0]
    offsets = (labels + bins * np.arange(rows, dtype=np.intp)[:, None]).ravel()
    return np.bincount(offsets, weights=(values.real ** 2 + values.imag ** 2).ravel(),
                       minlength=rows * bins).reshape(rows, bins)


def _certify(structure: _Structure, stacked: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """The certificate's margin of every block (columns) of every generator
    of the pattern of ``structure`` (rows), given their ``_stacked`` matrix
    and ``x[p]`` that holds each block's solution x_b of ``T_b x_b = r_b`` on
    its unknowns (r is the certificate's rhs, T the trace-replaced system of
    the generator): the larger of ``||r_b - T_b x_b|| / ||r_b||`` and ``eps
    ||T_b||_F ||x_b|| / ||r_b||``.  One product serves every block of every
    generator: ``T x`` is ``L x`` with row 0 replaced by ``tr x``, and as T
    is block-diagonal its part on a block's unknowns is ``T_b x_b``; the
    norms, ``||T_b||_F`` too from the stacked values, are summed by block
    label.  A generator's margins are those it has alone."""
    k, trace = len(structure.blocks), structure.trace_block
    count, n = x.shape
    dim = math.isqrt(n)
    residual = (stacked @ x.ravel()).reshape(count, n)
    # summed in order, as T's CSR row 0 would be
    residual[:, 0] = np.cumsum(x[:, ::dim + 1], axis=1)[:, -1]
    np.subtract(structure.rhs, residual, out=residual)
    # per generator: offsets and weights for all of them would be the largest
    # arrays of a batch
    norms = np.stack([np.bincount(structure.entry_block, weights=values.real ** 2
                                  + values.imag ** 2, minlength=k + 1)[:k]
                      for values in stacked.data.reshape(count, -1)])
    norms[:, trace] += dim   # the trace row's ones
    return np.maximum(np.sqrt(_squares(residual, structure.label, k)), np.finfo(float).eps
                      * np.sqrt(norms * _squares(x, structure.label, k))) / structure.rhs_norms


def _factor(structure: _Structure, b: int,
            data: np.ndarray) -> Callable[..., np.ndarray]:
    """The solve of block b on its own unknowns, by ``zgbtrf`` of the block
    of the generator's CSR values ``data`` in its ``(2 kl + ku + 1, n_block)``
    band: it gathers the right-hand side, a vector or a matrix of one column
    per right-hand side, into band order and scatters the solution back, and
    takes GMRES's tolerance and ignores it, as it is direct.  An exactly zero
    pivot raises ``NonUniqueSteadyStateError``."""
    kl, ku, order = structure.kl[b], structure.ku[b], structure.order[b]
    ab = np.zeros((2 * kl + ku + 1) * order.size, dtype=complex)
    ab[structure.slots[b]] = structure.blocks[b].values(data)
    lu, ipiv, info = zgbtrf(ab.reshape((2 * kl + ku + 1, -1), order="F"), kl, ku,
                            overwrite_ab=1)
    if info > 0:
        raise NonUniqueSteadyStateError(
            f"exactly zero pivot in block {b} of {len(structure.blocks)}; "
            f"the stationary state is not unique")

    def solve(r: np.ndarray, tol: float | None = None) -> np.ndarray:
        x = np.empty_like(r)
        x[order] = zgbtrs(lu, kl, ku, r[order], ipiv)[0]
        return x

    return solve


def _drift(terms: Terms) -> tuple[np.ndarray, sp.csr_matrix]:
    """``A = -i H - (1/2) sum_k G_k^+ G_k``, dense, and the jump operators
    ``G_k = sqrt(r_k) F_k`` stacked as the rows of one sparse ``G``, of a
    generator's ``terms``, so that the generator is ``L(X) = A X + X A^+ +
    sum_k G_k X G_k^+`` and ``sum_k G_k^+ G_k = G^+ G``."""
    a = np.zeros(terms.operators[0].shape, dtype=complex)
    jumps = []
    for op, dissipative, c in zip(terms.operators, terms.dissipative, terms.coefficients):
        if dissipative and c:
            jumps.append(math.sqrt(c) * op)
        elif c:
            a -= 1j * c * op.toarray()
    g = sp.vstack(jumps or [sp.csr_matrix((0, a.shape[0]), dtype=complex)], format="csr")
    a -= 0.5 * (g.conj().T @ g).toarray()
    return a, g


def _populations(values: np.ndarray, u: np.ndarray, a: np.ndarray, gu: np.ndarray,
                 classes: tuple[np.ndarray, ...]) -> np.ndarray:
    """The population block of T in the coordinates of the unitary ``u``, the
    Pauli rate matrix there: entry (i, j) is entry (i, i) of ``U^+ T(u_j
    u_j^+) U``, for ``u`` block-diagonal over the ``classes`` and indexed by
    state, ``values`` the diagonal of ``U^+ A U`` (A of ``_drift``) and ``gu``
    the stacked jump operators of ``_drift`` times U, the rows of each
    ``G_k U`` in turn.  With ``L(X) = A X + X A^+ + sum_k G_k X G_k^+`` that
    is ``diag(values + conj(values)) + sum_k |U^+ G_k U|^2``; as row 0 of T is
    the trace, ``T(Y) = L(Y) + E_00 (tr Y - L(Y)[0, 0])`` adds ``|U[0, :]|^2``
    times ``||u_j||^2 - L(u_j u_j^+)[0, 0]``, where ``L(u_j u_j^+)[0, 0] =
    2 Re((A u_j)_0 conj(u_0j)) + sum_k |(G_k u_j)_0|^2``."""
    dim = values.size
    gu = gu.reshape(-1, dim, dim)   # gu[k] = G_k U
    ugu = np.empty_like(gu)
    for states in classes:   # U is block-diagonal: one gemm per class and jump
        ugu[:, states] = u[np.ix_(states, states)].conj().T @ gu[:, states]
    diagonal = 2.0 * (a[0] @ u * u[0].conj()).real + (np.abs(gu[:, 0]) ** 2).sum(axis=0)
    populations = np.outer(np.abs(u[0]) ** 2, (np.abs(u) ** 2).sum(axis=0) - diagonal)
    populations += (ugu.real ** 2 + ugu.imag ** 2).sum(axis=0)
    populations[np.diag_indices(dim)] += 2.0 * values.real
    return populations


def _sylvester_inverse(a: np.ndarray, jumps: sp.csr_matrix,
                       classes: tuple[np.ndarray, ...],
                       pairs: tuple[tuple[tuple[int, int], ...], ...]) -> list[Callable]:
    """For each block, whose unknowns are the chunks vec(X_pq) of its class
    pairs ``pairs[b]`` (as ``_Structure`` lays them out), the map of its part of
    vec(X) to its part of the preconditioned vec(Y), with the entries of
    ``A`` between the ``classes`` dropped.  One Hermitian eigendecomposition
    ``H_pp = U_p diag(E_p) U_p^+`` per class, of ``H = (i/2) (A - A^+)``
    (after Bartels & Stewart, Commun. ACM 15, 820 (1972)), puts ``C = U_p^+
    X_pq U_q`` in H's eigen-coordinates, and ``Y_pq = U_p Z U_q^+``.  There A
    is taken as its secular part ``U diag(lambda) U^+``, whose eigenvalues
    ``lambda_i = -i E_i - (1/2) (U^+ Gamma U)_ii``, ``Gamma = -(A + A^+) =
    G^+ G``, hold the first-order (golden-rule) decay rates of H's
    eigenstates.  Off the diagonal of a pair (p, p), ``Z = C / (lambda_p,i +
    conj(lambda_q,j))`` inverts ``S(Y) = U Lambda U^+ Y + Y U Lambda^+ U^+``,
    the division a product with reciprocals taken once; a dark state makes a
    denominator vanish, so every denominator is floored at ``_DARK_FLOOR``
    times the smallest decay rate ``-2 Re lambda`` of all classes.  The
    populations, the diagonals of a block's pairs (p, p), solve the block's
    exact population block of T in these coordinates, the Pauli rate matrix
    of ``_populations`` in H's eigenbasis (Breuer & Petruccione, The Theory
    of Open Quantum Systems, sec. 3.3), LU-factored once; if a pivot of that
    LU falls below the floor, as where populations are stationary, they
    divide by the floored denominators instead.  Raises ``LinAlgError`` if
    ``eigh`` does."""
    dim = a.shape[0]
    h = 0.5j * (a - a.conj().T)
    energies, u = zip(*(np.linalg.eigh(h[np.ix_(c, c)]) for c in classes))
    # H's eigenvalues and eigenvectors indexed by state
    energy, u_all = np.empty(dim), np.zeros_like(a)
    for c, energies_p, u_p in zip(classes, energies, u):
        energy[c] = energies_p
        u_all[np.ix_(c, c)] = u_p
    gu = jumps @ u_all
    # (U^+ Gamma U)_ii is the squared norm of column i of the stacked G U
    lam = -1j * energy - 0.5 * (gu.real ** 2 + gu.imag ** 2).sum(axis=0)
    values = [lam[c] for c in classes]
    rates = -2.0 * lam.real
    scale = float(np.abs(lam).max())
    floor = _DARK_FLOOR * np.min(rates[rates > dim * np.finfo(float).eps * scale],
                                 initial=scale)
    populations = _populations(lam, u_all, a, gu, classes)
    u_c = [m.conj() for m in u]

    def block(block_pairs: tuple[tuple[int, int], ...]) -> Callable[[np.ndarray], np.ndarray]:
        chunks, inverses, diagonals, start = [], [], [], 0
        for p, q in block_pairs:
            denominators = values[p][:, None] + values[q].conj()[None, :]
            denominators[np.abs(denominators) < floor] = -floor
            stop = start + denominators.size
            # read row by row, the column-major chunk vec(X_pq) is X_pq^T, so
            # the chunk takes Z^T = U_q^T X^T conj(U_p) and Y^T = conj(U_q) Z^T U_p^T
            chunks.append((slice(start, stop), denominators.shape[::-1], u[q].T, u_c[p], u_c[q],
                           u[p].T))
            inverses.append((1.0 / denominators).reshape(-1, order="F"))
            if p == q:
                diagonals.append(start + np.arange(values[p].size) * (values[p].size + 1))
            start = stop
        inverses = np.concatenate(inverses)
        lu = None
        if diagonals:
            diagonal = np.concatenate(diagonals)
            states = np.concatenate([classes[p] for p, q in block_pairs if p == q])
            lu, pivots, _ = zgetrf(populations[np.ix_(states, states)], overwrite_a=1)
            if not np.abs(np.diagonal(lu)).min() >= floor:
                lu = None

        def apply(x: np.ndarray) -> np.ndarray:
            z = np.empty_like(x)
            for span, shape, u_t_q, u_c_p, _, _ in chunks:
                np.matmul(u_t_q, x[span].reshape(shape) @ u_c_p, out=z[span].reshape(shape))
            if lu is not None:
                secular = zgetrs(lu, pivots, z[diagonal])[0]
            z *= inverses
            if lu is not None:
                z[diagonal] = secular
            y = np.empty_like(x)
            for span, shape, _, _, u_c_q, u_t_p in chunks:
                np.matmul(u_c_q @ z[span].reshape(shape), u_t_p, out=y[span].reshape(shape))
            return y

        return apply

    return [block(block_pairs) for block_pairs in pairs]


def _gmres(system: sp.csr_matrix, precondition: Callable[[np.ndarray], np.ndarray],
           b: np.ndarray, tol: float) -> tuple[np.ndarray | None, int]:
    """(x, iterations) with ``||b - system x|| <= tol ||b||`` (as GMRES
    estimates it), by GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7,
    856 (1986)) right-preconditioned by ``precondition``, without restart;
    x is None if ``_KRYLOV_MAX`` iterations do not reach ``tol``."""
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b), 0
    m = min(_KRYLOV_MAX, b.size)
    # the basis vectors and their preconditioned images, in buffers that double
    # when full: numpy backs an array of 4 MiB or more with huge pages, whose
    # zeroing on first touch cost more than a short run's iterations
    basis = np.empty((min(m, 8) + 1, b.size), dtype=complex)
    preconditioned = np.empty_like(basis)
    h = np.zeros((m + 1, m), dtype=complex)   # Hessenberg, rotated to triangular
    cos = np.zeros(m)
    sin = np.zeros(m, dtype=complex)
    g = np.zeros(m + 1, dtype=complex)        # beta e_1, rotated alike
    g[0] = beta
    basis[0] = b / beta
    for k in range(m):
        if k + 1 == basis.shape[0]:
            basis, preconditioned = (np.concatenate([a, np.empty_like(a)])
                                     for a in (basis, preconditioned))
        preconditioned[k] = precondition(basis[k])
        w = system @ preconditioned[k]
        col = h[:k + 1, k]
        for _ in range(2):   # classical Gram-Schmidt, twice for orthogonality
            c = (basis[:k + 1] @ w.conj()).conj()
            w -= c @ basis[:k + 1]
            col[:k + 1] += c
        norm_w = float(np.linalg.norm(w))
        for j in range(k):
            col[j], col[j + 1] = (cos[j] * col[j] + sin[j] * col[j + 1],
                                  -sin[j].conjugate() * col[j] + cos[j] * col[j + 1])
        top = complex(col[k])
        radius = math.hypot(abs(top), norm_w)
        if radius == 0.0:   # the preconditioned system is singular on the basis
            return None, k + 1
        phase = top / abs(top) if top else 1.0
        cos[k] = abs(top) / radius
        sin[k] = phase * norm_w / radius
        col[k] = phase * radius   # and h[k + 1, k], never stored, is rotated to 0
        g[k + 1] = -sin[k].conjugate() * g[k]
        g[k] *= cos[k]
        if abs(g[k + 1]) <= tol * beta:
            y = solve_triangular(h[:k + 1, :k + 1], g[:k + 1], check_finite=False)
            return y @ preconditioned[:k + 1], k + 1
        basis[k + 1] = w / norm_w
    return None, m


def _krylov_solvers(terms: Terms, structure: _Structure, data: np.ndarray,
                    iterations: list[int]) -> Callable[[int], Callable] | None:
    """The solver of each block of ``structure`` of the trace-replaced system
    (CSR values ``data``) of the generator of ``terms``: it maps b to the
    solve of block b, which maps a right-hand side and a tolerance
    (``_KRYLOV_TOL`` unless given) to GMRES's solution, preconditioned by
    ``_sylvester_inverse``, or to None where GMRES stalls.  Each GMRES run
    appends its iterations to ``iterations``.  None if ``eigh`` raises."""
    try:
        preconditioners = _sylvester_inverse(*_drift(terms), structure.classes, structure.pairs)
    except np.linalg.LinAlgError:
        return None

    def solver(b: int) -> Callable[..., np.ndarray | None]:
        system, precondition = structure.blocks[b].matrix(data), preconditioners[b]

        def solve(r: np.ndarray, tol: float = _KRYLOV_TOL) -> np.ndarray | None:
            x, k = _gmres(system, precondition, r, tol)
            iterations.append(k)
            return x

        return solve

    return solver


def _refine(solve: Callable[[np.ndarray], np.ndarray | None], rhs: np.ndarray,
            x: np.ndarray | None, system_ext: sp.csr_matrix, dtype: type = complex
            ) -> tuple[np.ndarray, int, float] | None:
    """(x, rounds, last correction): ``x``, the solution ``solve(rhs)``,
    refined with the residuals of the extended-precision system
    ``system_ext`` and summed in ``dtype``; None if x or a solve is None."""
    if x is None:
        return None
    x = x.astype(dtype, copy=False)
    rhs_ext = rhs.astype(np.clongdouble)
    rounds = 0
    correction = math.inf
    if np.all(np.isfinite(x)):
        for rounds in range(1, _REFINE_ROUNDS + 1):
            r = rhs_ext - system_ext @ x.astype(np.clongdouble)
            dx = solve(np.asarray(r, dtype=complex))
            if dx is None:
                return None
            x = x + dx
            correction = float(np.abs(dx).max()) / max(float(np.abs(x).max()), 1e-300)
            if correction <= _REFINE_STOP:
                break
    return x, rounds, correction


def _refined_margin(structure: _Structure, b: int, data: np.ndarray, solve: Callable,
                    x: np.ndarray) -> float:
    """The certificate's residual on band block b, whose solution ``x`` (on
    the block's unknowns of a vector of length D^2) failed it: refined in
    extended precision with the block's band solve ``solve``, and judged in
    that precision (NaN fails too).  Raises ``NonUniqueSteadyStateError`` if it
    fails again."""
    unknowns = structure.blocks[b].unknowns
    part = structure.rhs[unknowns]
    system_ext = structure.blocks[b].matrix(data, np.clongdouble)
    refined = _refine(solve, part, x[unknowns], system_ext, np.clongdouble)[0]
    margin = float(np.linalg.norm(part - system_ext @ refined) / np.linalg.norm(part))
    if not margin <= _CERTIFICATE_TOL:
        raise NonUniqueSteadyStateError(
            f"certificate failed in block {b} of {len(structure.blocks)}: relative residual "
            f"{margin:.1e} after refinement (tolerance {_CERTIFICATE_TOL:.0e}); "
            f"the stationary state is not unique")
    return margin


class _Solve:
    """One generator's solve in a batch of its pattern: its solvers, GMRES
    where it applies, then the band, each run on the blocks still pending by
    ``run`` and judged by ``judge`` on the certificate's margins of its
    round, which the batch takes for all its generators at once.  A solver
    lives only through its own round: no band factor, and no GMRES
    preconditioner, outlasts the ``run`` that made it."""

    def __init__(self, structure: _Structure, mat: sp.csr_matrix, terms: Terms | None):
        self.structure = structure
        # the blocks gather the trace row's ones over some value, which must exist
        self.data = data = mat.data if mat.nnz else np.zeros(1, dtype=complex)
        self.band = lambda b: _factor(structure, b, data)
        self.solvers = [self.band]
        self.iterations: list[int] = []
        if terms is not None and structure.classes is not None and (
                structure.work >= _KRYLOV_MIN_WORK * len(structure.classes)):
            self.solvers.insert(0, partial(_krylov_solvers, terms, structure, data,
                                           self.iterations))
        k, trace = len(structure.blocks), structure.trace_block
        self.pending = sorted(range(k), key=lambda b: b == trace)
        self.margins = np.zeros(k)
        self.refined = None

    def run(self, x: np.ndarray) -> None:
        """Solve the pending blocks with the next solver, the trace row's
        last, into ``x``, the point's certificate solution, up to an exactly
        zero pivot, which ``judge`` raises once the blocks before it are
        judged.  GMRES's preconditioner is built as its round starts (if
        ``eigh`` raises, the band takes the round) and freed as it ends; each
        band factor is freed before the next block is factored.  On either
        solver the trace row's block refines its solution of e_0 at once,
        for use if the block is certified: the band solves it together with
        the certificate's rhs in one call, GMRES after a certificate solve
        that did not stall."""
        structure, trace = self.structure, self.structure.trace_block
        solver = self.solvers.pop(0)
        if solver is not self.band:
            solver = solver() or self.solvers.pop(0)
        self.round_method = "banded-lu" if solver is self.band else "gmres"
        self.solved, self.zero_pivot = [], None
        for b in self.pending:
            try:
                solve = solver(b)
            except NonUniqueSteadyStateError as exc:
                self.zero_pivot = exc
                break
            unknowns = structure.blocks[b].unknowns
            if solver is self.band and b == trace:
                x[unknowns], part = solve(structure.trace_rhs.T).T
            else:
                part = solve(structure.rhs[unknowns], _CERTIFICATE_TOL / 2)
                x[unknowns] = 0.0 if part is None else part   # a stall fails the certificate
                if b == trace and part is not None:
                    part = solve(structure.trace_rhs[1])
            if b == trace:
                # T is block-diagonal, so the state is exactly 0 outside the
                # trace row's block, whose solution of e_0, now ``part``, is
                # refined with the solve that certifies the block
                self.refined = _refine(solve, structure.trace_rhs[1], part,
                                       structure.blocks[b].matrix(self.data, np.clongdouble))
            self.solved.append(b)
            del solve

    def judge(self, x: np.ndarray, margins: np.ndarray) -> None:
        """Judge the blocks of the last ``run`` by their certificate's
        ``margins``; a certified trace row's block sets ``method`` to its
        round's solver.  On the band, a block that fails is factored again
        and refined in extended precision; it raises
        ``NonUniqueSteadyStateError`` if it fails again.  A block that fails
        GMRES's certificate, or whose e_0 GMRES stalled on, stays pending."""
        trace, pending = self.structure.trace_block, []
        for b in self.solved:
            margin = margins[b]
            if self.round_method == "banded-lu" and not margin <= _CERTIFICATE_TOL:
                margin = _refined_margin(self.structure, b, self.data, self.band(b), x)
            self.margins[b] = margin
            if not margin <= _CERTIFICATE_TOL or b == trace and self.refined is None:
                pending.append(b)
            elif b == trace:
                self.method = self.round_method
        if self.zero_pivot is not None:
            raise self.zero_pivot
        self.pending = pending


def _solve_batch(structure: _Structure, mats: list[sp.csr_matrix],
                 terms: list[Terms | None]) -> list[SteadyStateResult | Exception]:
    """The steady state, or the error, of each generator ``mats[p]`` (with
    its ``terms[p]``) of the pattern of ``structure``.  Each round runs every
    unfinished point's next solver, one point after another, then takes one
    certificate for them all and judges each point on its own; a point that
    raises is done, with its error.  The states of the points solved are then
    checked and normalized together."""
    dim, n = math.isqrt(structure.label.size), structure.label.size
    k, trace = len(structure.blocks), structure.trace_block
    outcomes: list = [None] * len(mats)
    solves = [_Solve(structure, mat, point_terms) for mat, point_terms in zip(mats, terms)]
    x = np.zeros((len(mats), n), dtype=complex)   # each point's certificate solution
    active = list(range(len(mats)))
    first = None   # the first round's points and their block-diagonal matrix
    while active:
        for p in list(active):
            try:
                solves[p].run(x[p])
            except Exception as exc:
                outcomes[p] = exc
                active.remove(p)
        if not active:
            break
        stacked = _stacked([mats[p] for p in active])
        if first is None:
            first = tuple(active), stacked
        margins = _certify(structure, stacked, x[active])
        for p, point_margins in zip(active, margins):
            try:
                solves[p].judge(x[p], point_margins)
            except Exception as exc:
                outcomes[p] = exc
        active = [p for p in active if outcomes[p] is None and solves[p].pending]

    solved = [p for p, outcome in enumerate(outcomes) if outcome is None]
    if not solved:
        return outcomes
    block = structure.blocks[trace]
    x = np.zeros((len(solved), n), dtype=complex)
    x[:, block.unknowns] = [solves[p].refined[0] for p in solved]
    raw = x.reshape(-1, dim, dim).transpose(0, 2, 1)   # each point's devectorize
    rho = 0.5 * (raw + raw.conj().transpose(0, 2, 1))   # the hermitian parts, which the checks read too
    # the first round's matrix, unless a point has failed since
    stacked = first[1] if tuple(solved) == first[0] else _stacked([mats[p] for p in solved])
    products = (stacked @ rho.transpose(0, 2, 1).ravel()).reshape(-1, n)
    del first, stacked   # kept through the validity checks, it would raise the peak memory
    checked = []
    for i, p in enumerate(solved):
        # Frobenius, as the matrix is canonical
        residual = float(np.linalg.norm(products[i])) / max(
            float(np.linalg.norm(mats[p].data)), 1e-300)
        if residual <= VALIDITY_TOL:
            checked.append((i, p, residual))
        else:
            outcomes[p] = NoConvergenceError(f"residual {residual:.3e} exceeds {VALIDITY_TOL:.0e}")
    rows = [i for i, _, _ in checked]
    raw, rho = raw[rows], rho[rows]
    validity = _density_margins(raw, rho)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    kl, ku = structure.kl[trace], structure.ku[trace]
    band = {"method": "banded-lu", "blocks": k, "bandwidth": (kl, ku),
            "lu_nnz": block.unknowns.size * (2 * kl + ku + 1)}
    for j, ((_, p, residual), margins) in enumerate(zip(checked, validity)):
        if isinstance(margins, ValueError):
            error = NoConvergenceError(f"state fails validity checks: {margins}")
            error.__cause__ = margins
            outcomes[p] = error
            continue
        solve = solves[p]
        _, rounds, correction = solve.refined
        outcomes[p] = SteadyStateResult(
            rho=rho[j],
            residual=residual,
            diagnostics={
                **(band if solve.method == "banded-lu" else {"method": "gmres", "blocks": k}),
                "krylov_iterations": sum(solve.iterations),
                "certificate": float(solve.margins.max()),
                "refine_rounds": rounds,
                "last_correction": correction,
                **margins,
            },
        )
    return outcomes


def steady_states(gens: Sequence[SuperOperator]) -> list[SteadyStateResult | Exception]:
    """The unique stationary density matrix of each trace-preserving
    generator, or the error ``steady_state`` raises for it, in order.

    Generators of one sparsity pattern, such as a grid's points of one model
    structure, are solved as one batch (``_solve_batch``): each point keeps
    its own factorizations, solves and refinement, and the certificate, the
    residual and the validity checks run on the stacked points.  A point's
    state, diagnostics and error do not depend on the other generators of the
    call.  No generator is modified.
    """
    outcomes: list = [None] * len(gens)
    groups: dict[int, tuple[_Structure, list[int]]] = {}
    mats: list = [None] * len(gens)
    for p, gen in enumerate(gens):
        try:
            mat = gen.matrix.tocsr()
            if not mat.has_canonical_format:   # duplicate or unsorted entries: sum them in a copy
                mat = mat.copy()
                mat.sum_duplicates()
            mats[p] = mat
            structure = _structure(gen.dim, mat.indptr.astype(np.int32, copy=False).tobytes(),
                                   mat.indices.astype(np.int32, copy=False).tobytes())
            groups.setdefault(id(structure), (structure, []))[1].append(p)
        except Exception as exc:
            outcomes[p] = exc
    for structure, members in groups.values():
        results = _solve_batch(structure, [mats[p] for p in members],
                               [gens[p].terms for p in members])
        for p, result in zip(members, results):
            outcomes[p] = result
    return outcomes


def steady_state(gen: SuperOperator) -> SteadyStateResult:
    """Unique stationary density matrix of a trace-preserving generator, the
    batch of one of ``steady_states``.

    Raises ``NonUniqueSteadyStateError`` when a block of the trace-replaced
    system fails the certificate, and ``NoConvergenceError`` when the
    solution of a certified system fails the residual tolerance
    ``VALIDITY_TOL`` or ``validate_density_matrix``.  ``gen`` is not
    modified.
    """
    (result,) = steady_states([gen])
    if isinstance(result, Exception):
        raise result
    return result


def evolve(gen: SuperOperator, rho0: np.ndarray, t_final: float) -> np.ndarray:
    """rho(t_final) = exp(L t_final) rho0, by the exact action of the sparse
    exponential (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).

    Independent of the null-vector solve and of the jump engine, both of
    which it cross-checks.  Raises ``NoConvergenceError`` when the trace
    drifts by more than ``VALIDITY_TOL``: the generator does not preserve it.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    rho = devectorize(spla.expm_multiply(gen.matrix * t_final, vectorize(rho0)))
    drift = abs(np.trace(rho) - np.trace(rho0))
    if drift > VALIDITY_TOL:
        raise NoConvergenceError(f"trace drifted by {drift:.3e} over the run")
    return rho

