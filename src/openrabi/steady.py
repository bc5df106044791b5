"""Steady states of the master equation, plus the exact exponential action as a
time-domain cross-check.

The steady state is the null vector of the generator, computed by replacing
the first scalar equation with the trace constraint and solving the resulting
nonsingular system by LAPACK's banded LU with partial pivoting
(``zgbtrf``/``zgbtrs``).  The rows and columns are taken in the reverse
Cuthill-McKee order of the system's sparsity pattern, under which the system
is a band, and the pattern splits into connected blocks (the superparity
sectors of a Rabi model) that the order keeps contiguous.  Each block is
factored on its own: every block without the trace row has a zero right-hand
side, so its part of the solution is exactly zero, and it is factored only to
show that it is nonsingular and then freed; the trace row's block is factored
last and kept.  Order, blocks and bandwidths depend on the pattern alone, so
``_band_structure`` computes them once per pattern and caches them.
Iterative refinement with extended-precision residuals follows.  At the
extreme rate/frequency separations typical here (rates ~1e-6 against
frequencies ~1) the replaced system is ill-conditioned, so a small residual
does not bound the error of the solution; the size of the correction does.
Refinement therefore always applies at least one correction and stops once a
correction is at most ``_REFINE_STOP`` (2^-52, the rounding floor of double
precision) of the solution, after at most ``_REFINE_ROUNDS`` rounds.  The
result's diagnostics report the rounds, the last correction, the blocks and
the size of the kept factor.

A failed solve is sorted by one probe: more than one zero eigenvalue of the
generator, found by shift-invert ``eigs``, means the state is not unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import zgbtrf, zgbtrs

from .hilbert import VALIDITY_TOL, validate_density_matrix
from .liouville import SuperOperator, devectorize, vectorize

_REFINE_ROUNDS = 3
_REFINE_STOP = np.finfo(float).eps   # largest ||dx||/||x|| (max norms) that ends refinement


class NonUniqueSteadyStateError(RuntimeError):
    """The generator has more than one stationary state."""


class NoConvergenceError(RuntimeError):
    """The solve did not reach the requested residual/validity tolerances."""


@dataclass
class SteadyStateResult:
    rho: np.ndarray
    residual: float             # ||L vec(rho)|| / ||L||_F
    # method ("banded-lu"), refine_rounds, last_correction (||dx||/||x|| of
    # the last round), blocks (the connected blocks factored), bandwidth
    # ((kl, ku) of the trace row's block), lu_nnz (entries stored in that
    # block's band factor, n_block * (2 kl + ku + 1)) and the validity margins
    diagnostics: dict = field(default_factory=dict)


def _trace_replaced(mat: sp.csr_matrix, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices, data) of ``mat`` with row 0 replaced by the
    vectorized trace row, whose entries sit at the populations ``rho[k, k]``.
    The index arrays are int32; ``mat`` itself is left as it is."""
    start = mat.indptr[1]
    indptr = (mat.indptr - start + dim).astype(np.int32, copy=False)
    indptr[0] = 0
    indices = np.concatenate([np.arange(dim) * (dim + 1), mat.indices[start:]], dtype=np.int32)
    data = np.concatenate([np.ones(dim, dtype=complex), mat.data[start:]])
    return indptr, indices, data


@dataclass(frozen=True)
class _BandStructure:
    """The banded LU's view of one n x n sparsity pattern; every array is
    read-only.  Block b holds the ordered positions ``starts[b]:starts[b+1]``
    and has ``kl[b]`` sub- and ``ku[b]`` superdiagonals; its stored entries
    are ``entries[first[b]:first[b+1]]`` (indices into the CSR data), which go
    to ``slots`` of the same range in its Fortran-ordered band, flattened."""

    order: np.ndarray         # order[p]: the row and column at ordered position p
    starts: np.ndarray
    kl: np.ndarray
    ku: np.ndarray
    first: np.ndarray
    entries: np.ndarray
    slots: np.ndarray
    trace_block: int          # the block that holds row 0


@lru_cache(maxsize=16)
def _band_structure(n: int, indptr: bytes, indices: bytes) -> _BandStructure:
    """Band structure of the n x n CSR pattern with int32 arrays ``indptr``
    and ``indices``, made symmetric: its reverse Cuthill-McKee order
    (Cuthill & McKee 1969, reversed as George 1971), its connected blocks,
    each contiguous in that order, and each block's bandwidths and band slots.
    It depends on the pattern alone, so it is cached on the pattern's bytes."""
    # imported here: a process that never factors (the jump engine) skips it
    from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

    indptr = np.frombuffer(indptr, dtype=np.int32)
    indices = np.frombuffer(indices, dtype=np.int32)
    pattern = sp.csr_matrix((np.ones(indices.size, dtype=np.int8), indices, indptr),
                            shape=(n, n))
    pattern = (pattern + pattern.T).tocsr()
    count, labels = connected_components(pattern, directed=False)
    # RCM visits one component at a time; the stable sort only makes the
    # blocks' contiguity independent of that
    order = reverse_cuthill_mckee(pattern, symmetric_mode=True)
    order = order[np.argsort(labels[order], kind="stable")]
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    starts = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(np.bincount(labels, minlength=count), out=starts[1:])

    block = np.repeat(labels, np.diff(indptr))          # block of each entry
    row = np.repeat(position, np.diff(indptr)) - starts[block]
    col = position[indices] - starts[block]
    kl = np.zeros(count, dtype=np.intp)
    ku = np.zeros(count, dtype=np.intp)
    np.maximum.at(kl, block, row - col)
    np.maximum.at(ku, block, col - row)
    # A[row, col] sits at band row kl + ku + row - col of column col
    slots = col * (2 * kl + ku + 1)[block] + (kl + ku)[block] + row - col
    entries = np.argsort(block, kind="stable")
    first = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(np.bincount(block, minlength=count), out=first[1:])
    structure = _BandStructure(order=order, starts=starts, kl=kl, ku=ku, first=first,
                               entries=entries, slots=slots[entries],
                               trace_block=int(labels[0]))
    for array in (order, starts, kl, ku, first, entries, structure.slots):
        array.flags.writeable = False
    return structure


def _probe_nullity(mat: sp.csr_matrix) -> int:
    """Count the eigenvalues at most ``VALIDITY_TOL`` times ||L||_F among the
    four (two on a qubit) nearest zero, by shift-invert ``eigs``.  The zero
    eigenvalue of a Lindblad generator is semisimple (``exp(L t)`` is a
    contraction), so their number is the nullity."""
    scale = max(float(sp.linalg.norm(mat, "fro")), 1e-300)
    vals = spla.eigs(mat.tocsc(), k=min(4, mat.shape[0] - 2), sigma=1e-12 * scale,
                     return_eigenvectors=False)
    return int(np.sum(np.abs(vals) <= VALIDITY_TOL * scale))


def _solve_failure(mat: sp.csr_matrix, message: str) -> RuntimeError:
    """NonUniqueSteadyStateError if the null space is degenerate, else
    NoConvergenceError; a 1x1 generator, too small for ``eigs``, cannot be."""
    nullity = _probe_nullity(mat) if mat.shape[0] > 1 else 0
    if nullity > 1:
        return NonUniqueSteadyStateError(
            f"estimated nullity {nullity}; the stationary state is not unique"
        )
    return NoConvergenceError(message)


def _factor(structure: _BandStructure, b: int, data: np.ndarray,
            mat: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """(lu, ipiv) of ``zgbtrf`` on block b of the system with CSR values
    ``data``, factored in place in its ``(2 kl + ku + 1, n_block)`` band,
    built here.  An exactly zero pivot raises the failure of the generator
    ``mat``."""
    kl, ku = int(structure.kl[b]), int(structure.ku[b])
    size = int(structure.starts[b + 1] - structure.starts[b])
    span = slice(structure.first[b], structure.first[b + 1])
    ab = np.zeros((2 * kl + ku + 1) * size, dtype=complex)
    ab[structure.slots[span]] = data[structure.entries[span]]
    lu, ipiv, info = zgbtrf(ab.reshape((2 * kl + ku + 1, size), order="F"), kl, ku,
                            overwrite_ab=1)
    if info > 0:
        raise _solve_failure(mat, f"factorization failed: exactly zero pivot in block {b} "
                                  f"of {structure.starts.size - 1}")
    return lu, ipiv


def steady_state(gen: SuperOperator) -> SteadyStateResult:
    """Unique stationary density matrix of a trace-preserving generator.

    Raises ``NonUniqueSteadyStateError`` when the eigenvalue probe finds a null
    space above one dimension, and ``NoConvergenceError`` when the solution
    fails the residual tolerance ``VALIDITY_TOL`` or ``validate_density_matrix``.  A
    nullity above one makes the trace-replaced system singular, so a clean
    solve implies a unique state.  ``gen`` is not modified.
    """
    dim = gen.dim
    mat = gen.matrix.tocsr()
    if not mat.has_canonical_format:   # duplicate or unsorted entries: sum them in a copy
        mat = mat.copy()
        mat.sum_duplicates()
    norm_l = max(float(sp.linalg.norm(mat, "fro")), 1e-300)
    indptr, indices, data = _trace_replaced(mat, dim)
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0

    # factor the blocks in the order of the structure; the trace row's block
    # last, the only one kept, and the only one with a nonzero right-hand side
    structure = _band_structure(dim * dim, indptr.tobytes(), indices.tobytes())
    last = structure.trace_block
    for b in range(structure.starts.size - 1):
        if b != last:   # factored only to show it is nonsingular, then freed
            _factor(structure, b, data, mat)
    lu, ipiv = _factor(structure, last, data, mat)
    kl, ku = int(structure.kl[last]), int(structure.ku[last])
    rows = structure.order[structure.starts[last]:structure.starts[last + 1]]

    def solve(r: np.ndarray) -> np.ndarray:
        x = np.zeros(dim * dim, dtype=complex)
        x[rows] = zgbtrs(lu, kl, ku, r[rows], ipiv)[0]
        return x

    x = solve(rhs)

    # the same system in extended precision, for the refinement residuals
    m_ext = sp.csr_matrix((data.astype(np.clongdouble), indices, indptr), shape=mat.shape)
    rhs_ext = rhs.astype(np.clongdouble)
    rounds = 0
    correction = math.inf
    if np.all(np.isfinite(x)):
        for rounds in range(1, _REFINE_ROUNDS + 1):
            r = rhs_ext - m_ext @ x.astype(np.clongdouble)
            dx = solve(np.asarray(r, dtype=complex))
            x = x + dx
            correction = float(np.abs(dx).max()) / max(float(np.abs(x).max()), 1e-300)
            if correction <= _REFINE_STOP:
                break

    raw = devectorize(x)
    rho = 0.5 * (raw + raw.conj().T)
    residual = float(np.linalg.norm(mat @ vectorize(rho))) / norm_l
    if not residual <= VALIDITY_TOL:
        raise _solve_failure(mat, f"residual {residual:.3e} exceeds {VALIDITY_TOL:.0e}")
    try:
        margins = validate_density_matrix(raw)
    except ValueError as exc:
        raise NoConvergenceError(f"state fails validity checks: {exc}") from exc
    rho /= np.trace(rho).real
    return SteadyStateResult(
        rho=rho,
        residual=residual,
        diagnostics={
            "method": "banded-lu",
            "refine_rounds": rounds,
            "last_correction": correction,
            "blocks": structure.starts.size - 1,
            "bandwidth": (kl, ku),
            "lu_nnz": lu.size,
            **margins,
        },
    )


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

