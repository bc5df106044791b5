"""Steady states of the master equation, plus the exact exponential action as a
time-domain cross-check.

The steady state is the null vector of the generator, computed by replacing
the first scalar equation with the trace constraint and solving the resulting
nonsingular system with one sparse LU factorization.  The factorization takes
rows and columns in the reverse Cuthill-McKee order of the system's sparsity
pattern, with SuperLU's partial pivoting; that order depends on the pattern
alone, so ``_rcm_order`` computes it once per pattern and caches it.
Iterative refinement with extended-precision residuals follows.  At the
extreme rate/frequency separations typical here (rates ~1e-6 against
frequencies ~1) the replaced system is ill-conditioned, so a small residual
does not bound the error of the solution; the size of the correction does.
Refinement therefore always applies at least one correction and stops once a
correction is at most ``_REFINE_STOP`` (2^-52, the rounding floor of double
precision) of the solution, after at most ``_REFINE_ROUNDS`` rounds.  The
result's diagnostics report the rounds, the last correction and the size of
the LU factors.

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
    # method ("sparse-lu"), refine_rounds, last_correction (||dx||/||x|| of
    # the last round), lu_nnz (nonzeros stored for the LU factors; reading
    # lu.L and lu.U instead would copy both) and the validity margins
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


@lru_cache(maxsize=16)
def _rcm_order(n: int, indptr: bytes, indices: bytes) -> np.ndarray:
    """Reverse Cuthill-McKee order (Cuthill & McKee 1969, reversed as George
    1971) of the n x n CSR pattern with int32 arrays ``indptr`` and
    ``indices``, made symmetric.  It depends on the pattern alone, so it is
    cached on the pattern's bytes; the returned array is read-only."""
    # imported here: a process that never factors (the jump engine) skips it
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    indices = np.frombuffer(indices, dtype=np.int32)
    pattern = sp.csr_matrix((np.ones(indices.size, dtype=np.int8), indices,
                             np.frombuffer(indptr, dtype=np.int32)), shape=(n, n))
    order = reverse_cuthill_mckee((pattern + pattern.T).tocsr(), symmetric_mode=True)
    order.flags.writeable = False
    return order


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

    # factor P A P^T, P taking row i to position[i]; x = y[position] solves
    # A x = b when (P A P^T) y = b[order]
    order = _rcm_order(dim * dim, indptr.tobytes(), indices.tobytes())
    position = np.empty_like(order)
    position[order] = np.arange(order.size, dtype=order.dtype)
    permuted = sp.csc_matrix((data, (np.repeat(position, np.diff(indptr)), position[indices])),
                             shape=mat.shape)
    try:
        lu = spla.splu(permuted, permc_spec="NATURAL")
        x = lu.solve(rhs[order])[position]
    except RuntimeError as exc:
        raise _solve_failure(mat, f"factorization failed: {exc}") from exc

    # the same system in extended precision, for the refinement residuals
    m_ext = sp.csr_matrix((data.astype(np.clongdouble), indices, indptr), shape=mat.shape)
    rhs_ext = rhs.astype(np.clongdouble)
    rounds = 0
    correction = math.inf
    if np.all(np.isfinite(x)):
        for rounds in range(1, _REFINE_ROUNDS + 1):
            r = rhs_ext - m_ext @ x.astype(np.clongdouble)
            dx = lu.solve(np.asarray(r, dtype=complex)[order])[position]
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
            "method": "sparse-lu",
            "refine_rounds": rounds,
            "last_correction": correction,
            "lu_nnz": lu.nnz,
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

