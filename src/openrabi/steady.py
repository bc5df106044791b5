"""Steady states of the master equation, plus the exact exponential action as a
time-domain cross-check.

The steady state is the null vector of the generator, computed by replacing
the first scalar equation with the trace constraint and solving the resulting
nonsingular system T.  ``_band_structure`` takes the rows and columns in the
reverse Cuthill-McKee order of T's sparsity pattern, under which T is a band,
and splits the pattern into connected blocks (the superparity sectors of a
Rabi model) that the order keeps contiguous; it depends on the pattern alone,
so it is cached per pattern.  Its estimate of the banded LU's work picks one
of two solvers:

* GMRES, without restart and right-preconditioned by the inverse of the
  Sylvester part ``S(X) = A X + X A^+`` of the generator, where ``A`` is read
  off the generator itself.  A fixed-seed random right-hand side certifies T
  nonsingular first; a system that fails the certificate, a GMRES run that
  stalls, or an ``eig`` that raises sends the point to the banded LU.
* LAPACK's banded LU with partial pivoting (``zgbtrf``/``zgbtrs``), one block
  at a time: every block without the trace row has a zero right-hand side,
  so its part of the solution is exactly zero, and it is factored only to
  show that it is nonsingular and then freed; the trace row's block is
  factored last and kept.

Iterative refinement with extended-precision residuals follows, on either
solver.  At the extreme rate/frequency separations typical here (rates ~1e-6
against frequencies ~1) the replaced system is ill-conditioned, so a small
residual does not bound the error of the solution; the size of the
correction does.  Refinement therefore always applies at least one
correction and stops once a correction is at most ``_REFINE_STOP`` (2^-52,
the rounding floor of double precision) of the solution, after at most
``_REFINE_ROUNDS`` rounds.  The result's diagnostics report the solver, the
GMRES iterations, the certificate, the rounds, the last correction and, for
the band, the blocks and the size of the kept factor.

A failed solve is sorted by one probe: more than one zero eigenvalue of the
generator, found by shift-invert ``eigs``, means the state is not unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import zgbtrf, zgbtrs

from .hilbert import VALIDITY_TOL, validate_density_matrix
from .liouville import SuperOperator, devectorize, vectorize

_REFINE_ROUNDS = 3
_REFINE_STOP = np.finfo(float).eps   # largest ||dx||/||x|| (max norms) that ends refinement
_KRYLOV_MIN_WORK = 5e7      # GMRES solves a system whose band factors cost this (work) or more
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
    # method ("gmres" or "banded-lu"), krylov_iterations (of every GMRES run,
    # certificate included), certified (whether the random right-hand side
    # certified the system nonsingular), refine_rounds, last_correction
    # (||dx||/||x|| of the last round) and the validity margins; the band
    # alone adds blocks (the connected blocks factored), bandwidth ((kl, ku)
    # of the trace row's block) and lu_nnz (entries stored in that block's
    # band factor, n_block * (2 kl + ku + 1))
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
    work: float               # about the factors' multiply-adds: sum of n_block kl (kl + ku + 1)


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
                               trace_block=int(labels[0]),
                               work=float(np.sum(np.diff(starts) * kl * (kl + ku + 1))))
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


def _band_solver(structure: _BandStructure, mat: sp.csr_matrix,
                 data: np.ndarray) -> tuple[Callable[[np.ndarray], np.ndarray], dict]:
    """The solve of the trace-replaced generator ``mat``, of CSR values
    ``data`` and band structure ``structure``, by the banded LU of its trace
    row's block, and its diagnostics.  Every other block is factored first,
    only to show it is nonsingular."""
    last = structure.trace_block
    for b in range(structure.starts.size - 1):
        if b != last:   # factored only to show it is nonsingular, then freed
            _factor(structure, b, data, mat)
    lu, ipiv = _factor(structure, last, data, mat)
    kl, ku = int(structure.kl[last]), int(structure.ku[last])
    rows = structure.order[structure.starts[last]:structure.starts[last + 1]]

    def solve(r: np.ndarray) -> np.ndarray:
        x = np.zeros(structure.order.size, dtype=complex)
        x[rows] = zgbtrs(lu, kl, ku, r[rows], ipiv)[0]
        return x

    return solve, {"method": "banded-lu", "blocks": structure.starts.size - 1,
                   "bandwidth": (kl, ku), "lu_nnz": lu.size}


def _sylvester_part(mat: sp.csr_matrix, dim: int) -> np.ndarray:
    """``A`` of the part ``S(X) = A X + X A^+`` of the generator ``mat`` that
    acts on one side of X alone, read off ``mat`` by its left partial trace.

    With column stacking, ``L = 1 kron A + conj(A) kron 1 + sum_k conj(F_k)
    kron F_k``, so ``(1/D) sum_j L[(i,j),(k,j)] = A + conj(tr A)/D 1`` when
    every ``F_k`` is traceless; taking away half the trace of that leaves
    ``A - i Im(tr A)/D 1``, and an imaginary multiple of 1 drops out of S.
    """
    rows = np.repeat(np.arange(dim * dim), np.diff(mat.indptr))
    keep = rows // dim == mat.indices // dim
    a = sp.coo_matrix((mat.data[keep], (rows[keep] % dim, mat.indices[keep] % dim)),
                      shape=(dim, dim)).toarray() / dim
    a[np.diag_indices(dim)] -= np.trace(a) / (2 * dim)
    return a


def _sylvester_inverse(a: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """vec(X) -> vec(S^-1(X)) for ``S(X) = A X + X A^+``, by one
    eigendecomposition ``A = V diag(lambda) V^-1`` (after Bartels & Stewart,
    Commun. ACM 15, 820 (1972)): ``S^-1(B) = V [(V^-1 B V^-+) / (lambda_i +
    conj(lambda_j))] V^+``.  A dark state makes a denominator vanish, so
    every denominator is floored at ``_DARK_FLOOR`` times the smallest decay
    rate ``-2 Re lambda``.  Raises ``LinAlgError`` if ``eig`` or ``inv`` does."""
    dim = a.shape[0]
    lam, v = np.linalg.eig(a)
    w = np.linalg.inv(v)
    rates = -2.0 * lam.real
    scale = float(np.abs(lam).max())
    floor = _DARK_FLOOR * np.min(rates[rates > dim * np.finfo(float).eps * scale],
                                 initial=scale)
    denominators = lam[:, None] + lam.conj()[None, :]
    denominators[np.abs(denominators) < floor] = -floor
    w_h, v_h = w.conj().T, v.conj().T

    def apply(x: np.ndarray) -> np.ndarray:
        b = x.reshape(dim, dim, order="F")
        return (v @ ((w @ b @ w_h) / denominators) @ v_h).reshape(-1, order="F")

    return apply


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
    basis = np.empty((m + 1, b.size), dtype=complex)
    h = np.zeros((m + 1, m), dtype=complex)   # Hessenberg, rotated to triangular
    cos = np.zeros(m)
    sin = np.zeros(m, dtype=complex)
    g = np.zeros(m + 1, dtype=complex)        # beta e_1, rotated alike
    g[0] = beta
    basis[0] = b / beta
    for k in range(m):
        w = system @ precondition(basis[k])
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
            y = solve_triangular(h[:k + 1, :k + 1], g[:k + 1])
            return precondition(y @ basis[:k + 1]), k + 1
        basis[k + 1] = w / norm_w
    return None, m


def _krylov_solver(mat: sp.csr_matrix, dim: int, system: sp.csr_matrix,
                   iterations: list[int]) -> Callable[[np.ndarray], np.ndarray | None] | None:
    """The solve of ``system``, the trace-replaced generator ``mat``, by GMRES
    preconditioned by the inverse Sylvester part, or None if the system is
    not certified nonsingular.  The solve returns None where GMRES stalls.
    Each GMRES run appends its iterations to ``iterations``.

    The certificate solves for a fixed-seed random right-hand side r and
    asks ``||r - T x|| <= tol ||r||`` and ``eps ||T||_F ||x|| <= tol ||r||``.
    A singular T leaves a part of r of about ``1/sqrt(n)`` that no x
    removes, so a singular T passes with probability about ``n tol^2``.
    """
    try:
        precondition = _sylvester_inverse(_sylvester_part(mat, dim))
    except np.linalg.LinAlgError:
        return None
    rng = np.random.default_rng(_CERTIFICATE_SEED)
    r = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
    # half the tolerance, so that the true residual meets it too
    x, k = _gmres(system, precondition, r, _CERTIFICATE_TOL / 2)
    iterations.append(k)
    if x is None:
        return None
    bound = _CERTIFICATE_TOL * float(np.linalg.norm(r))
    error = np.finfo(float).eps * float(np.linalg.norm(system.data)) * float(np.linalg.norm(x))
    if not (float(np.linalg.norm(r - system @ x)) <= bound and error <= bound):
        return None

    def solve(b: np.ndarray) -> np.ndarray | None:
        x, k = _gmres(system, precondition, b, _KRYLOV_TOL)
        iterations.append(k)
        return x

    return solve


def _refine(solve: Callable[[np.ndarray], np.ndarray | None], rhs: np.ndarray,
            m_ext: sp.csr_matrix) -> tuple[np.ndarray, int, float] | None:
    """(x, rounds, last correction): ``solve(rhs)``, refined with the
    residuals of the extended-precision system ``m_ext``; None if a solve
    returns None."""
    x = solve(rhs)
    if x is None:
        return None
    rhs_ext = rhs.astype(np.clongdouble)
    rounds = 0
    correction = math.inf
    if np.all(np.isfinite(x)):
        for rounds in range(1, _REFINE_ROUNDS + 1):
            r = rhs_ext - m_ext @ x.astype(np.clongdouble)
            dx = solve(np.asarray(r, dtype=complex))
            if dx is None:
                return None
            x = x + dx
            correction = float(np.abs(dx).max()) / max(float(np.abs(x).max()), 1e-300)
            if correction <= _REFINE_STOP:
                break
    return x, rounds, correction


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
    # the same system in extended precision, for the refinement residuals
    m_ext = sp.csr_matrix((data.astype(np.clongdouble), indices, indptr), shape=mat.shape)

    structure = _band_structure(dim * dim, indptr.tobytes(), indices.tobytes())
    iterations: list[int] = []
    refined = solve = None
    if structure.work >= _KRYLOV_MIN_WORK:
        system = sp.csr_matrix((data, indices, indptr), shape=mat.shape)
        solve = _krylov_solver(mat, dim, system, iterations)
        if solve is not None:
            refined = _refine(solve, rhs, m_ext)
    if refined is None:   # a cheap band, an uncertified system or a stall
        band_solve, details = _band_solver(structure, mat, data)
        refined = _refine(band_solve, rhs, m_ext)
    else:
        details = {"method": "gmres"}
    x, rounds, correction = refined

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
            **details,
            "krylov_iterations": sum(iterations),
            "certified": solve is not None,
            "refine_rounds": rounds,
            "last_correction": correction,
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

