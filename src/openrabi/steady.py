"""Steady states of the master equation, plus a time integrator as cross-check.

The steady state is the null vector of the generator, computed by replacing
the first scalar equation with the trace constraint and solving the resulting
nonsingular system with one sparse LU factorization.  Iterative refinement
with extended-precision residuals follows.  At the extreme rate/frequency
separations typical here (rates ~1e-6 against frequencies ~1) the replaced
system is ill-conditioned, so a small residual does not bound the error of
the solution; the size of the correction does.  Refinement therefore always
applies at least one correction and stops once a correction is at most
``_REFINE_STOP`` of the solution, after at most ``_REFINE_ROUNDS`` rounds.
The result's diagnostics report the rounds, the last correction and the
size of the LU factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from .hilbert import TRACE_TOL, expectation, validate_density_matrix
from .liouville import SuperOperator, devectorize, vectorize
from .models import ModelSpec, build_liouvillian, excitation_operator

RES_TOL = 1e-10

_REFINE_ROUNDS = 3
_REFINE_STOP = 1e-17    # largest correction ||dx||/||x|| (max norms) that ends refinement
_NULLITY_SVD_DIM = 40   # largest Hilbert dimension for the dense SVD nullity probe


class NonUniqueSteadyStateError(RuntimeError):
    """The generator has more than one stationary state."""


class NoConvergenceError(RuntimeError):
    """The solve did not reach the requested residual/validity tolerances."""


class StepSizeUnderflowError(RuntimeError):
    """The time integrator failed to take a step."""


@dataclass
class SteadyStateResult:
    rho: np.ndarray
    residual: float             # ||L vec(rho)|| / ||L||_F
    # method ("sparse-lu"), refine_rounds, last_correction (||dx||/||x|| of
    # the last round), lu_nnz (nonzeros stored for the LU factors; reading
    # lu.L and lu.U instead would copy both) and the validity margins
    diagnostics: dict = field(default_factory=dict)


def _replace_first_row(mat: sp.spmatrix, dim: int) -> sp.csc_matrix:
    """Copy of the generator with row 0 replaced by the vectorized trace row."""
    coo = mat.tocoo()
    keep = coo.row != 0
    diag = np.arange(dim) * (dim + 1)
    rows = np.concatenate([coo.row[keep], np.zeros(dim, dtype=coo.row.dtype)])
    cols = np.concatenate([coo.col[keep], diag.astype(coo.col.dtype)])
    data = np.concatenate([coo.data[keep], np.ones(dim, dtype=complex)])
    return sp.coo_matrix((data, (rows, cols)), shape=mat.shape).tocsc()


def _extended_residual(
    rows: np.ndarray, cols: np.ndarray, data: np.ndarray, x: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """rhs - M x accumulated in extended precision (COO triplets of M)."""
    r = rhs.astype(np.clongdouble).copy()
    contrib = data.astype(np.clongdouble) * x.astype(np.clongdouble)[cols]
    np.subtract.at(r, rows, contrib)
    return r


def _probe_nullity(gen: SuperOperator, tol: float) -> int:
    """Count near-zero singular values (dense) or near-zero eigenvalues (sparse)."""
    mat = gen.matrix
    scale = max(float(sp.linalg.norm(mat, "fro")), 1e-300)
    if gen.dim <= _NULLITY_SVD_DIM:
        svals = la.svdvals(mat.toarray())
        return int(np.sum(svals <= tol * scale))
    shift = 1e-12 * scale
    vals = spla.eigs(mat.tocsc(), k=4, sigma=shift, return_eigenvectors=False)
    return int(np.sum(np.abs(vals) <= tol * scale))


def _solve_failure(gen: SuperOperator, message: str) -> RuntimeError:
    """NonUniqueSteadyStateError if the null space is degenerate, else NoConvergenceError."""
    nullity = _probe_nullity(gen, 1e-10)
    if nullity > 1:
        return NonUniqueSteadyStateError(
            f"estimated nullity {nullity}; the stationary state is not unique"
        )
    return NoConvergenceError(message)


def steady_state(
    gen: SuperOperator,
    res_tol: float = RES_TOL,
    refine: int = _REFINE_ROUNDS,
) -> SteadyStateResult:
    """Unique stationary density matrix of a trace-preserving generator.

    Raises ``NonUniqueSteadyStateError`` when the generator's null space has
    dimension above one, and ``NoConvergenceError`` when the solution fails
    the residual tolerance or ``validate_density_matrix``.  A nullity above
    one makes the trace-replaced system singular, so a clean solve implies a
    unique state.
    """
    dim = gen.dim
    mat = gen.matrix.tocsr()
    norm_l = max(float(sp.linalg.norm(mat, "fro")), 1e-300)
    modified = _replace_first_row(mat, dim)
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0

    try:
        lu = spla.splu(modified)
        x = lu.solve(rhs)
    except RuntimeError as exc:
        raise _solve_failure(gen, f"factorization failed: {exc}") from exc

    coo = modified.tocoo()
    rounds = 0
    correction = math.inf
    if np.all(np.isfinite(x)):
        for rounds in range(1, refine + 1):
            r = _extended_residual(coo.row, coo.col, coo.data, x, rhs)
            dx = lu.solve(np.asarray(r, dtype=complex))
            x = x + dx
            correction = float(np.abs(dx).max()) / max(float(np.abs(x).max()), 1e-300)
            if correction <= _REFINE_STOP:
                break

    raw = devectorize(x)
    rho = 0.5 * (raw + raw.conj().T)
    residual = float(np.linalg.norm(mat @ vectorize(rho))) / norm_l
    if not residual <= res_tol:
        raise _solve_failure(gen, f"residual {residual:.3e} exceeds {res_tol:.0e}")
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


def evolve(
    gen: SuperOperator,
    rho0: np.ndarray,
    t_final: float,
    tolerance: float = 1e-10,
    method: str = "DOP853",
) -> np.ndarray:
    """Integrate d rho/dt = L rho from rho0 to t_final with an explicit adaptive scheme."""
    rho0 = np.asarray(rho0, dtype=complex)
    v0 = vectorize(rho0)
    if t_final == 0.0:
        return rho0.copy()
    n = v0.size
    mat = gen.matrix.tocsr()
    y0 = np.concatenate([v0.real, v0.imag])

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        dv = mat @ (y[:n] + 1j * y[n:])
        return np.concatenate([dv.real, dv.imag])

    sol = solve_ivp(rhs, (0.0, t_final), y0, method=method, rtol=tolerance, atol=tolerance)
    if not sol.success:
        raise StepSizeUnderflowError(f"integration failed: {sol.message}")
    v = sol.y[:n, -1] + 1j * sol.y[n:, -1]
    rho = devectorize(v)
    drift = abs(np.trace(rho) - np.trace(rho0))
    if drift > max(100 * tolerance, TRACE_TOL):
        raise NoConvergenceError(f"trace drifted by {drift:.3e} over the run")
    return rho


@dataclass(frozen=True)
class ConvergenceRow:
    cutoff: int
    n_mean: float
    e_mean: float
    rel_change: float   # relative change of n_mean vs the previous cutoff (nan for first)
    converged: bool


def convergence_scan(spec: ModelSpec, cutoffs: Sequence[int]) -> list[ConvergenceRow]:
    """Steady-state cavity/atom excitations per Fock cutoff, flagging 1% convergence."""
    if list(cutoffs) != sorted(cutoffs):
        raise ValueError("cutoffs must be ascending")
    rows: list[ConvergenceRow] = []
    prev_n = None
    for cutoff in cutoffs:
        gen = build_liouvillian(spec.with_cutoff(cutoff))
        rho = steady_state(gen).rho
        n_mean = expectation(excitation_operator(gen.space, "cavity"), rho).real
        e_mean = expectation(excitation_operator(gen.space, "atom"), rho).real
        if prev_n is None:
            change = math.nan
            converged = False
        else:
            denom = max(abs(n_mean), 1e-300)
            change = abs(n_mean - prev_n) / denom
            converged = change < 0.01
        rows.append(ConvergenceRow(cutoff, n_mean, e_mean, change, converged))
        prev_n = n_mean
    return rows
