"""Operator algebra on truncated tensor-product Hilbert spaces.

Conventions, fixed package-wide:

* qubit basis ordering is (|g>, |e>);
* Fock basis is ascending |0> .. |N> for a mode truncated at N photons;
* tensor factors are ordered as listed in ``CompositeSpace``, with the
  first factor the slowest-varying index (``numpy.kron`` order).

Operators are plain complex ``numpy`` arrays (or, from ``embed(...,
sparse=True)``, sparse matrices); a ``CompositeSpace`` carries the factor
structure needed by :func:`embed` and :func:`partial_trace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

SQRT2 = np.sqrt(2.0)

#: tolerances of density-matrix validation
TRACE_TOL = 1e-10
HERM_TOL = 1e-10
PSD_TOL = 1e-10


class DimensionError(ValueError):
    """An operator or state does not match the dimension it is used at."""


@dataclass(frozen=True)
class Boson:
    """Bosonic mode keeping Fock levels |0> .. |cutoff| (dimension cutoff+1)."""

    cutoff: int
    label: str = "mode"

    def __post_init__(self) -> None:
        if self.cutoff < 0:
            raise ValueError(f"boson cutoff must be >= 0, got {self.cutoff}")

    @property
    def dim(self) -> int:
        return self.cutoff + 1


@dataclass(frozen=True)
class Qubit:
    """Two-level atom with basis (|g>, |e>)."""

    label: str = "qubit"

    @property
    def dim(self) -> int:
        return 2


Subsystem = Boson | Qubit


@dataclass(frozen=True)
class CompositeSpace:
    """Ordered tensor product of subsystems; ordering is fixed for its lifetime."""

    subsystems: tuple[Subsystem, ...]

    def __post_init__(self) -> None:
        if not self.subsystems:
            raise ValueError("a CompositeSpace needs at least one subsystem")
        labels = [s.label for s in self.subsystems]
        if len(set(labels)) != len(labels):
            raise ValueError(f"subsystem labels must be unique, got {labels}")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    @property
    def dim(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    def index(self, label: str) -> int:
        for i, s in enumerate(self.subsystems):
            if s.label == label:
                return i
        raise KeyError(f"no subsystem labelled {label!r}")

    def subspace(self, keep: Iterable[int]) -> "CompositeSpace":
        """Space of the kept factors, in their original order."""
        kept = sorted(set(keep))
        return CompositeSpace(tuple(self.subsystems[i] for i in kept))


def annihilation(cutoff: int) -> np.ndarray:
    """Truncated ladder operator with <m|a|m+1> = sqrt(m+1)."""
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1).astype(complex)


def number(cutoff: int) -> np.ndarray:
    """Photon number operator diag(0..cutoff), exact integer entries."""
    return np.diag(np.arange(cutoff + 1, dtype=float)).astype(complex)


def quadratures(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Field quadratures x=(a^+ + a)/sqrt2 and p=i(a^+ - a)/sqrt2, both hermitian."""
    a = annihilation(cutoff)
    ad = a.conj().T
    return (ad + a) / SQRT2, 1j * (ad - a) / SQRT2


@dataclass(frozen=True)
class QubitOps:
    """The standard two-level operators in the (|g>, |e>) basis."""

    sm: np.ndarray        # sigma_- = |g><e|
    sp: np.ndarray        # sigma_+ = |e><g|
    sy: np.ndarray        # i(sigma_- - sigma_+)
    sz: np.ndarray        # |e><e| - |g><g|
    excited: np.ndarray   # projector |e><e|


def qubit_ops() -> QubitOps:
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    sp = sm.conj().T
    return QubitOps(
        sm=sm,
        sp=sp,
        sy=1j * (sm - sp),
        sz=np.array([[-1, 0], [0, 1]], dtype=complex),
        excited=np.array([[0, 0], [0, 1]], dtype=complex),
    )


def identity(space: CompositeSpace) -> np.ndarray:
    return np.eye(space.dim, dtype=complex)


def embed(op: np.ndarray, space: CompositeSpace, position: int,
          sparse: bool = False) -> np.ndarray | sp.csr_matrix:
    """Kronecker-embed a single-subsystem operator into the full space:
    identity (x) op (x) identity, as a dense array or, if ``sparse``, a CSR
    matrix."""
    op = np.asarray(op, dtype=complex)
    dims = space.dims
    if not 0 <= position < len(dims):
        raise DimensionError(f"position {position} out of range for {len(dims)} factors")
    if op.shape != (dims[position], dims[position]):
        raise DimensionError(
            f"operator shape {op.shape} does not match subsystem dimension "
            f"{dims[position]} at position {position}"
        )
    before, after = math.prod(dims[:position]), math.prod(dims[position + 1:])
    out = sp.kron(sp.kron(sp.identity(before, dtype=complex), sp.csr_matrix(op)),
                  sp.identity(after, dtype=complex), format="csr")
    return out if sparse else out.toarray()


def basis_ket(space: CompositeSpace, occupations: Sequence[int]) -> np.ndarray:
    """Product basis vector |occupations[0], occupations[1], ...>."""
    dims = space.dims
    if len(occupations) != len(dims):
        raise DimensionError(f"need {len(dims)} occupation numbers, got {len(occupations)}")
    idx = 0
    for occ, d in zip(occupations, dims):
        if not 0 <= occ < d:
            raise DimensionError(f"occupation {occ} out of range for dimension {d}")
        idx = idx * d + occ
    ket = np.zeros(space.dim, dtype=complex)
    ket[idx] = 1.0
    return ket


def expectation(op: np.ndarray, rho: np.ndarray) -> complex:
    """Tr(op @ rho); real up to rounding when op is hermitian."""
    op = np.asarray(op)
    rho = np.asarray(rho)
    if op.shape != rho.shape or op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DimensionError(f"shape mismatch: op {op.shape} vs rho {rho.shape}")
    return complex(np.einsum("ij,ji->", op, rho))


def partial_trace(rho: np.ndarray, space: CompositeSpace, keep: Iterable[int]) -> np.ndarray:
    """Reduced density matrix on the kept factors (original order); trace preserved."""
    keep = sorted(set(keep))
    k = len(space.dims)
    if not keep:
        raise ValueError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= k:
        raise DimensionError(f"keep indices {keep} out of range for {k} factors")
    rho = np.asarray(rho)
    if rho.shape != (space.dim, space.dim):
        raise DimensionError(f"rho shape {rho.shape} does not match space dim {space.dim}")
    dims = list(space.dims)
    tensor = rho.reshape(dims + dims)
    row_idx = list(range(k))
    col_idx = [i + k if i in keep else i for i in range(k)]
    out_idx = keep + [i + k for i in keep]
    reduced = np.einsum(tensor, row_idx + col_idx, out_idx)
    dk = 1
    for i in keep:
        dk *= dims[i]
    return reduced.reshape(dk, dk)


def herm_defect(rho: np.ndarray) -> float:
    """Max-abs deviation of rho from its hermitian part."""
    return float(np.abs(rho - rho.conj().T).max(initial=0.0)) / 2.0


def validate_density_matrix(rho: np.ndarray) -> dict[str, float]:
    """Raise ValueError unless rho has unit trace, is hermitian and PSD within
    ``TRACE_TOL``, ``HERM_TOL`` and ``PSD_TOL``.

    Returns the margins checked: ``trace_deviation``, ``herm_defect`` and
    ``min_eigenvalue`` (of the hermitian part).  Non-finite margins fail.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"density matrix must be square, got shape {rho.shape}")
    dev = float(abs(np.trace(rho) - 1.0))
    if not dev <= TRACE_TOL:
        raise ValueError(f"trace deviates from 1 by {dev:.3e} (> {TRACE_TOL:.0e})")
    hd = herm_defect(rho)
    if not hd <= HERM_TOL:
        raise ValueError(f"hermiticity defect {hd:.3e} (> {HERM_TOL:.0e})")
    wmin = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if not wmin >= -PSD_TOL:
        raise ValueError(f"minimum eigenvalue {wmin:.3e} below -{PSD_TOL:.0e}")
    return {"trace_deviation": dev, "herm_defect": hd, "min_eigenvalue": wmin}
