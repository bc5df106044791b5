"""Operator algebra on truncated tensor-product Hilbert spaces.

Conventions, fixed package-wide:

* qubit basis ordering is (|g>, |e>);
* Fock basis is ascending |0> .. |N> for a mode truncated at N photons;
* tensor factors are ordered as listed in ``CompositeSpace``, with the
  first factor the slowest-varying index (``numpy.kron`` order).

Operators are plain complex ``numpy`` arrays; a ``CompositeSpace`` carries
the factor structure needed by :func:`embed` and :func:`partial_trace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

SQRT2 = np.sqrt(2.0)

#: the tolerance of every validity check in the package: a density matrix's
#: trace, hermiticity and positivity, a Hamiltonian's hermiticity, a steady
#: state's residual, a ket's norm and an eigendecomposition
VALIDITY_TOL = 1e-10


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

    # computed on first use and kept: a space is immutable
    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    @cached_property
    def dim(self) -> int:
        return math.prod(self.dims)

    def index(self, subsystem: int | str) -> int:
        """Position of the subsystem with this label; a position in
        ``[0, len(subsystems))`` is returned as is."""
        if not isinstance(subsystem, str):
            if not 0 <= subsystem < len(self.subsystems):
                raise DimensionError(
                    f"position {subsystem} out of range for {len(self.subsystems)} factors")
            return subsystem
        for i, s in enumerate(self.subsystems):
            if s.label == subsystem:
                return i
        raise KeyError(f"no subsystem labelled {subsystem!r}")

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


def embed(op: np.ndarray, space: CompositeSpace, position: int) -> np.ndarray:
    """Kronecker-embed a single-subsystem operator into the full space:
    identity (x) op (x) identity."""
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
    # np.kron's products, as broadcast multiplies without its reshaping
    # overhead: eye(before) (x) op, then that (x) eye(after)
    d = before * dims[position]
    inner = (np.eye(before, dtype=complex)[:, None, :, None] * op[None, :, None, :]).reshape(d, d)
    return (inner[:, None, :, None] * np.eye(after, dtype=complex)[None, :, None, :]).reshape(
        d * after, d * after)


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
    """Reduced density matrix on the kept factors (original order); trace
    preserved.  ``rho`` may hold a stack of states along leading axes, which
    one einsum reduces alike, each state's sums as if it were alone."""
    shape, subscripts, out, dk = _reduction(space, tuple(keep))
    rho = np.asarray(rho)
    if rho.shape[-2:] != (space.dim, space.dim):
        raise DimensionError(f"rho shape {rho.shape} does not match space dim {space.dim}")
    batch = rho.shape[:-2]
    return np.einsum(rho.reshape(batch + shape), [..., *subscripts], [..., *out]).reshape(
        batch + (dk, dk))


@lru_cache(maxsize=128)
def _reduction(space: CompositeSpace, keep: tuple[int, ...]
               ) -> tuple[tuple[int, ...], list[int], list[int], int]:
    """How ``partial_trace`` reduces a state of ``space`` to the factors
    ``keep``: the tensor shape of rho, the einsum subscripts of its row and
    column indices and of the result, and the reduced dimension.  A space is
    immutable, so this is worked out once per (space, keep)."""
    kept = sorted(set(keep))
    k = len(space.dims)
    if not kept:
        raise ValueError("keep set must be non-empty")
    if kept[0] < 0 or kept[-1] >= k:
        raise DimensionError(f"keep indices {kept} out of range for {k} factors")
    dims = space.dims
    row_idx = list(range(k))
    col_idx = [i + k if i in kept else i for i in range(k)]
    out_idx = kept + [i + k for i in kept]
    return dims + dims, row_idx + col_idx, out_idx, math.prod(dims[i] for i in kept)


def herm_defect(rho: np.ndarray) -> float:
    """Max-abs deviation of rho from its hermitian part."""
    return float(np.abs(rho - rho.conj().T).max(initial=0.0)) / 2.0


def validate_density_matrix(rho: np.ndarray) -> dict[str, float]:
    """Raise ValueError unless rho has unit trace, is hermitian and PSD within
    ``VALIDITY_TOL``.

    Returns the margins checked: ``trace_deviation``, ``herm_defect`` and
    ``min_eigenvalue`` (of the hermitian part).  Non-finite margins fail.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"density matrix must be square, got shape {rho.shape}")
    (margins,) = _density_margins(rho[None], 0.5 * (rho + rho.conj().T)[None])
    if isinstance(margins, ValueError):
        raise margins
    return margins


def _density_margins(rhos: np.ndarray, hermitians: np.ndarray) -> list[dict[str, float] | ValueError]:
    """The checks of ``validate_density_matrix`` on a stack of square states
    ``rhos`` whose hermitian parts ``0.5 * (rho + rho^+)`` the caller has
    formed: per state its margins, or the ``ValueError`` of the first check it
    fails.  Each margin is taken on the whole stack at once, and only the
    states that pass the trace and hermiticity checks, all finite then, go to
    the one stacked ``eigvalsh``."""
    devs = np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)
    defects = np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0) / 2.0
    out: list = []
    for dev, hd in zip(devs.tolist(), defects.tolist()):
        if not dev <= VALIDITY_TOL:
            out.append(ValueError(f"trace deviates from 1 by {dev:.3e} (> {VALIDITY_TOL:.0e})"))
        elif not hd <= VALIDITY_TOL:
            out.append(ValueError(f"hermiticity defect {hd:.3e} (> {VALIDITY_TOL:.0e})"))
        else:
            out.append({"trace_deviation": dev, "herm_defect": hd})
    passed = [i for i, margins in enumerate(out) if isinstance(margins, dict)]
    for i, w in zip(passed, np.linalg.eigvalsh(hermitians[passed]).min(axis=1).tolist()):
        if w >= -VALIDITY_TOL:
            out[i]["min_eigenvalue"] = w
        else:
            out[i] = ValueError(f"minimum eigenvalue {w:.3e} below -{VALIDITY_TOL:.0e}")
    return out
