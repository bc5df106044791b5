"""Master-equation generators as sparse superoperators.

Vectorization is column-stacking throughout: ``vec(rho)[i + D*j] = rho[i, j]``,
so ``vec(A rho B) = (B^T kron A) vec(rho)``. Every generator built here has
``vec(1)^T L = 0`` (trace preservation) up to rounding.
"""

from __future__ import annotations

import cmath
import copy
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .hilbert import (
    VALIDITY_TOL,
    Boson,
    CompositeSpace,
    DimensionError,
    embed,
    number,
    quadratures,
)


class NonHermitianError(ValueError):
    """Hamiltonian fails the hermiticity check."""


class NegativeRateError(ValueError):
    """A Lindblad rate is negative."""


@dataclass(frozen=True)
class LindbladTerm:
    """A jump operator together with its finite, non-negative rate."""

    operator: np.ndarray
    rate: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate}")
        if self.rate < 0:
            raise NegativeRateError(f"rate must be >= 0, got {self.rate}")
        op = np.asarray(self.operator)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise DimensionError(f"jump operator must be square, got shape {op.shape}")


@dataclass(frozen=True)
class Terms:
    """The Hilbert-space terms of a generator ``sum_k c_k P_k``: part k is
    ``-i[h_k, .]`` or, if ``dissipative[k]``, the unit-rate dissipator of the
    jump operator ``h_k``, whose coefficient is then a rate.  The operators
    are sparse D x D and may be shared by many generators."""

    operators: tuple[sp.csr_matrix, ...]
    dissipative: tuple[bool, ...]
    coefficients: tuple[float, ...]


@dataclass(frozen=True)
class SuperOperator:
    """D^2 x D^2 sparse generator acting on column-stacked density matrices,
    with the Hilbert-space terms it was built from, if it carries them."""

    space: CompositeSpace
    matrix: sp.csr_matrix
    terms: Terms | None = field(default=None, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.space.dim

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return devectorize(self.matrix @ vectorize(rho))


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix: v[i + D*j] = rho[i, j]."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {rho.shape}")
    return rho.reshape(-1, order="F")

def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    v = np.asarray(v)
    d = round(np.sqrt(v.size))
    if d * d != v.size:
        raise DimensionError(f"vector length {v.size} is not a perfect square")
    return v.reshape(d, d, order="F")


def _left(a: np.ndarray) -> sp.csr_matrix:
    """Superoperator of rho -> a @ rho."""
    d = a.shape[0]
    return sp.kron(sp.identity(d, format="csr"), sp.csr_matrix(a), format="csr")


def _right(a: np.ndarray) -> sp.csr_matrix:
    """Superoperator of rho -> rho @ a."""
    d = a.shape[0]
    return sp.kron(sp.csr_matrix(a).T, sp.identity(d, format="csr"), format="csr")


def _commutator(a: np.ndarray) -> sp.csr_matrix:
    return _left(a) - _right(a)


def _anticommutator(a: np.ndarray) -> sp.csr_matrix:
    return _left(a) + _right(a)


def _check_space(op: np.ndarray, space: CompositeSpace) -> np.ndarray:
    op = np.asarray(op, dtype=complex)
    if op.shape != (space.dim, space.dim):
        raise DimensionError(f"operator shape {op.shape} does not match space dim {space.dim}")
    return op


def _check_hermitian(h: np.ndarray) -> None:
    """Raise ``NonHermitianError`` unless the dense h is hermitian within
    tolerance; a NaN fails."""
    scale = float(abs(h).max())
    defect = float(abs(h - h.conj().T).max())
    if not defect <= VALIDITY_TOL * max(scale, 1.0):
        raise NonHermitianError(f"hermiticity defect {defect:.3e} exceeds tolerance")


def _hamiltonian_part(h: np.ndarray) -> sp.csr_matrix:
    """-i[h, .]; h must be hermitian within tolerance."""
    _check_hermitian(h)
    return (-1j * _commutator(h)).tocsr()


def _dissipator_part(f: np.ndarray) -> sp.csr_matrix:
    """rho -> F rho F^+ - {F^+ F, rho}/2 (unit rate)."""
    f = sp.csr_matrix(f)
    fdf = f.conj().T @ f
    return (sp.kron(f.conj(), f, format="csr") - 0.5 * _left(fdf) - 0.5 * _right(fdf)).tocsr()


def hamiltonian_superop(h: np.ndarray, space: CompositeSpace) -> SuperOperator:
    """Generator of rho -> -i[h, rho]; h must be hermitian within tolerance."""
    h = _check_space(h, space)
    return SuperOperator(space, _hamiltonian_part(h), Terms((sp.csr_matrix(h),), (False,), (1.0,)))


def dissipator_superop(term: LindbladTerm, space: CompositeSpace) -> SuperOperator:
    """Generator of rho -> rate * (F rho F^+ - {F^+ F, rho}/2) for jump operator F."""
    f = _check_space(term.operator, space)
    return SuperOperator(space, (term.rate * _dissipator_part(f)).tocsr(),
                         Terms((sp.csr_matrix(f),), (True,), (term.rate,)))


def assemble(h: np.ndarray, terms: list[LindbladTerm], space: CompositeSpace) -> SuperOperator:
    """Full generator: Hamiltonian part plus all dissipators."""
    h = _check_space(h, space)
    ops = [_check_space(t.operator, space) for t in terms]
    mat = sum(((t.rate * _dissipator_part(f)).tocsr() for t, f in zip(terms, ops)),
              _hamiltonian_part(h))
    return SuperOperator(space, mat.tocsr(), Terms(
        tuple(sp.csr_matrix(op) for op in (h, *ops)), (False,) + (True,) * len(ops),
        (1.0, *(t.rate for t in terms))))


#: how many nonzero masks' CSR patterns a structure keeps, the least recently used dropped
_MASKS = 8


@dataclass(frozen=True, eq=False)
class AffineGenerator:
    """Generators ``sum_k c_k P_k`` over fixed parts ``P_k`` on one shared CSR
    pattern ``(indptr, indices)``.

    Row p of the CSR ``table`` (pattern nnz x parts) holds the values at
    pattern position p of the parts that have an entry there, in ascending
    part order, so a generator's values are the one product ``table @ c``.  A
    part is ``-i[h_k, .]`` or, if ``dissipative[k]``, the unit-rate
    dissipator of a jump operator, whose coefficient is then a rate; the
    sparse D x D ``operators`` are the ``h_k`` and the jump operators, which
    every generator built here carries as its terms.  Every array is
    read-only and shared by the generators built from these parts.
    """

    space: CompositeSpace
    indptr: np.ndarray
    indices: np.ndarray
    table: sp.csr_matrix
    dissipative: tuple[bool, ...]
    operators: tuple[sp.csr_matrix, ...]
    # the pattern of each nonzero mask seen, least recently used first; no
    # lock guards it, as the library shares no generator between threads
    _patterns: OrderedDict = field(default_factory=OrderedDict, init=False, repr=False)

    def at(self, coefficients: Sequence[float]) -> SuperOperator:
        """The generator with coefficient ``coefficients[k]`` on part k, the
        batch of one of ``at_each``."""
        return self.at_each([coefficients])[0]

    def at_each(self, points: Sequence[Sequence[float]]) -> list[SuperOperator]:
        """The generator of each point's coefficients, point p's
        ``points[p][k]`` on part k, all from one product ``table @ C`` (parts
        x points).  Each generator's matrix shares the read-only ``indptr`` and
        ``indices`` of the cached pattern of its nonzero mask, so a caller that
        edits them in place must copy it first."""
        points = [tuple(coefficients) for coefficients in points]
        for coefficients in points:
            if len(coefficients) != len(self.dissipative):
                raise ValueError(f"need {len(self.dissipative)} coefficients, "
                                 f"got {len(coefficients)}")
            for c, dissipative in zip(coefficients, self.dissipative):
                if not cmath.isfinite(c):   # a NaN rate would pass the sign test
                    raise ValueError(f"coefficients must be finite, got {c}")
                if dissipative and c < 0:
                    raise NegativeRateError(f"rate must be >= 0, got {c}")
        # per point and entry 0 + c_0 v_0 + c_1 v_1 + ..., summed as a product
        # with the point's column alone would; a zero coefficient adds a
        # signed zero, which leaves every sum as it was
        data = self.table @ np.array(points, dtype=complex).T
        generators = []
        for coefficients, values in zip(points, data.T):
            kept = values != 0   # entries also cancel exactly, as at omega = 1
            matrix = copy.copy(self._pattern(kept))
            matrix.data = values[kept]
            generators.append(SuperOperator(self.space, matrix,
                                            Terms(self.operators, self.dissipative, coefficients)))
        return generators

    def _pattern(self, kept: np.ndarray) -> sp.csr_matrix:
        """The read-only, canonical CSR pattern of the entries ``kept``."""
        key = np.packbits(kept).tobytes()
        pattern = self._patterns.pop(key, None)
        if pattern is None:
            if kept.all():
                indptr, indices = self.indptr, self.indices
            else:
                ends = np.concatenate(([0], np.cumsum(kept, dtype=np.int32)))
                indptr, indices = ends[self.indptr], self.indices[kept]
                indptr.flags.writeable = indices.flags.writeable = False
            n = self.indptr.size - 1
            pattern = sp.csr_matrix((np.ones(indices.size, dtype=np.int8), indices, indptr),
                                    shape=(n, n))
            pattern.has_canonical_format = True
            if len(self._patterns) == _MASKS:
                self._patterns.popitem(last=False)
        self._patterns[key] = pattern
        return pattern


def affine_generator(space: CompositeSpace,
                     operators: Iterable[tuple[bool, np.ndarray]]) -> AffineGenerator:
    """The parts of ``(dissipative, operator)`` pairs on one pattern.  The
    pairs are read once, in order, and no dense operator is kept."""
    n = space.dim ** 2
    flags, keys, values, sparse = [], [], [], []
    for dissipative, op in operators:
        flags.append(dissipative)
        op = _check_space(op, space)
        part = _dissipator_part(op) if dissipative else _hamiltonian_part(op)
        part.sum_duplicates()   # one position per entry, or the table would hold two
        keys.append(np.repeat(np.arange(n, dtype=np.int64), np.diff(part.indptr)) * n
                    + part.indices)
        values.append(part.data)
        sparse.append(sp.csr_matrix(op))
    pattern = np.sort(np.concatenate(keys))
    pattern = pattern[np.diff(pattern, prepend=-1) != 0]   # np.unique, without its hashing
    rows, cols = np.divmod(pattern, n)
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
    indices = cols.astype(np.int32)
    del rows, cols
    # the table as CSC, part k its column k of positions, then transposed to
    # CSR, which keeps each row's parts in ascending order
    offsets = np.cumsum([0] + [key.size for key in keys], dtype=np.int32)
    positions = np.concatenate([np.searchsorted(pattern, key).astype(np.int32) for key in keys])
    del keys, pattern
    values = np.concatenate(values)
    table = sp.csc_matrix((values, positions, offsets), shape=(indices.size, len(flags))).tocsr()
    for arr in (indptr, indices, table.data, table.indices, table.indptr,
                *(a for op in sparse for a in (op.data, op.indices, op.indptr))):
        arr.flags.writeable = False   # shared by every generator built from these parts
    return AffineGenerator(space, indptr, indices, table, tuple(flags), tuple(sparse))


def trace_preservation_defect(gen: SuperOperator) -> float:
    """Norm of vec(1)^T L relative to ||L||_F; zero for a trace-preserving generator."""
    d = gen.dim
    left_vac = vectorize(np.eye(d, dtype=complex)).conj() @ gen.matrix
    scale = sp.linalg.norm(gen.matrix, "fro")
    return float(np.linalg.norm(left_vac)) / max(float(scale), 1e-300)


@dataclass(frozen=True)
class BilinearKernelParams:
    """Coefficients of the general bilinear single-mode Markovian generator.

    ``mu`` multiplies the {x, p}/4 drift added to the Hamiltonian, ``kappa``
    the friction commutators, and ``dx``, ``dp``, ``dz`` the three diffusion
    terms.  Inadmissible coefficient sets are representable on purpose;
    admissibility is a property checked by :func:`check_positivity_condition`.
    """

    mu: float
    kappa: float
    dx: float
    dp: float
    dz: float


def check_positivity_condition(params: BilinearKernelParams) -> tuple[bool, float]:
    """Whether the kernel preserves positivity for every initial state.

    Returns ``(admissible, margin)`` with ``margin = dp*dx - dz^2 - (kappa/4)^2``;
    admissible requires ``dx >= 0``, ``dp >= 0`` and ``margin >= 0``.
    """
    margin = params.dp * params.dx - params.dz**2 - (params.kappa / 4.0) ** 2
    ok = params.dx >= 0.0 and params.dp >= 0.0 and margin >= 0.0
    return ok, float(margin)


def bilinear_kernel_superop(
    params: BilinearKernelParams,
    cutoff: int,
    space: CompositeSpace | None = None,
    mode: int | str = 0,
    h0: np.ndarray | None = None,
) -> SuperOperator:
    """Full bilinear generator: -i[h0 + (mu/4){x,p}, .] plus the kernel terms
    i*kappa/4*([p,{x,.}] - [x,{p,.}]) - dp[x,[x,.]] - dx[p,[p,.]]
    + dz([x,[p,.]] + [p,[x,.]]).

    By default everything lives on a single mode of the given cutoff with
    ``h0 = n``; with dp = dx = kappa(1+2nbar)/4 and mu = dz = 0 the result
    reduces entrywise to the thermally damped cavity.  Passing ``space`` (and
    ``mode``) embeds x and p on one bosonic factor of a joint space, leaving
    the other subsystems untouched by the kernel; ``h0`` then typically
    carries the joint Hamiltonian.
    """
    if space is None:
        space = CompositeSpace((Boson(cutoff, "mode"),))
    idx = space.index(mode)
    sub = space.subsystems[idx]
    if not isinstance(sub, Boson) or sub.cutoff != cutoff:
        raise DimensionError(f"subsystem {mode!r} is not a boson with cutoff {cutoff}")
    x1, p1 = quadratures(cutoff)
    x = embed(x1, space, idx)
    p = embed(p1, space, idx)
    if h0 is None:
        h0 = embed(number(cutoff), space, idx)
    h = _check_space(h0, space) + (params.mu / 4.0) * (x @ p + p @ x)
    cx, cp = _commutator(x), _commutator(p)
    ax, ap = _anticommutator(x), _anticommutator(p)
    mat = (
        -1j * _commutator(h)
        + (1j * params.kappa / 4.0) * (cp @ ax - cx @ ap)
        - params.dp * (cx @ cx)
        - params.dx * (cp @ cp)
        + params.dz * (cx @ cp + cp @ cx)
    )
    return SuperOperator(space, mat.tocsr())
