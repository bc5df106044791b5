"""Physical quantities extracted from density matrices.

``report`` and the entropies take a stack of states as well: the partial
traces are one einsum with a leading batch axis and the eigenvalues one
stacked ``eigvalsh``, while each state's filter of its eigenvalues and its
sums stay its own, so that every number is the one its state gives alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .hilbert import Boson, CompositeSpace, DimensionError, partial_trace

EIG_FLOOR = 1e-14


class PartitionError(ValueError):
    """Invalid bipartition for mutual information."""


def photon_distribution(
    rho: np.ndarray, space: CompositeSpace, mode: int | str
) -> np.ndarray:
    """Fock-basis populations of one bosonic mode (real, sums to the trace)."""
    idx = space.index(mode)
    if not isinstance(space.subsystems[idx], Boson):
        raise DimensionError(f"subsystem {mode!r} is not a bosonic mode")
    reduced = partial_trace(rho, space, [idx])
    return np.diag(reduced).real.copy()


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy in bits; eigenvalues at or below ``EIG_FLOOR`` are treated as zero."""
    return _entropies(np.asarray(rho)[None])[0]


def _entropies(rhos: np.ndarray) -> list[float]:
    """``von_neumann_entropy`` of each state of the stack ``rhos``, from one
    stacked ``eigvalsh``; each state's eigenvalues above the floor are then
    filtered and summed apart, as numpy's pairwise sum would reorder a row
    whose dropped entries became zeros in place."""
    w = np.linalg.eigvalsh(0.5 * (rhos + rhos.conj().swapaxes(-1, -2)))
    out = []
    for row in w:
        row = row[row > EIG_FLOOR]
        out.append(float(-(row * np.log2(row)).sum()) if row.size else 0.0)
    return out


def mutual_information(
    rho: np.ndarray,
    space: CompositeSpace,
    part_a: Iterable[int | str],
    part_b: Iterable[int | str],
) -> float:
    """S(A) + S(B) - S(AB) in bits between two disjoint subsystem sets.

    Subsystems outside A union B are traced out first, so for models with
    spectator elements the correlation is between the reduced true parties.
    """
    return _mutual_informations(np.asarray(rho)[None], space, tuple(part_a), tuple(part_b))[0]


def _mutual_informations(rhos: np.ndarray, space: CompositeSpace, part_a: tuple[int | str, ...],
                         part_b: tuple[int | str, ...]) -> list[float]:
    """``mutual_information`` of each state of the stack ``rhos``."""
    joint_keep, joint_space, pos_a, pos_b = _bipartition(space, part_a, part_b)
    joint = partial_trace(rhos, space, joint_keep)
    s_a = _entropies(partial_trace(joint, joint_space, pos_a))
    s_b = _entropies(partial_trace(joint, joint_space, pos_b))
    return [a + b - ab for a, b, ab in zip(s_a, s_b, _entropies(joint))]


@lru_cache(maxsize=64)
def _bipartition(space: CompositeSpace, part_a: tuple[int | str, ...],
                 part_b: tuple[int | str, ...]
                 ) -> tuple[tuple[int, ...], CompositeSpace, tuple[int, ...], tuple[int, ...]]:
    """The factors of ``space`` that ``mutual_information`` keeps, the space
    they span, and the positions there of ``part_a`` and of ``part_b``;
    worked out once per (space, parts), as a space is immutable."""
    a = sorted({space.index(s) for s in part_a})
    b = sorted({space.index(s) for s in part_b})
    if not a or not b:
        raise PartitionError("both parts of the partition must be non-empty")
    if set(a) & set(b):
        raise PartitionError(f"partition overlaps: {a} and {b}")
    joint_space = space.subspace(a + b)
    pos_a = tuple(joint_space.index(space.subsystems[i].label) for i in a)
    pos_b = tuple(joint_space.index(space.subsystems[i].label) for i in b)
    return tuple(a + b), joint_space, pos_a, pos_b


@dataclass(frozen=True)
class ObservableReport:
    """Summary observables of a joint state.

    ``n_mean``/``e_mean`` are keyed by subsystem label and ``distributions``
    by bosonic mode; ``i_af`` is the atom-field mutual information with any
    spectator subsystems traced out.
    """

    n_mean: dict[str, float]
    e_mean: dict[str, float]
    distributions: dict[str, np.ndarray]
    i_af: float


def report(rho: np.ndarray, space: CompositeSpace) -> ObservableReport:
    """Per-subsystem excitations and the true atom-field correlation, the
    batch of one of ``reports``."""
    return reports(np.asarray(rho)[None], space)[0]


def reports(rhos: np.ndarray, space: CompositeSpace) -> list[ObservableReport]:
    """``report`` of each state of the stack ``rhos`` (states x D x D): one
    partial trace per subsystem and three stacked entropies serve them all."""
    populations = [(sub, np.diagonal(partial_trace(rhos, space, [i]), axis1=1, axis2=2).real)
                   for i, sub in enumerate(space.subsystems)]
    i_af = _mutual_informations(rhos, space, ("atom",), ("cavity",))
    out = []
    for p, i_af_p in enumerate(i_af):
        n_mean: dict[str, float] = {}
        e_mean: dict[str, float] = {}
        distributions: dict[str, np.ndarray] = {}
        for sub, pops in populations:
            if isinstance(sub, Boson):
                distributions[sub.label] = pops[p].copy()
                n_mean[sub.label] = float(pops[p] @ np.arange(sub.dim))
            else:
                e_mean[sub.label] = float(pops[p, 1])
        out.append(ObservableReport(n_mean, e_mean, distributions, i_af_p))
    return out
