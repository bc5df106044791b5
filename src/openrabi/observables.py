"""Physical quantities extracted from density matrices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .hilbert import Boson, CompositeSpace, DimensionError, partial_trace

EIG_FLOOR = 1e-14


class PartitionError(ValueError):
    """Invalid bipartition for mutual information."""


def _resolve(space: CompositeSpace, subsystem: int | str) -> int:
    return space.index(subsystem) if isinstance(subsystem, str) else subsystem


def photon_distribution(
    rho: np.ndarray, space: CompositeSpace, mode: int | str
) -> np.ndarray:
    """Fock-basis populations of one bosonic mode (real, sums to the trace)."""
    idx = _resolve(space, mode)
    if not isinstance(space.subsystems[idx], Boson):
        raise DimensionError(f"subsystem {mode!r} is not a bosonic mode")
    reduced = partial_trace(rho, space, [idx])
    return np.diag(reduced).real.copy()


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy in bits; eigenvalues at or below ``EIG_FLOOR`` are treated as zero."""
    w = np.linalg.eigvalsh(0.5 * (rho + np.asarray(rho).conj().T))
    w = w[w > EIG_FLOOR]
    return float(-(w * np.log2(w)).sum()) if w.size else 0.0


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
    a = sorted({_resolve(space, s) for s in part_a})
    b = sorted({_resolve(space, s) for s in part_b})
    if not a or not b:
        raise PartitionError("both parts of the partition must be non-empty")
    if set(a) & set(b):
        raise PartitionError(f"partition overlaps: {a} and {b}")
    joint = partial_trace(rho, space, a + b)
    joint_space = space.subspace(a + b)
    pos_a = [joint_space.index(space.subsystems[i].label) for i in a]
    pos_b = [joint_space.index(space.subsystems[i].label) for i in b]
    s_a = von_neumann_entropy(partial_trace(joint, joint_space, pos_a))
    s_b = von_neumann_entropy(partial_trace(joint, joint_space, pos_b))
    return s_a + s_b - von_neumann_entropy(joint)


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
    """Per-subsystem excitations and the true atom-field correlation."""
    n_mean: dict[str, float] = {}
    e_mean: dict[str, float] = {}
    distributions: dict[str, np.ndarray] = {}
    for i, sub in enumerate(space.subsystems):
        reduced = partial_trace(rho, space, [i])
        pops = np.diag(reduced).real
        if isinstance(sub, Boson):
            distributions[sub.label] = pops.copy()
            n_mean[sub.label] = float(pops @ np.arange(sub.dim))
        else:
            e_mean[sub.label] = float(pops[1])
    i_af = mutual_information(rho, space, ["atom"], ["cavity"])
    return ObservableReport(n_mean, e_mean, distributions, i_af)
