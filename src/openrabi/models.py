"""Hamiltonians and dissipator lists for the lossy Rabi model and its variants.

The cavity frequency sets the unit system (nu = 1).  The atom-field coupling
is through the p-quadrature, ``g * p * sigma_y``; expanded in ladder operators

    g p sigma_y = (g/sqrt2) [(a^+ s+ + a s-) - (a^+ s- + a s+)],

so dropping the pair-creating part (the anti-rotating term) leaves the
excitation-conserving coupling ``-(g/sqrt2)(a^+ s- + a s+)``.  ``Coupling.RWA``
keeps exactly that rotating part, which makes the anti-rotating term the only
difference between the two coupling forms.

Optional "parasitic" spectators: a second cavity mode at frequency nu_t with
coupling sqrt(nu_t)*g and zero-temperature damping nu_t*kappa, or a second
two-level atom at frequency omega_t coupled through the same cavity
quadrature with the same g and the same (zero-temperature) atomic rates.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .hilbert import (
    SQRT2,
    Boson,
    CompositeSpace,
    Qubit,
    Subsystem,
    annihilation,
    embed,
    number,
    qubit_ops,
    quadratures,
)
from .liouville import AffineGenerator, LindbladTerm, SuperOperator, affine_generator


class Coupling(enum.Enum):
    FULL = "full"   # keeps the anti-rotating term
    RWA = "rwa"     # drops it


@dataclass(frozen=True)
class RabiParams:
    """Physical parameters in units of the cavity frequency."""

    omega: float        # atomic transition frequency
    g: float            # atom-field coupling constant
    kappa: float = 0.0  # cavity relaxation rate
    lam: float = 0.0    # atomic relaxation rate
    gamma: float = 0.0  # pure dephasing rate
    nbar: float = 0.0   # reservoir mean photon number

    def __post_init__(self) -> None:
        # a NaN rate fails every comparison, so it would silently drop its
        # dissipator in build_dissipators instead of failing
        for name in ("omega", "g", "kappa", "lam", "gamma", "nbar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("kappa", "lam", "gamma", "nbar"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class ParasiticMode:
    """Spectator cavity mode at frequency nu (> 0), initially in vacuum."""

    nu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"parasitic mode frequency must be finite and > 0, got {self.nu}")


@dataclass(frozen=True)
class ParasiticAtom:
    """Spectator two-level atom at transition frequency omega."""

    omega: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.omega):
            raise ValueError(f"parasitic atom frequency must be finite, got {self.omega}")


Parasitic = ParasiticMode | ParasiticAtom | None

#: the named spectator configurations used throughout the sweeps
SCENARIOS: dict[str, Parasitic] = {
    "bare": None,
    "a": ParasiticMode(2.0),
    "b": ParasiticMode(0.5),
    "c": ParasiticAtom(0.2),
    "d": ParasiticAtom(1.8),
}


def scenario_parasitic(name: str) -> Parasitic:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}") from None


@dataclass(frozen=True)
class ModelSpec:
    """A complete model: parameters, spectator, coupling form and Fock cutoff."""

    params: RabiParams
    cutoff: int = 1
    coupling: Coupling = Coupling.FULL
    parasitic: Parasitic = None

    def __post_init__(self) -> None:
        # a wrong type would otherwise build another model, or a non-integer space
        if not isinstance(self.coupling, Coupling):
            raise TypeError(f"coupling must be a Coupling, got {self.coupling!r}")
        if not isinstance(self.parasitic, ParasiticMode | ParasiticAtom | None):
            raise TypeError(f"parasitic must be a ParasiticMode, a ParasiticAtom or None, "
                            f"got {self.parasitic!r}")
        try:
            if isinstance(self.cutoff, bool):
                raise TypeError
            operator.index(self.cutoff)
        except TypeError:
            raise TypeError(f"cutoff must be an integer, got {self.cutoff!r}") from None
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")


class _Element(NamedTuple):
    """One subsystem of a model and the coefficients of its terms."""

    label: str
    boson: bool         # a mode at the spec's cutoff, else a two-level atom
    frequency: float    # multiplies its excitation operator in the Hamiltonian
    decay: float        # rate of its lowering operator at zero temperature
    nbar: float         # mean occupation of its bath
    dephasing: float    # gamma: sigma_z at rate gamma/2 (atoms only)


def _model(params: RabiParams, parasitic: Parasitic
           ) -> tuple[list[_Element], list[tuple[str, str, float]]]:
    """The model as a table: its elements in term order (cavity, atom,
    spectator) and its couplings as (boson, qubit, g), by label.

    Per element, in term order, the generator has its excitation operator at
    its frequency, its lowering and raising operators at decay*(nbar+1) and
    decay*nbar and, for atoms, sigma_z at dephasing/2; then one term per
    coupling.  Which terms there are, and their operators, depend only on
    (parasitic, coupling, cutoff): ``_parts`` builds them once per such
    structure, and a point computes only its coefficient tuple from this
    table.

    True cavity and atom couple to a thermal bath at ``nbar``; spectators are
    damped at zero temperature (the spectator mode at rate nu_t*kappa, the
    spectator atom with the same lam and gamma as the true atom).
    """
    elements = [_Element("cavity", True, 1.0, params.kappa, params.nbar, 0.0),
                _Element("atom", False, params.omega, params.lam, params.nbar, params.gamma)]
    couplings = [("cavity", "atom", params.g)]
    if isinstance(parasitic, ParasiticMode):
        nu = parasitic.nu
        elements.append(_Element("parasitic_mode", True, nu, nu * params.kappa, 0.0, 0.0))
        couplings.append(("parasitic_mode", "atom", np.sqrt(nu) * params.g))
    elif isinstance(parasitic, ParasiticAtom):
        elements.append(_Element("parasitic_atom", False, parasitic.omega, params.lam, 0.0,
                                 params.gamma))
        couplings.append(("cavity", "parasitic_atom", params.g))
    return elements, couplings


#: parameters at which the table is read for its structure alone
_STRUCTURE = RabiParams(omega=0.0, g=0.0)


def _space(parasitic: Parasitic, cutoff: int) -> CompositeSpace:
    # atoms before modes, each in term order
    elements = sorted(_model(_STRUCTURE, parasitic)[0], key=lambda e: e.boson)
    return CompositeSpace(tuple(Boson(cutoff, e.label) if e.boson else Qubit(e.label)
                                for e in elements))


def _excitation(sub: Subsystem) -> np.ndarray:
    """Number operator (boson) or excited-state projector (qubit)."""
    return number(sub.cutoff) if isinstance(sub, Boson) else qubit_ops().excited


def _coefficients(spec: ModelSpec) -> tuple[float, ...]:
    """The coefficient of every term of the generator, in table order."""
    elements, couplings = _model(spec.params, spec.parasitic)
    out = []
    for e in elements:
        out += [e.frequency, e.decay * (e.nbar + 1), e.decay * e.nbar]
        if not e.boson:
            out.append(e.dephasing / 2)
    out += [g if spec.coupling is Coupling.FULL else -(g / SQRT2) for *_, g in couplings]
    return tuple(out)


def _operators(parasitic: Parasitic, coupling: Coupling, cutoff: int,
               keep: Callable[[int, bool], bool] = lambda k, dissipative: True
               ) -> Iterator[tuple[bool, np.ndarray | None]]:
    """``(dissipative, operator)`` of every term of the generator, in table
    order, each embedded in the full space only when it is reached, and only
    if ``keep(k, dissipative)`` holds for term k: the operator of a term not
    kept is None."""
    elements, couplings = _model(_STRUCTURE, parasitic)
    space, qops = _space(parasitic, cutoff), qubit_ops()
    k = 0
    for e in elements:
        i = space.index(e.label)
        lowering = annihilation(cutoff) if e.boson else qops.sm
        local = [(False, _excitation(space.subsystems[i])), (True, lowering),
                 (True, lowering.conj().T)] + ([] if e.boson else [(True, qops.sz)])
        for dissipative, op in local:
            yield dissipative, embed(op, space, i) if keep(k, dissipative) else None
            k += 1
    for boson, qubit, _ in couplings:
        mode, atom = space.index(boson), space.index(qubit)
        if not keep(k, False):
            yield False, None
        elif coupling is Coupling.FULL:   # p sigma_y
            yield False, embed(quadratures(cutoff)[1], space, mode) @ embed(qops.sy, space, atom)
        else:                           # a^+ s- + a s+, at coefficient -g/sqrt2
            a = embed(annihilation(cutoff), space, mode)
            yield False, a.conj().T @ embed(qops.sm, space, atom) + a @ embed(qops.sp, space, atom)
        k += 1


@lru_cache(maxsize=16)
def _parts(parasitic: Parasitic, coupling: Coupling, cutoff: int) -> AffineGenerator:
    """The generator's parts for one structure, built once and shared by every
    point that differs from it only in its parameters."""
    return affine_generator(_space(parasitic, cutoff), _operators(parasitic, coupling, cutoff))


#: the generator entries, summed over its points, that a batch of one
#: structure holds at most: its stacked values and products stay ~0.5 MiB
_BATCH_ENTRIES = 1 << 15


def batch_size(spec: ModelSpec) -> int:
    """How many points of ``spec``'s structure one batch takes: as many as
    hold ``_BATCH_ENTRIES`` generator entries together, and at least one."""
    return max(1, _BATCH_ENTRIES // _parts(spec.parasitic, spec.coupling, spec.cutoff).indices.size)


def build_space(spec: ModelSpec) -> CompositeSpace:
    """Tensor-product space: atoms before modes.

    bare:             qubit  (x) boson
    parasitic mode:   qubit  (x) boson (x) boson      (cavity, then spectator)
    parasitic atom:   qubit  (x) qubit (x) boson
    Both bosons share the per-mode cutoff of the spec.
    """
    return _space(spec.parasitic, spec.cutoff)


def build_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Hermitian Hamiltonian on ``build_space(spec)``."""
    terms = zip(_coefficients(spec), _operators(spec.parasitic, spec.coupling, spec.cutoff,
                                                lambda k, dissipative: not dissipative),
                strict=True)
    return sum(c * op for c, (dissipative, op) in terms if not dissipative)


def build_dissipators(spec: ModelSpec) -> list[LindbladTerm]:
    """Jump operators embedded in the full space, one term per nonzero rate."""
    coefficients = _coefficients(spec)
    terms = zip(coefficients, _operators(spec.parasitic, spec.coupling, spec.cutoff,
                                         lambda k, dissipative: dissipative and coefficients[k] > 0),
                strict=True)
    return [LindbladTerm(op, c) for c, (dissipative, op) in terms if dissipative and c > 0]


def build_liouvillians(specs: Sequence[ModelSpec]) -> list[SuperOperator]:
    """The master-equation generator of each model: the points of one
    structure are summed from its cached parts in one product, with the
    coefficients of their parameters."""
    generators: list = [None] * len(specs)
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.parasitic, spec.coupling, spec.cutoff), []).append(i)
    for structure, members in groups.items():
        built = _parts(*structure).at_each([_coefficients(specs[i]) for i in members])
        for i, gen in zip(members, built):
            generators[i] = gen
    return generators


def build_liouvillian(spec: ModelSpec) -> SuperOperator:
    """Master-equation generator of the model, the batch of one of
    ``build_liouvillians``."""
    return build_liouvillians([spec])[0]


def excitation_operator(space: CompositeSpace, subsystem: int | str) -> np.ndarray:
    """Number operator (boson) or excited-state projector (qubit), embedded."""
    idx = space.index(subsystem)
    return embed(_excitation(space.subsystems[idx]), space, idx)


def total_excitation(space: CompositeSpace) -> np.ndarray:
    """Sum of excitation operators over every subsystem."""
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(len(space.subsystems)):
        out += excitation_operator(space, i)
    return out
