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
from dataclasses import dataclass, replace
from typing import NamedTuple

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
from .liouville import LindbladTerm, SuperOperator, assemble


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
        if self.nu <= 0:
            raise ValueError(f"parasitic mode frequency must be > 0, got {self.nu}")


@dataclass(frozen=True)
class ParasiticAtom:
    """Spectator two-level atom at transition frequency omega."""

    omega: float


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
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")

    def with_cutoff(self, cutoff: int) -> "ModelSpec":
        return replace(self, cutoff=cutoff)


class _Element(NamedTuple):
    """One subsystem of a model and the coefficients of its terms."""

    subsystem: Subsystem
    frequency: float    # multiplies its excitation operator in the Hamiltonian
    decay: float        # rate of its lowering operator at zero temperature
    nbar: float         # mean occupation of its bath
    dephasing: float    # gamma: sigma_z at rate gamma/2 (atoms only)


def _model(spec: ModelSpec) -> tuple[CompositeSpace, list[_Element], list[tuple]]:
    """The model as a table: its space, its elements in term order (cavity,
    atom, spectator) and its couplings as (boson, qubit, g).

    True cavity and atom couple to a thermal bath at ``nbar``; spectators are
    damped at zero temperature (the spectator mode at rate nu_t*kappa, the
    spectator atom with the same lam and gamma as the true atom).
    """
    par = spec.params
    cavity, atom = Boson(spec.cutoff, "cavity"), Qubit("atom")
    elements = [_Element(cavity, 1.0, par.kappa, par.nbar, 0.0),
                _Element(atom, par.omega, par.lam, par.nbar, par.gamma)]
    couplings = [(cavity, atom, par.g)]
    if isinstance(spec.parasitic, ParasiticMode):
        mode = Boson(spec.cutoff, "parasitic_mode")
        nu = spec.parasitic.nu
        elements.append(_Element(mode, nu, nu * par.kappa, 0.0, 0.0))
        couplings.append((mode, atom, np.sqrt(nu) * par.g))
    elif isinstance(spec.parasitic, ParasiticAtom):
        spectator = Qubit("parasitic_atom")
        elements.append(_Element(spectator, spec.parasitic.omega, par.lam, 0.0, par.gamma))
        couplings.append((cavity, spectator, par.g))
    # atoms before modes, each in term order
    subsystems = sorted((e.subsystem for e in elements), key=lambda s: isinstance(s, Boson))
    return CompositeSpace(tuple(subsystems)), elements, couplings


def _excitation(sub: Subsystem) -> np.ndarray:
    """Number operator (boson) or excited-state projector (qubit)."""
    return number(sub.cutoff) if isinstance(sub, Boson) else qubit_ops().excited


def _hamiltonian(coupling: Coupling, space: CompositeSpace, elements: list[_Element],
                 couplings: list[tuple]) -> np.ndarray:
    qops = qubit_ops()
    h = sum(e.frequency * embed(_excitation(e.subsystem), space, space.index(e.subsystem.label))
            for e in elements)
    for boson, qubit, g in couplings:
        mode, atom = space.index(boson.label), space.index(qubit.label)
        if coupling is Coupling.FULL:
            p = embed(quadratures(boson.cutoff)[1], space, mode)
            term = g * (p @ embed(qops.sy, space, atom))
        else:
            a = embed(annihilation(boson.cutoff), space, mode)
            sm, sp_ = embed(qops.sm, space, atom), embed(qops.sp, space, atom)
            term = -(g / SQRT2) * (a.conj().T @ sm + a @ sp_)
        h = h + term
    return h


def _dissipators(space: CompositeSpace, elements: list[_Element]) -> list[LindbladTerm]:
    qops = qubit_ops()
    terms: list[LindbladTerm] = []
    for e in elements:
        sub = e.subsystem
        pos = space.index(sub.label)
        lower = embed(annihilation(sub.cutoff) if isinstance(sub, Boson) else qops.sm, space, pos)
        if e.decay * (e.nbar + 1) > 0:
            terms.append(LindbladTerm(lower, e.decay * (e.nbar + 1)))
        if e.decay * e.nbar > 0:
            terms.append(LindbladTerm(lower.conj().T, e.decay * e.nbar))
        if e.dephasing > 0:
            terms.append(LindbladTerm(embed(qops.sz, space, pos), e.dephasing / 2))
    return terms


def build_space(spec: ModelSpec) -> CompositeSpace:
    """Tensor-product space: atoms before modes.

    bare:             qubit  (x) boson
    parasitic mode:   qubit  (x) boson (x) boson      (cavity, then spectator)
    parasitic atom:   qubit  (x) qubit (x) boson
    Both bosons share the per-mode cutoff of the spec.
    """
    return _model(spec)[0]


def build_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Hermitian Hamiltonian on ``build_space(spec)``."""
    return _hamiltonian(spec.coupling, *_model(spec))


def build_dissipators(spec: ModelSpec) -> list[LindbladTerm]:
    """Jump operators embedded in the full space, one term per nonzero rate."""
    return _dissipators(*_model(spec)[:2])


def build_liouvillian(spec: ModelSpec) -> SuperOperator:
    """Assembled master-equation generator for the model."""
    space, elements, couplings = _model(spec)
    return assemble(_hamiltonian(spec.coupling, space, elements, couplings),
                    _dissipators(space, elements), space)


def excitation_operator(space: CompositeSpace, subsystem: int | str) -> np.ndarray:
    """Number operator (boson) or excited-state projector (qubit), embedded."""
    idx = space.index(subsystem) if isinstance(subsystem, str) else subsystem
    return embed(_excitation(space.subsystems[idx]), space, idx)


def total_excitation(space: CompositeSpace) -> np.ndarray:
    """Sum of excitation operators over every subsystem."""
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(len(space.subsystems)):
        out += excitation_operator(space, i)
    return out
