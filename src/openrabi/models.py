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
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

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


def _lowering(sub: Subsystem) -> np.ndarray:
    """Annihilation operator (boson) or sigma_minus (qubit)."""
    return annihilation(sub.cutoff) if isinstance(sub, Boson) else qubit_ops().sm


def _coupling_operator(coupling: Coupling, space: CompositeSpace, boson: Boson,
                       qubit: Qubit) -> np.ndarray:
    """p sigma_y (full), or a^+ s- + a s+ (rwa, at coefficient -g/sqrt2)."""
    qops = qubit_ops()
    mode, atom = space.index(boson.label), space.index(qubit.label)
    if coupling is Coupling.FULL:
        return embed(quadratures(boson.cutoff)[1], space, mode) @ embed(qops.sy, space, atom)
    a = embed(annihilation(boson.cutoff), space, mode)
    return a.conj().T @ embed(qops.sm, space, atom) + a @ embed(qops.sp, space, atom)


class _Term(NamedTuple):
    """One term of the generator: a Hamiltonian term ``coefficient * operator``
    or, if ``dissipative``, a jump operator at rate ``coefficient``."""

    dissipative: bool
    coefficient: float
    operator: Callable[[], np.ndarray]   # embedded; built only when called


def _terms(spec: ModelSpec) -> tuple[CompositeSpace, list[_Term]]:
    """Every term of the generator, read off the model table.

    Per element, in term order: its excitation operator at its frequency, its
    lowering and raising operators at decay*(nbar+1) and decay*nbar and, for
    atoms, sigma_z at dephasing/2; then one term per coupling.  Which terms
    there are, and their operators, depend only on (parasitic, coupling,
    cutoff); the parameters enter through the coefficients alone.
    """
    space, elements, couplings = _model(spec)

    # the local operator, too, is built only when the term's operator is called
    def local(make: Callable[[Subsystem], np.ndarray], sub: Subsystem) -> Callable[[], np.ndarray]:
        return lambda: embed(make(sub), space, space.index(sub.label))

    terms: list[_Term] = []
    for e in elements:
        sub = e.subsystem
        terms += [_Term(False, e.frequency, local(_excitation, sub)),
                  _Term(True, e.decay * (e.nbar + 1), local(_lowering, sub)),
                  _Term(True, e.decay * e.nbar, local(lambda s: _lowering(s).conj().T, sub))]
        if isinstance(sub, Qubit):
            terms.append(_Term(True, e.dephasing / 2, local(lambda s: qubit_ops().sz, sub)))
    for boson, qubit, g in couplings:
        terms.append(_Term(False, g if spec.coupling is Coupling.FULL else -(g / SQRT2),
                           partial(_coupling_operator, spec.coupling, space, boson, qubit)))
    return space, terms


@lru_cache(maxsize=16)
def _parts(parasitic: Parasitic, coupling: Coupling, cutoff: int) -> AffineGenerator:
    """The generator's parts for one structure, built once and shared by every
    point that differs from it only in its parameters."""
    # the parameters set only the coefficients, which are not used here
    spec = ModelSpec(RabiParams(omega=0.0, g=0.0), cutoff, coupling, parasitic)
    space, terms = _terms(spec)
    return affine_generator(space, [(t.dissipative, t.operator()) for t in terms])


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
    return sum(t.coefficient * t.operator() for t in _terms(spec)[1] if not t.dissipative)


def build_dissipators(spec: ModelSpec) -> list[LindbladTerm]:
    """Jump operators embedded in the full space, one term per nonzero rate."""
    return [LindbladTerm(t.operator(), t.coefficient)
            for t in _terms(spec)[1] if t.dissipative and t.coefficient > 0]


def build_liouvillian(spec: ModelSpec) -> SuperOperator:
    """Master-equation generator of the model: the cached parts of its
    structure, summed with the coefficients of its parameters."""
    coefficients = [t.coefficient for t in _terms(spec)[1]]
    return _parts(spec.parasitic, spec.coupling, spec.cutoff).at(coefficients)


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
