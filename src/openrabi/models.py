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

import numpy as np

from .hilbert import (
    SQRT2,
    Boson,
    CompositeSpace,
    Qubit,
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


def build_space(spec: ModelSpec) -> CompositeSpace:
    """Tensor-product space: atom first, spectator atom (if any) before the cavity.

    bare:             qubit  (x) boson
    parasitic mode:   qubit  (x) boson (x) boson      (cavity, then spectator)
    parasitic atom:   qubit  (x) qubit (x) boson
    Both bosons share the per-mode cutoff of the spec.
    """
    atom = Qubit("atom")
    cavity = Boson(spec.cutoff, "cavity")
    if spec.parasitic is None:
        return CompositeSpace((atom, cavity))
    if isinstance(spec.parasitic, ParasiticMode):
        return CompositeSpace((atom, cavity, Boson(spec.cutoff, "parasitic_mode")))
    return CompositeSpace((atom, Qubit("parasitic_atom"), cavity))


def _coupling_term(
    coupling: Coupling,
    g: float,
    mode_a: np.ndarray,
    mode_p: np.ndarray,
    atom_sm: np.ndarray,
    atom_sp: np.ndarray,
    atom_sy: np.ndarray,
) -> np.ndarray:
    if coupling is Coupling.FULL:
        return g * (mode_p @ atom_sy)
    return -(g / SQRT2) * (mode_a.conj().T @ atom_sm + mode_a @ atom_sp)


def build_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Hermitian Hamiltonian on ``build_space(spec)``."""
    space = build_space(spec)
    qops = qubit_ops()
    a1 = annihilation(spec.cutoff)
    p1 = quadratures(spec.cutoff)[1]
    n1 = number(spec.cutoff)
    cav = space.index("cavity")
    atom = space.index("atom")

    a = embed(a1, space, cav)
    p = embed(p1, space, cav)
    n = embed(n1, space, cav)
    sm = embed(qops.sm, space, atom)
    sp_ = embed(qops.sp, space, atom)
    sy = embed(qops.sy, space, atom)
    exc = embed(qops.excited, space, atom)

    h = n + spec.params.omega * exc
    h = h + _coupling_term(spec.coupling, spec.params.g, a, p, sm, sp_, sy)

    if isinstance(spec.parasitic, ParasiticMode):
        pos = space.index("parasitic_mode")
        at = embed(a1, space, pos)
        pt = embed(p1, space, pos)
        nt = embed(n1, space, pos)
        g_t = np.sqrt(spec.parasitic.nu) * spec.params.g
        h = h + spec.parasitic.nu * nt
        h = h + _coupling_term(spec.coupling, g_t, at, pt, sm, sp_, sy)
    elif isinstance(spec.parasitic, ParasiticAtom):
        pos = space.index("parasitic_atom")
        smt = embed(qops.sm, space, pos)
        spt = embed(qops.sp, space, pos)
        syt = embed(qops.sy, space, pos)
        exct = embed(qops.excited, space, pos)
        h = h + spec.parasitic.omega * exct
        h = h + _coupling_term(spec.coupling, spec.params.g, a, p, smt, spt, syt)
    return h


def build_dissipators(spec: ModelSpec) -> list[LindbladTerm]:
    """Jump operators embedded in the full space, one term per nonzero rate.

    True cavity and atom couple to a thermal reservoir at ``nbar``; spectator
    elements are damped at zero temperature (the spectator mode at rate
    nu_t*kappa, the spectator atom with the same lam and gamma/2 rates as the
    true atom).
    """
    space = build_space(spec)
    qops = qubit_ops()
    par = spec.params
    terms: list[LindbladTerm] = []

    a = embed(annihilation(spec.cutoff), space, space.index("cavity"))
    if par.kappa * (par.nbar + 1) > 0:
        terms.append(LindbladTerm(a, par.kappa * (par.nbar + 1)))
    if par.kappa * par.nbar > 0:
        terms.append(LindbladTerm(a.conj().T, par.kappa * par.nbar))

    atom = space.index("atom")
    sm = embed(qops.sm, space, atom)
    if par.lam * (par.nbar + 1) > 0:
        terms.append(LindbladTerm(sm, par.lam * (par.nbar + 1)))
    if par.lam * par.nbar > 0:
        terms.append(LindbladTerm(sm.conj().T, par.lam * par.nbar))
    if par.gamma > 0:
        terms.append(LindbladTerm(embed(qops.sz, space, atom), par.gamma / 2))

    if isinstance(spec.parasitic, ParasiticMode):
        pos = space.index("parasitic_mode")
        rate = spec.parasitic.nu * par.kappa
        if rate > 0:
            terms.append(LindbladTerm(embed(annihilation(spec.cutoff), space, pos), rate))
    elif isinstance(spec.parasitic, ParasiticAtom):
        pos = space.index("parasitic_atom")
        if par.lam > 0:
            terms.append(LindbladTerm(embed(qops.sm, space, pos), par.lam))
        if par.gamma > 0:
            terms.append(LindbladTerm(embed(qops.sz, space, pos), par.gamma / 2))
    return terms


def build_liouvillian(spec: ModelSpec) -> SuperOperator:
    """Assembled master-equation generator for the model."""
    return assemble(build_hamiltonian(spec), build_dissipators(spec), build_space(spec))


def excitation_operator(space: CompositeSpace, subsystem: int | str) -> np.ndarray:
    """Number operator (boson) or excited-state projector (qubit), embedded."""
    idx = space.index(subsystem) if isinstance(subsystem, str) else subsystem
    sub = space.subsystems[idx]
    local = number(sub.cutoff) if isinstance(sub, Boson) else qubit_ops().excited
    return embed(local, space, idx)


def total_excitation(space: CompositeSpace) -> np.ndarray:
    """Sum of excitation operators over every subsystem."""
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(len(space.subsystems)):
        out += excitation_operator(space, i)
    return out
