"""Closed-form steady-state excitation numbers and related references.

The one-photon formulas mix terms spanning ~20 orders of magnitude at the
rate scales of interest (rates 1e-6 against frequencies of order one), so
every closed form here is evaluated with mpmath at 50 significant digits and
only converted to float on return.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .liouville import BilinearKernelParams, check_positivity_condition
from .models import RabiParams

_DPS = 50


class DegenerateParametersError(ValueError):
    """Rates make the one-photon closed form undefined (vanishing denominator)."""


class DegenerateKernelError(ValueError):
    """Kernel coefficients make the general closed form undefined."""


@dataclass(frozen=True)
class OnePhotonIntermediates:
    """Derived quantities entering the one-photon closed forms.

    detuning   atomic frequency minus the cavity frequency (Omega - 1)
    linewidth  gamma + (kappa + lam)/2
    pump       g^2 * linewidth, the scale of incoherent pair creation
    lorentz    detuning^2 + linewidth^2
    alpha      lorentz + 2*Omega
    beta       alpha^2 - 4*Omega^2
    denom      2*pump*(alpha*(kappa+lam) + 2*pump) + lam*kappa*beta
    """

    detuning: float
    linewidth: float
    pump: float
    lorentz: float
    alpha: float
    beta: float
    denom: float


@dataclass(frozen=True)
class OnePhotonResult:
    """Steady-state excitations induced by the anti-rotating coupling term.

    ``e_minus_n`` is <E> - <n> taken in 50 digits before rounding: when kappa
    and lam nearly coincide the two means agree beyond double precision, and
    the difference of their floats cancels to zero.  ``nsz_mean`` (the
    <n sigma_z> moment quantifying atom-field correlation) is ``None`` when
    ``lam + kappa == 0``, where its prefactor is undefined.
    """

    n_mean: float
    e_mean: float
    e_minus_n: float
    nsz_mean: float | None


def _mp_intermediates(params: RabiParams):
    omega = mp.mpf(params.omega)
    g = mp.mpf(params.g)
    kappa = mp.mpf(params.kappa)
    lam = mp.mpf(params.lam)
    gamma = mp.mpf(params.gamma)
    detuning = omega - 1
    linewidth = gamma + (kappa + lam) / 2
    pump = g**2 * linewidth
    lorentz = detuning**2 + linewidth**2
    alpha = lorentz + 2 * omega
    beta = alpha**2 - 4 * omega**2
    denom = 2 * pump * (alpha * (kappa + lam) + 2 * pump) + lam * kappa * beta
    return detuning, linewidth, pump, lorentz, alpha, beta, denom


def _require_zero_temperature(params: RabiParams) -> None:
    if params.nbar != 0:
        raise ValueError("the one-photon closed forms hold for nbar = 0 only")


def one_photon_intermediates(params: RabiParams) -> OnePhotonIntermediates:
    _require_zero_temperature(params)
    with mp.workdps(_DPS):
        vals = _mp_intermediates(params)
    return OnePhotonIntermediates(*(float(v) for v in vals))


def one_photon_excitations(params: RabiParams) -> OnePhotonResult:
    """Asymptotic <n> and <E> in the one-photon approximation (nbar = 0).

    n = (pump/denom) * (2*pump + lam*lorentz)
    E = (pump/denom) * (2*pump + kappa*lorentz)
    <n sigma_z> = lam/(lam + kappa) * (E - n)
    """
    _require_zero_temperature(params)
    with mp.workdps(_DPS):
        _, _, pump, lorentz, _, _, denom = _mp_intermediates(params)
        kappa = mp.mpf(params.kappa)
        lam = mp.mpf(params.lam)
        if denom == 0:
            raise DegenerateParametersError(
                "denominator vanishes; need at least one nonzero rate combination"
            )
        n_mean = (pump / denom) * (2 * pump + lam * lorentz)
        e_mean = (pump / denom) * (2 * pump + kappa * lorentz)
        diff = e_mean - n_mean
        nsz = lam / (lam + kappa) * diff if lam + kappa > 0 else None
    return OnePhotonResult(
        n_mean=float(n_mean),
        e_mean=float(e_mean),
        e_minus_n=float(diff),
        nsz_mean=None if nsz is None else float(nsz),
    )


def one_photon_correlation(params: RabiParams) -> float:
    """The <n sigma_z> moment; raises when lam + kappa = 0 (undefined prefactor)."""
    if params.lam + params.kappa == 0:
        raise DegenerateParametersError("<n sigma_z> prefactor undefined at lam + kappa = 0")
    result = one_photon_excitations(params)
    assert result.nsz_mean is not None
    return result.nsz_mean


@dataclass(frozen=True)
class KernelDerived:
    """Derived kernel quantities: diffusion sum, 1 +- 2*dz, and the response
    factor 1/(omega^2 + 4*dx^2 + nu_plus*nu_minus*dx/dp)."""

    d_sum: float
    nu_plus: float
    nu_minus: float
    response: float


def _mp_kernel(omega: float, kernel: BilinearKernelParams):
    """d_sum, nu_plus, nu_minus and response as mpmath numbers; call at _DPS."""
    if kernel.dp == 0:
        raise DegenerateKernelError("dp = 0 makes the response factor undefined")
    dx, dp, dz = mp.mpf(kernel.dx), mp.mpf(kernel.dp), mp.mpf(kernel.dz)
    nu_plus = 1 + 2 * dz
    nu_minus = 1 - 2 * dz
    inverse_response = mp.mpf(omega) ** 2 + 4 * dx**2 + nu_plus * nu_minus * dx / dp
    if inverse_response == 0:
        raise DegenerateKernelError("vanishing response denominator")
    return dx + dp, nu_plus, nu_minus, 1 / inverse_response


def kernel_derived(omega: float, kernel: BilinearKernelParams) -> KernelDerived:
    with mp.workdps(_DPS):
        return KernelDerived(*(float(v) for v in _mp_kernel(omega, kernel)))


@dataclass(frozen=True)
class GeneralKernelResult:
    n_mean: float
    e_mean: float
    positive: bool  # both means strictly positive, as required of any Markovian kernel


def general_kernel_excitations(
    omega: float, g: float, kernel: BilinearKernelParams
) -> GeneralKernelResult:
    """One-photon <n> and <E> for the general bilinear Markovian kernel.

    n = (1/2) (1 - (kappa/2) / (d_sum + 2 g^2 dx response))
    E = (1/2) (1 - (kappa/2) omega response nu_plus (d_sum/dp)
                    / (d_sum + 2 g^2 dx response))
    """
    if g == 0:
        raise ValueError("the general-kernel closed form requires g != 0")
    with mp.workdps(_DPS):
        d_sum, nu_plus, _, response = _mp_kernel(omega, kernel)
        dx, dp = mp.mpf(kernel.dx), mp.mpf(kernel.dp)
        kap = mp.mpf(kernel.kappa)
        om = mp.mpf(omega)
        gg = mp.mpf(g)
        denom = d_sum + 2 * gg**2 * dx * response
        if denom == 0:
            raise DegenerateKernelError("vanishing denominator d_sum + 2 g^2 dx response")
        n_mean = (1 - kap / 2 / denom) / 2
        e_mean = (1 - kap / 2 * om * response * nu_plus * (d_sum / dp) / denom) / 2
    n_f, e_f = float(n_mean), float(e_mean)
    return GeneralKernelResult(n_f, e_f, positive=n_f > 0 and e_f > 0)


@dataclass(frozen=True)
class VacuumCoefficientCheck:
    mu: float
    params: BilinearKernelParams
    admissible: bool
    margin: float


def vacuum_coefficients(
    kappa: float, mu_values: tuple[float, ...] | None = None
) -> list[VacuumCoefficientCheck]:
    """The one-parameter kernel family whose second moments target the vacuum.

    For each mu the coefficients are dp = (kappa+mu)/4, dx = (kappa-mu)/4,
    dz = 0.  Positivity then demands kappa^2 - mu^2 >= kappa^2, so mu = 0 is
    the only admissible member: the zero-temperature damped cavity is the
    unique vacuum-preserving bilinear Markovian generator.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if mu_values is None:
        mu_values = (0.0, kappa / 4, -kappa / 4, kappa / 2, -kappa / 2, kappa, -kappa)
    checks = []
    for mu in mu_values:
        params = BilinearKernelParams(
            mu=mu, kappa=kappa, dx=(kappa - mu) / 4, dp=(kappa + mu) / 4, dz=0.0
        )
        ok, margin = check_positivity_condition(params)
        checks.append(VacuumCoefficientCheck(mu, params, ok, margin))
    return checks


def thermal_distribution(nbar: float, cutoff: int) -> np.ndarray:
    """Geometric photon-number distribution renormalized over 0..cutoff."""
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if nbar == 0:
        probs = np.zeros(cutoff + 1)
        probs[0] = 1.0
        return probs
    ratio = nbar / (1.0 + nbar)
    probs = ratio ** np.arange(cutoff + 1) / (1.0 + nbar)
    return probs / probs.sum()


def thermal_state(nbar: float, cutoff: int) -> np.ndarray:
    """Diagonal thermal density matrix on a mode with the given cutoff."""
    return np.diag(thermal_distribution(nbar, cutoff)).astype(complex)
