import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import openrabi as orb
from openrabi.analytic import DegenerateKernelError, DegenerateParametersError
from util import REFERENCE_RATES

# frozen from a 60-digit evaluation of the closed forms (see test_acceptance
# for the in-test re-derivation)
FROZEN = {
    1.0: 7.800312012477457e-04,
    0.7: 1.0789814415186238e-03,
    1.3: 5.9004012272817145e-04,
}
KERNEL_N1 = 6.2421972534324292e-04
KERNEL_E1 = 6.2421972540566489e-04


@pytest.mark.parametrize("omega,expected", sorted(FROZEN.items()))
def test_one_photon_frozen_values(omega, expected):
    res = orb.one_photon_excitations(orb.RabiParams(omega=omega, g=0.05, **REFERENCE_RATES))
    assert res.n_mean == pytest.approx(expected, rel=1e-12)
    assert res.e_mean == pytest.approx(expected, rel=1e-12)
    assert res.nsz_mean == 0.0  # kappa = lam makes <E> - <n> vanish


def test_one_photon_decreases_off_resonance():
    values = [FROZEN[0.7], FROZEN[1.0], FROZEN[1.3]]
    assert values[0] > values[1] > values[2]


def test_decoupled_limit_is_zero():
    res = orb.one_photon_excitations(orb.RabiParams(omega=1.0, g=0.0, **REFERENCE_RATES))
    assert res.n_mean == 0.0
    assert res.e_mean == 0.0


def test_one_photon_requires_zero_temperature():
    with pytest.raises(ValueError):
        orb.one_photon_excitations(orb.RabiParams(omega=1.0, g=0.05, nbar=0.1, **REFERENCE_RATES))


def test_degenerate_denominator_raises():
    with pytest.raises(DegenerateParametersError):
        orb.one_photon_excitations(orb.RabiParams(omega=1.0, g=0.1))


def test_correlation_prefactor_guard():
    params = orb.RabiParams(omega=1.0, g=0.05, kappa=0.0, lam=0.0, gamma=1e-6)
    assert orb.one_photon_excitations(params).nsz_mean is None
    with pytest.raises(DegenerateParametersError):
        orb.one_photon_correlation(params)


rates = st.floats(min_value=1e-9, max_value=1e-3)


@settings(max_examples=50, deadline=None)
@given(
    omega=st.floats(min_value=0.2, max_value=2.0),
    g=st.floats(min_value=1e-3, max_value=0.2),
    kappa=rates,
    lam=rates,
    gamma=rates,
)
# kappa and lam one ulp apart: <E> and <n> agree to ~26 digits, so only the
# 50-digit difference carries the sign
@example(omega=1.0, g=0.125, kappa=1.0000000000000003e-09, lam=1e-09, gamma=9.9e-4)
def test_exchange_symmetry_and_difference_identity(omega, g, kappa, lam, gamma):
    fwd = orb.one_photon_excitations(orb.RabiParams(omega, g, kappa, lam, gamma))
    rev = orb.one_photon_excitations(orb.RabiParams(omega, g, lam, kappa, gamma))
    assert fwd.n_mean == pytest.approx(rev.e_mean, rel=1e-9)
    assert fwd.e_mean == pytest.approx(rev.n_mean, rel=1e-9)

    inter = orb.one_photon_intermediates(orb.RabiParams(omega, g, kappa, lam, gamma))
    identity = inter.pump / inter.denom * inter.lorentz * (kappa - lam)
    assert fwd.e_minus_n == pytest.approx(identity, rel=1e-7, abs=1e-25)
    if kappa != lam:
        assert np.sign(fwd.e_minus_n) == np.sign(kappa - lam)


@pytest.mark.parametrize("omega", [0.7, 1.0, 1.3])
def test_monotone_growth_with_dephasing(omega):
    kappa = 1e-6
    gammas = np.linspace(0.0, 10 * kappa, 9)
    values = [
        orb.one_photon_excitations(
            orb.RabiParams(omega=omega, g=0.05, kappa=kappa, lam=1e-6, gamma=gm)
        ).n_mean
        for gm in gammas
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_general_kernel_frozen_value_and_cross_identity():
    kappa = 1e-6
    sme = orb.BilinearKernelParams(mu=0.0, kappa=kappa, dx=kappa / 4, dp=kappa / 4, dz=0.0)
    kernel = orb.general_kernel_excitations(1.0, 0.05, sme)
    assert kernel.n_mean == pytest.approx(KERNEL_N1, rel=1e-12)
    assert kernel.e_mean == pytest.approx(KERNEL_E1, rel=1e-12)
    assert kernel.positive

    # cavity-only damping described twice: both closed forms must agree
    direct = orb.one_photon_excitations(orb.RabiParams(omega=1.0, g=0.05, kappa=kappa))
    assert kernel.n_mean == pytest.approx(direct.n_mean, rel=1e-10)
    assert kernel.e_mean == pytest.approx(direct.e_mean, rel=1e-10)


def test_general_kernel_small_coupling_limit():
    kappa = 1e-6
    sme = orb.BilinearKernelParams(mu=0.0, kappa=kappa, dx=kappa / 4, dp=kappa / 4, dz=0.0)
    tiny = orb.general_kernel_excitations(1.0, 1e-6, sme)
    assert 0 < tiny.n_mean < 1e-9


def test_general_kernel_guards():
    with pytest.raises(ValueError):
        orb.general_kernel_excitations(1.0, 0.0, orb.BilinearKernelParams(0, 1, 0.25, 0.25, 0))
    with pytest.raises(DegenerateKernelError):
        orb.general_kernel_excitations(1.0, 0.05, orb.BilinearKernelParams(0, 1, 0.25, 0.0, 0))
    with pytest.raises(DegenerateKernelError):
        orb.kernel_derived(1.0, orb.BilinearKernelParams(0, 1, 0.25, 0.0, 0))


@settings(max_examples=50, deadline=None)
@given(
    omega=st.floats(min_value=0.2, max_value=2.0),
    g=st.floats(min_value=1e-3, max_value=0.2),
    kappa=st.floats(min_value=1e-6, max_value=0.1),
    sx=st.floats(min_value=1.0, max_value=4.0),
    sp_=st.floats(min_value=1.0, max_value=4.0),
    t=st.floats(min_value=-0.9, max_value=0.9),
)
def test_general_kernel_outputs_in_open_interval(omega, g, kappa, sx, sp_, t):
    # admissible kernels sampled around the damped-cavity point; dz stays
    # inside the positivity bound so nu_plus and nu_minus remain positive.
    # At sx = sp = 1 the bound is 0 and can round to below it: such a kernel
    # is not admissible, and is no sample
    dx = sx * kappa / 4
    dp = sp_ * kappa / 4
    assume(dp * dx - (kappa / 4) ** 2 >= 0.0)
    dz = t * np.sqrt(dp * dx - (kappa / 4) ** 2)
    params = orb.BilinearKernelParams(mu=0.0, kappa=kappa, dx=dx, dp=dp, dz=dz)
    ok, _ = orb.check_positivity_condition(params)
    assert ok
    res = orb.general_kernel_excitations(omega, g, params)
    assert 0.0 < res.n_mean < 0.5
    assert 0.0 < res.e_mean < 0.5
    assert res.positive


@pytest.mark.parametrize("omega", [0.8, 1.0])
@pytest.mark.parametrize(
    "kernel",
    [
        orb.BilinearKernelParams(0.0, 1e-6, 2.5e-7, 2.5e-7, 0.0),
        orb.BilinearKernelParams(0.0, 1e-6, 4e-7, 3e-7, 1e-7),
        orb.BilinearKernelParams(3e-7, 1e-6, 4e-7, 4e-7, 0.0),
    ],
)
def test_general_kernel_matches_joint_steady_state(omega, kernel):
    # dual route: the closed form against the one-photon Liouvillian built
    # from the kernel embedded on the cavity of the coupled atom-mode space
    spec = orb.ModelSpec(params=orb.RabiParams(omega=omega, g=0.05), cutoff=1)
    space = orb.build_space(spec)
    gen = orb.bilinear_kernel_superop(
        kernel, 1, space=space, mode="cavity", h0=orb.build_hamiltonian(spec)
    )
    rho = orb.steady_state(gen).rho
    n = orb.expectation(orb.excitation_operator(space, "cavity"), rho).real
    e = orb.expectation(orb.excitation_operator(space, "atom"), rho).real
    ref = orb.general_kernel_excitations(omega, 0.05, kernel)
    assert n == pytest.approx(ref.n_mean, rel=1e-10)
    assert e == pytest.approx(ref.e_mean, rel=1e-10)


def test_kernel_derived_quantities():
    kernel = orb.BilinearKernelParams(mu=0.0, kappa=1e-6, dx=2.5e-7, dp=2.5e-7, dz=0.0)
    derived = orb.kernel_derived(1.0, kernel)
    assert derived.d_sum == pytest.approx(5e-7)
    assert derived.nu_plus == 1.0 and derived.nu_minus == 1.0
    assert derived.response == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("kappa", [1e-6, 0.3])
def test_vacuum_coefficients_unique_admissible_member(kappa):
    checks = orb.vacuum_coefficients(kappa)
    by_mu = {c.mu: c for c in checks}
    assert by_mu[0.0].admissible and by_mu[0.0].margin == 0.0
    for mu, check in by_mu.items():
        if mu != 0.0:
            assert not check.admissible
            assert check.margin < 0
    with pytest.raises(ValueError):
        orb.vacuum_coefficients(0.0)


def test_thermal_distribution():
    np.testing.assert_array_equal(orb.thermal_distribution(0.0, 4), [1, 0, 0, 0, 0])
    probs = orb.thermal_distribution(0.5, 20)
    assert probs[0] == pytest.approx(2.0 / 3.0, abs=1e-4)
    assert probs[1] == pytest.approx(2.0 / 9.0, abs=1e-4)
    probs30 = orb.thermal_distribution(0.5, 30)
    assert probs30 @ np.arange(31) == pytest.approx(0.5, abs=1e-6)
    assert probs30.sum() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        orb.thermal_distribution(-0.1, 5)


def test_thermal_state_is_valid_density_matrix():
    rho = orb.thermal_state(0.5, 10)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.eigvalsh(rho).min() >= 0
