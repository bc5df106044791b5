import numpy as np
import pytest

import openrabi as orb
from openrabi.observables import PartitionError

SQ2 = np.sqrt(2.0)

BOSONIC_THERMAL_ENTROPY_HALF = 1.3774437510817343  # (1+nb)log2(1+nb) - nb*log2(nb) at nb=0.5


def bell_state():
    space = orb.CompositeSpace((orb.Qubit("a"), orb.Qubit("b")))
    psi = np.zeros(4, complex)
    psi[0] = psi[3] = 1 / SQ2
    return np.outer(psi, psi.conj()), space


def steady_for(scenario, omega=1.0, cutoff=2, kappa=1e-6):
    spec = orb.ModelSpec(
        params=orb.RabiParams(omega=omega, g=0.05, kappa=kappa, lam=1e-6, gamma=2.5e-7),
        cutoff=cutoff,
        parasitic=orb.scenario_parasitic(scenario),
    )
    return orb.steady_state(orb.build_liouvillian(spec)).rho, orb.build_space(spec)


def test_photon_distribution_vacuum_and_thermal():
    space = orb.CompositeSpace((orb.Qubit("atom"), orb.Boson(4, "cavity")))
    vac = orb.basis_ket(space, [0, 0])
    dist = orb.photon_distribution(np.outer(vac, vac.conj()), space, "cavity")
    np.testing.assert_allclose(dist, [1, 0, 0, 0, 0], atol=1e-15)

    thermal = np.kron(np.diag([1.0, 0.0]).astype(complex), orb.thermal_state(0.5, 4))
    dist = orb.photon_distribution(thermal, space, "cavity")
    np.testing.assert_allclose(dist, orb.thermal_distribution(0.5, 4), atol=1e-14)
    assert dist.sum() == pytest.approx(1.0, abs=1e-10)


def test_photon_distribution_requires_bosonic_mode():
    space = orb.CompositeSpace((orb.Qubit("atom"), orb.Boson(2, "cavity")))
    rho = np.eye(6, dtype=complex) / 6
    with pytest.raises(orb.DimensionError):
        orb.photon_distribution(rho, space, "atom")


def test_steady_distribution_is_not_geometric():
    # same-mean thermal reference has a constant population ratio; the
    # counter-rotating steady state deviates from it by far at resonance
    rho, space = steady_for("c", omega=1.0)
    dist = orb.photon_distribution(rho, space, "cavity")
    ratio_10 = dist[1] / dist[0]
    ratio_21 = dist[2] / dist[1]
    assert ratio_21 / ratio_10 > 2.0


def test_entropy_pure_mixed_thermal():
    assert orb.von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0
    assert orb.von_neumann_entropy(np.eye(2, dtype=complex) / 2) == pytest.approx(1.0)
    s = orb.von_neumann_entropy(orb.thermal_state(0.5, 30))
    assert s == pytest.approx(BOSONIC_THERMAL_ENTROPY_HALF, abs=1e-3)


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(17)
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(m)
    rotated = q @ rho @ q.conj().T
    assert orb.von_neumann_entropy(rotated) == pytest.approx(orb.von_neumann_entropy(rho), abs=1e-10)


def test_mutual_information_product_and_bell():
    space = orb.CompositeSpace((orb.Qubit("a"), orb.Qubit("b")))
    product = np.kron(np.diag([0.3, 0.7]), np.diag([0.6, 0.4])).astype(complex)
    assert abs(orb.mutual_information(product, space, [0], [1])) < 1e-10

    rho, space = bell_state()
    assert orb.mutual_information(rho, space, [0], [1]) == pytest.approx(2.0, abs=1e-12)


def test_mutual_information_partition_errors():
    rho, space = bell_state()
    with pytest.raises(PartitionError):
        orb.mutual_information(rho, space, [0], [0])
    with pytest.raises(PartitionError):
        orb.mutual_information(rho, space, [], [1])


def test_steady_state_atom_field_correlation_positive():
    rho, space = steady_for("bare")
    i_af = orb.mutual_information(rho, space, ["atom"], ["cavity"])
    assert i_af > 0


@pytest.mark.parametrize("omega", [0.7, 1.0, 1.3])
def test_parasitic_elements_lower_mutual_information(omega):
    bare, bare_space = steady_for("bare", omega=omega)
    i_bare = orb.mutual_information(bare, bare_space, ["atom"], ["cavity"])
    for scenario in ("a", "c"):
        rho, space = steady_for(scenario, omega=omega)
        i_par = orb.mutual_information(rho, space, ["atom"], ["cavity"])
        assert 0 < i_par < i_bare


def test_mutual_information_nonnegative_on_random_states():
    rng = np.random.default_rng(23)
    space = orb.CompositeSpace((orb.Qubit("a"), orb.Boson(1, "b")))
    for _ in range(20):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        assert orb.mutual_information(rho, space, [0], [1]) >= -1e-10


def test_report_summary():
    rho, space = steady_for("c")
    rep = orb.report(rho, space)
    assert set(rep.n_mean) == {"cavity"}
    assert set(rep.e_mean) == {"atom", "parasitic_atom"}
    dist = rep.distributions["cavity"]
    assert rep.n_mean["cavity"] == pytest.approx(float(dist @ np.arange(dist.size)))
    assert rep.i_af == pytest.approx(orb.mutual_information(rho, space, ["atom"], ["cavity"]))
