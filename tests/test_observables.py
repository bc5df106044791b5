import numpy as np
import pytest

import openrabi as orb
from openrabi.observables import ObservableReport, PartitionError

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


def _reference_partial_trace(rho, space, keep):
    """The reduced state on the sorted factors ``keep``, by the same einsum
    as ``partial_trace``, its subscripts worked out on every call."""
    k = len(space.dims)
    dims = list(space.dims)
    col_idx = [i + k if i in keep else i for i in range(k)]
    reduced = np.einsum(rho.reshape(dims + dims), list(range(k)) + col_idx,
                        keep + [i + k for i in keep])
    return reduced.reshape(int(np.prod([dims[i] for i in keep])), -1)


def _reference_report(rho, space):
    n_mean, e_mean, distributions = {}, {}, {}
    for i, sub in enumerate(space.subsystems):
        pops = np.diag(_reference_partial_trace(rho, space, [i])).real
        if isinstance(sub, orb.Boson):
            distributions[sub.label] = pops.copy()
            n_mean[sub.label] = float(pops @ np.arange(sub.dim))
        else:
            e_mean[sub.label] = float(pops[1])
    atom, cavity = space.index("atom"), space.index("cavity")
    joint = _reference_partial_trace(rho, space, sorted([atom, cavity]))
    pair = orb.CompositeSpace(tuple(space.subsystems[i] for i in sorted([atom, cavity])))
    s_a = orb.von_neumann_entropy(_reference_partial_trace(joint, pair, [pair.index("atom")]))
    s_b = orb.von_neumann_entropy(_reference_partial_trace(joint, pair, [pair.index("cavity")]))
    return n_mean, e_mean, distributions, s_a + s_b - orb.von_neumann_entropy(joint)


@pytest.mark.parametrize("scenario", ["bare", "a", "b", "c", "d"])
@pytest.mark.parametrize("coupling", [orb.Coupling.FULL, orb.Coupling.RWA])
@pytest.mark.parametrize("cutoff", [1, 2, 3])
@pytest.mark.parametrize("nbar", [0.0, 0.3])
def test_report_equals_the_uncached_reference(scenario, coupling, cutoff, nbar):
    # report reads its index lists and subspaces from per-space caches; its
    # numbers equal those of the same einsums and entropies worked out anew
    spec = orb.ModelSpec(
        params=orb.RabiParams(omega=1.1, g=0.05, nbar=nbar, kappa=1e-6, lam=1e-6, gamma=2.5e-7),
        cutoff=cutoff, coupling=coupling, parasitic=orb.scenario_parasitic(scenario))
    space = orb.build_space(spec)
    rho = orb.steady_state(orb.build_liouvillian(spec)).rho
    rep = orb.report(rho, space)
    n_mean, e_mean, distributions, i_af = _reference_report(rho, space)
    assert rep.n_mean == n_mean and rep.e_mean == e_mean
    assert distributions.keys() == rep.distributions.keys()
    for label, dist in distributions.items():
        np.testing.assert_array_equal(rep.distributions[label], dist)
    assert rep.i_af == i_af


def test_spaces_with_equal_dims_and_other_labels_share_no_cached_plan():
    # the caches key on the space, labels included: a space of the same
    # dimensions under other labels gets its own index lists and subspace
    from openrabi import hilbert, observables

    rho, space = bell_state()
    other = orb.CompositeSpace((orb.Qubit("x"), orb.Qubit("y")))
    hilbert._reduction.cache_clear()
    observables._bipartition.cache_clear()
    values = [orb.mutual_information(rho, s, [0], [1]) for s in (space, other, space)]
    assert values[0] == values[1] == values[2] == pytest.approx(2.0, abs=1e-12)
    assert observables._bipartition.cache_info().currsize == 2
    # the joint state and each qubit, per space
    assert hilbert._reduction.cache_info().currsize == 6
    for s in (space, other):
        joint_space = observables._bipartition(s, (0,), (1,))[1]
        assert joint_space == s and [q.label for q in joint_space.subsystems] == [
            q.label for q in s.subsystems]
    with pytest.raises(KeyError):
        orb.mutual_information(rho, other, ["a"], ["b"])


@pytest.mark.parametrize("scenario", ["bare", "a", "b", "c", "d"])
@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_stacked_reports_equal_the_per_point_report(scenario, cutoff):
    # one einsum with a leading batch axis and stacked eigvalsh give every
    # state of the stack the numbers it has alone, and those of the uncached
    # per-point reference; cutoffs 3 and 4 give joint states of dimension 8
    # and more, where numpy's sums turn pairwise
    specs = [orb.ModelSpec(
        params=orb.RabiParams(omega=omega, g=0.05, nbar=nbar, kappa=1e-6, lam=1e-6,
                              gamma=2.5e-7),
        cutoff=cutoff, parasitic=orb.scenario_parasitic(scenario))
        for omega in (0.7, 1.0, 1.3) for nbar in (0.0, 0.3)]
    space = orb.build_space(specs[0])
    rhos = np.stack([result.rho for result in orb.steady_states(orb.build_liouvillians(specs))])
    for stack in (rhos, rhos[::-1]):
        for rho, rep in zip(stack, orb.reports(stack, space)):
            for alone in (orb.report(rho, space), ObservableReport(*_reference_report(rho, space))):
                assert rep.n_mean == alone.n_mean and rep.e_mean == alone.e_mean
                assert rep.distributions.keys() == alone.distributions.keys()
                for label, dist in alone.distributions.items():
                    assert rep.distributions[label].tobytes() == dist.tobytes()
                assert rep.i_af.hex() == alone.i_af.hex()
