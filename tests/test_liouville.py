import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import openrabi as orb
from openrabi.liouville import (
    _MASKS,
    NegativeRateError,
    NonHermitianError,
    affine_generator,
    trace_preservation_defect,
)
from openrabi.models import _coefficients, _operators
from util import REFERENCE_RATES, assert_same_csr, cavity_only_generator, reference_at


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_vectorize_convention_and_round_trip():
    rho = np.array([[1, 2], [3, 4]], dtype=complex)
    v = orb.vectorize(rho)
    assert v[1] == rho[1, 0]
    np.testing.assert_array_equal(orb.devectorize(v), rho)


def test_vectorize_sandwich_identity():
    # oracle: direct matrix multiplication of A rho B at D = 3
    rng = np.random.default_rng(21)
    d = 3
    for _ in range(10):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        lhs = orb.vectorize(a @ rho @ b)
        rhs = np.kron(b.T, a) @ orb.vectorize(rho)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_hamiltonian_superop_diagonal_and_commuting():
    space = orb.CompositeSpace((orb.Boson(2, "cavity"),))
    h = orb.number(2)
    sup = orb.hamiltonian_superop(h, space)
    dense = sup.matrix.toarray()
    assert np.abs(dense - np.diag(np.diag(dense))).max() == 0.0
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)  # commutes with n
    np.testing.assert_allclose(sup.apply(rho), 0, atol=1e-15)


def test_hamiltonian_superop_matches_dense_commutator():
    rng = np.random.default_rng(4)
    space = orb.CompositeSpace((orb.Boson(3, "cavity"),))
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = m + m.conj().T
    sup = orb.hamiltonian_superop(h, space)
    rho = random_density(rng, 4)
    expected = -1j * (h @ rho - rho @ h)
    assert np.abs(sup.apply(rho) - expected).max() < 1e-13


def test_hamiltonian_superop_rejects_non_hermitian():
    space = orb.CompositeSpace((orb.Qubit("q"),))
    with pytest.raises(NonHermitianError):
        orb.hamiltonian_superop(np.array([[0, 1], [0, 0]], complex), space)


def test_dissipator_on_fock_one():
    space = orb.CompositeSpace((orb.Boson(1, "cavity"),))
    term = orb.LindbladTerm(orb.annihilation(1), 1.0)
    sup = orb.dissipator_superop(term, space)
    rho = np.diag([0.0, 1.0]).astype(complex)
    np.testing.assert_allclose(sup.apply(rho), np.diag([1.0, -1.0]), atol=1e-15)


def test_dephasing_annihilates_populations():
    space = orb.CompositeSpace((orb.Qubit("q"),))
    sup = orb.dissipator_superop(orb.LindbladTerm(orb.qubit_ops().sz, 0.7), space)
    np.testing.assert_allclose(sup.apply(np.diag([0.4, 0.6]).astype(complex)), 0, atol=1e-15)
    coherent = np.array([[0.5, 0.5], [0.5, 0.5]], complex)
    assert np.abs(sup.apply(coherent)).max() > 0.1


def test_dissipator_matches_dense_formula():
    rng = np.random.default_rng(6)
    space = orb.CompositeSpace((orb.Boson(3, "cavity"),))
    phi = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rate = 0.37
    sup = orb.dissipator_superop(orb.LindbladTerm(phi, rate), space)
    rho = random_density(rng, 4)
    pdp = phi.conj().T @ phi
    expected = rate * (phi @ rho @ phi.conj().T - 0.5 * (pdp @ rho + rho @ pdp))
    assert np.abs(sup.apply(rho) - expected).max() < 1e-13


def test_dissipator_rejects_negative_rate():
    with pytest.raises(NegativeRateError):
        orb.LindbladTerm(orb.annihilation(1), -0.1)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
def test_dissipator_rejects_non_finite_rate(rate):
    with pytest.raises(ValueError, match=f"rate must be finite, got {rate}"):
        orb.LindbladTerm(orb.annihilation(1), rate)


def test_dissipator_linear_in_rate_and_assemble_additive():
    space = orb.CompositeSpace((orb.Boson(2, "cavity"),))
    a = orb.annihilation(2)
    one = orb.dissipator_superop(orb.LindbladTerm(a, 1.0), space)
    three = orb.dissipator_superop(orb.LindbladTerm(a, 3.0), space)
    np.testing.assert_allclose(three.matrix.toarray(), 3.0 * one.matrix.toarray(), atol=1e-15)
    h = orb.number(2)
    assembled = orb.assemble(h, [orb.LindbladTerm(a, 3.0)], space)
    parts = orb.hamiltonian_superop(h, space).matrix + three.matrix
    np.testing.assert_allclose(assembled.matrix.toarray(), parts.toarray(), atol=1e-15)


def test_assemble_zero_and_trace_preservation():
    space = orb.CompositeSpace((orb.Qubit("q"),))
    zero = orb.assemble(np.zeros((2, 2), complex), [], space)
    assert zero.matrix.nnz == 0

    spec = orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.05, **REFERENCE_RATES),
        cutoff=2,
        parasitic=orb.scenario_parasitic("a"),
    )
    gen = orb.build_liouvillian(spec)
    assert trace_preservation_defect(gen) <= 1e-12


def test_vacuum_is_dark_for_damped_cavity():
    gen, _ = cavity_only_generator(cutoff=3, kappa=0.8)
    vac = np.zeros((4, 4), complex)
    vac[0, 0] = 1.0
    assert np.abs(gen.matrix @ orb.vectorize(vac)).max() == 0.0


@pytest.mark.parametrize("nbar", [0.0, 0.5])
@pytest.mark.parametrize("kappa", [1.0, 1e-6])
def test_bilinear_kernel_reduces_to_damped_cavity(nbar, kappa):
    cutoff = 5
    params = orb.BilinearKernelParams(
        mu=0.0, kappa=kappa, dx=kappa * (1 + 2 * nbar) / 4, dp=kappa * (1 + 2 * nbar) / 4, dz=0.0
    )
    kernel = orb.bilinear_kernel_superop(params, cutoff)
    sme, _ = cavity_only_generator(cutoff, kappa, nbar)
    diff = np.abs((kernel.matrix - sme.matrix).toarray()).max()
    assert diff <= 1e-12


def test_bilinear_kernel_zero_coefficients_is_free_evolution():
    params = orb.BilinearKernelParams(mu=0.0, kappa=0.0, dx=0.0, dp=0.0, dz=0.0)
    kernel = orb.bilinear_kernel_superop(params, 3)
    space = orb.CompositeSpace((orb.Boson(3, "mode"),))
    free = orb.hamiltonian_superop(orb.number(3), space)
    np.testing.assert_allclose(kernel.matrix.toarray(), free.matrix.toarray(), atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(
    kappa=st.floats(min_value=1e-6, max_value=1.0),
    scale_x=st.floats(min_value=1.0, max_value=5.0),
    scale_p=st.floats(min_value=1.0, max_value=5.0),
    dz_frac=st.floats(min_value=-0.9, max_value=0.9),
    mu=st.floats(min_value=-0.5, max_value=0.5),
)
# dp * dx - (kappa/4)**2 rounds to -6.9e-18 here
@example(kappa=0.8536418940036037, scale_x=1.0, scale_p=1.0, dz_frac=0.5, mu=0.0)
def test_bilinear_kernel_trace_preserving(kappa, scale_x, scale_p, dz_frac, mu):
    dx = scale_x * kappa / 4
    dp = scale_p * kappa / 4
    dz = dz_frac * np.sqrt(max(dp * dx - (kappa / 4) ** 2, 0.0))
    kernel = orb.bilinear_kernel_superop(
        orb.BilinearKernelParams(mu=mu, kappa=kappa, dx=dx, dp=dp, dz=dz), 4
    )
    assert trace_preservation_defect(kernel) <= 1e-12


def test_positivity_condition_examples():
    kappa = 0.8
    ok, margin = orb.check_positivity_condition(
        orb.BilinearKernelParams(0.0, kappa, kappa / 4, kappa / 4, 0.0)
    )
    assert ok and margin == 0.0
    ok, margin = orb.check_positivity_condition(
        orb.BilinearKernelParams(0.0, kappa, kappa / 2, kappa / 2, 0.0)
    )
    assert ok and margin == pytest.approx(3 * kappa**2 / 16)
    mu = kappa / 2  # vacuum-targeting family member with nonzero drift
    ok, margin = orb.check_positivity_condition(
        orb.BilinearKernelParams(mu, kappa, (kappa - mu) / 4, (kappa + mu) / 4, 0.0)
    )
    assert not ok and margin < 0


def test_superoperator_dimension_checks():
    space = orb.CompositeSpace((orb.Qubit("q"),))
    with pytest.raises(orb.DimensionError):
        orb.hamiltonian_superop(np.eye(3, dtype=complex), space)
    with pytest.raises(orb.DimensionError):
        orb.devectorize(np.zeros(5, complex))


def test_affine_generator_checks_hermiticity_and_rates():
    space = orb.CompositeSpace((orb.Boson(2, "cavity"),))
    a = orb.annihilation(2)
    with pytest.raises(NonHermitianError):
        affine_generator(space, [(False, a)])
    gen = affine_generator(space, [(False, orb.number(2)), (True, a)])
    with pytest.raises(NegativeRateError):
        gen.at([1.0, -0.1])
    expected = orb.assemble(orb.number(2), [orb.LindbladTerm(a, 0.1)], space).matrix
    np.testing.assert_array_equal(gen.at([1.0, 0.1]).matrix.toarray(), expected.toarray())
    for coefficients in ([1.0], [1.0, 0.1, 0.2]):
        with pytest.raises(ValueError, match="need 2 coefficients"):
            gen.at(coefficients)


def _bare_parts():
    """The parts of the bare model at cutoff 1, built afresh, and the
    coefficients of a point at omega = 0.7 with thermal photons."""
    spec = orb.ModelSpec(orb.RabiParams(0.7, 0.05, nbar=0.3, **REFERENCE_RATES))
    return (affine_generator(orb.build_space(spec), _operators(None, orb.Coupling.FULL, 1)),
            list(_coefficients(spec)))


def test_at_shares_read_only_patterns_and_owns_its_values():
    gen, coefficients = _bare_parts()
    first = gen.at(coefficients).matrix
    # nothing pruned: the structure's own index arrays
    assert np.shares_memory(first.indices, gen.indices)
    assert np.shares_memory(first.indptr, gen.indptr)
    pruned = [c if k else 0.0 for k, c in enumerate(coefficients)]
    for matrix in (first, gen.at(pruned).matrix):
        assert not matrix.indices.flags.writeable and not matrix.indptr.flags.writeable
        assert matrix.has_canonical_format
    again = gen.at(pruned).matrix
    assert again.indices is gen.at(pruned).matrix.indices
    first.data *= 2.0   # a point's values are its own
    assert_same_csr(gen.at(coefficients).matrix, reference_at(gen, coefficients))


def test_second_build_of_a_mask_runs_no_constructor(monkeypatch):
    gen, coefficients = _bare_parts()
    gen.at(coefficients)
    calls = []
    for name in ("__init__", "eliminate_zeros"):
        method = getattr(sp.csr_matrix, name)
        monkeypatch.setattr(sp.csr_matrix, name,
                            lambda *a, _m=method, _n=name, **k: calls.append(_n) or _m(*a, **k))
    omega = coefficients[:]
    omega[0] = 0.9   # another atomic frequency, the same nonzero mask
    got = gen.at(omega).matrix
    assert calls == []
    monkeypatch.undo()
    assert_same_csr(got, reference_at(gen, omega))


def test_mask_patterns_stay_bounded():
    # each subset of zeroed rates drops the entries of its own parts
    gen, coefficients = _bare_parts()
    rates = [k for k, d in enumerate(gen.dissipative) if d]
    masks = set()
    for subset in range(2 ** len(rates)):
        point = [0.0 if k in rates and subset >> rates.index(k) & 1 else c
                 for k, c in enumerate(coefficients)]
        reference = reference_at(gen, point)
        assert_same_csr(gen.at(point).matrix, reference)
        masks.add(reference.indices.tobytes() + reference.indptr.tobytes())
    assert len(masks) > _MASKS
    assert len(gen._patterns) == _MASKS
