import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import openrabi as orb
from openrabi.hilbert import DimensionError, herm_defect, validate_density_matrix

SQ2 = np.sqrt(2.0)


def test_annihilation_matrix_elements():
    np.testing.assert_array_equal(orb.annihilation(1), np.array([[0, 1], [0, 0]], complex))
    a2 = orb.annihilation(2)
    assert a2[0, 1] == 1.0
    assert a2[1, 2] == pytest.approx(np.sqrt(2.0), rel=0, abs=0)
    assert np.count_nonzero(a2) == 2
    np.testing.assert_array_equal(orb.annihilation(0), np.zeros((1, 1), complex))


def test_number_operator_from_ladder_product():
    for cutoff in (1, 3, 6):
        a = orb.annihilation(cutoff)
        prod = a.conj().T @ a
        off_diag = prod - np.diag(np.diag(prod))
        assert np.abs(off_diag).max() == 0.0
        # sqrt(m)*sqrt(m) rounds; the diagonal is 0..N to a few ulp
        np.testing.assert_allclose(np.diag(prod).real, np.arange(cutoff + 1), rtol=4e-16)
        np.testing.assert_array_equal(orb.number(cutoff), np.diag(np.arange(cutoff + 1.0)))


def test_quadratures_cutoff_one():
    x, p = orb.quadratures(1)
    np.testing.assert_allclose(x, np.array([[0, 1], [1, 0]]) / SQ2)
    np.testing.assert_allclose(p, np.array([[0, -1j], [1j, 0]]) / SQ2)


def test_quadratures_hermitian_exactly():
    for cutoff in (1, 2, 5):
        x, p = orb.quadratures(cutoff)
        assert np.abs(x - x.conj().T).max() == 0.0
        assert np.abs(p - p.conj().T).max() == 0.0


def test_quadrature_commutator_truncation_artifact():
    # direct matrix multiplication: [x, p] = i on all levels below the cutoff,
    # with entry (N, N) = -i*N from the truncation
    cutoff = 3
    x, p = orb.quadratures(cutoff)
    comm = x @ p - p @ x
    expected = 1j * np.eye(cutoff + 1, dtype=complex)
    expected[cutoff, cutoff] = -1j * cutoff
    np.testing.assert_allclose(comm, expected, atol=1e-15)


def test_qubit_operator_identities():
    q = orb.qubit_ops()
    np.testing.assert_allclose(q.sy @ q.sy, np.eye(2))
    np.testing.assert_allclose(q.excited, (q.sz + np.eye(2)) / 2)
    np.testing.assert_allclose(q.sp @ q.sm, q.excited)
    np.testing.assert_array_equal(q.sp, q.sm.conj().T)


def test_embed_identity_and_dimensions():
    space = orb.CompositeSpace((orb.Qubit("atom"), orb.Boson(2, "cavity")))
    embedded = orb.embed(np.eye(3, dtype=complex), space, 1)
    np.testing.assert_array_equal(embedded, np.eye(6))
    a = orb.embed(orb.annihilation(2), space, 1)
    assert a.shape == (6, 6)


def test_embed_equals_kron_with_identities():
    rng = np.random.default_rng(5)
    space = orb.CompositeSpace((orb.Qubit("atom"), orb.Boson(2, "cavity"), orb.Boson(1, "extra")))
    for position, d in enumerate(space.dims):
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        factors = [op if i == position else np.eye(n) for i, n in enumerate(space.dims)]
        reference = np.kron(np.kron(factors[0], factors[1]), factors[2])
        np.testing.assert_array_equal(orb.embed(op, space, position), reference)


def test_embed_rejects_wrong_dimension():
    space = orb.CompositeSpace((orb.Qubit("atom"), orb.Boson(2, "cavity")))
    with pytest.raises(DimensionError):
        orb.embed(np.eye(3, dtype=complex), space, 0)
    with pytest.raises(DimensionError):
        orb.embed(np.eye(2, dtype=complex), space, 5)


def test_embedded_operators_on_distinct_factors_commute():
    rng = np.random.default_rng(7)
    space = orb.CompositeSpace((orb.Qubit("atom"), orb.Boson(2, "cavity")))
    for _ in range(5):
        a = orb.embed(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), space, 0)
        b = orb.embed(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), space, 1)
        np.testing.assert_allclose(a @ b - b @ a, 0, atol=1e-14)


def test_embed_preserves_spectral_norm_and_hermiticity():
    rng = np.random.default_rng(11)
    space = orb.CompositeSpace((orb.Boson(1, "cavity"), orb.Qubit("atom"), orb.Boson(2, "extra")))
    for _ in range(5):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = m + m.conj().T
        emb = orb.embed(h, space, 1)
        assert herm_defect(emb) == 0.0
        assert np.linalg.norm(emb, 2) == pytest.approx(np.linalg.norm(h, 2), rel=1e-12)


def test_expectation_normalization_and_vacuum():
    space = orb.CompositeSpace((orb.Boson(3, "cavity"),))
    vacuum = np.zeros((4, 4), complex)
    vacuum[0, 0] = 1.0
    assert orb.expectation(np.eye(4, dtype=complex), vacuum) == pytest.approx(1.0)
    assert abs(orb.expectation(orb.number(3), vacuum)) == 0.0
    assert space.dim == 4


def test_expectation_thermal_mean():
    # oracle: truncated geometric series with nbar = 0.5, summed directly
    nbar, cutoff = 0.5, 25
    weights = (nbar / (1 + nbar)) ** np.arange(cutoff + 1) / (1 + nbar)
    probs = weights / weights.sum()
    rho = np.diag(probs).astype(complex)
    mean = orb.expectation(orb.number(cutoff), rho).real
    assert mean == pytest.approx(0.5, abs=1e-6)


def test_expectation_conjugate_symmetry_and_linearity():
    rng = np.random.default_rng(3)
    d = 4
    rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = rho @ rho.conj().T
    rho /= np.trace(rho)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert orb.expectation(a.conj().T, rho) == pytest.approx(np.conj(orb.expectation(a, rho)))
    lhs = orb.expectation(2.5 * a + 1j * b, rho)
    rhs = 2.5 * orb.expectation(a, rho) + 1j * orb.expectation(b, rho)
    assert lhs == pytest.approx(rhs)


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionError):
        orb.expectation(np.eye(2, dtype=complex), np.eye(3, dtype=complex) / 3)


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    space = orb.CompositeSpace((orb.Qubit("a"), orb.Boson(2, "b")))
    rho_a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_a = rho_a @ rho_a.conj().T
    rho_a /= np.trace(rho_a)
    rho_b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho_b = rho_b @ rho_b.conj().T
    rho_b /= np.trace(rho_b)
    joint = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(orb.partial_trace(joint, space, [0]), rho_a, atol=1e-14)
    np.testing.assert_allclose(orb.partial_trace(joint, space, [1]), rho_b, atol=1e-14)


def test_partial_trace_bell_state():
    space = orb.CompositeSpace((orb.Qubit("a"), orb.Qubit("b")))
    bell = np.zeros(4, complex)
    bell[0] = bell[3] = 1 / SQ2
    rho = np.outer(bell, bell.conj())
    np.testing.assert_allclose(orb.partial_trace(rho, space, [0]), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_preserves_trace_and_identity_on_keep_all():
    rng = np.random.default_rng(9)
    space = orb.CompositeSpace((orb.Qubit("a"), orb.Boson(1, "b"), orb.Qubit("c")))
    rho = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = rho @ rho.conj().T
    rho /= np.trace(rho)
    reduced = orb.partial_trace(rho, space, [0, 2])
    assert np.trace(reduced) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_array_equal(orb.partial_trace(rho, space, [0, 1, 2]), rho)


def test_partial_trace_empty_keep_rejected():
    space = orb.CompositeSpace((orb.Qubit("a"), orb.Qubit("b")))
    with pytest.raises(ValueError):
        orb.partial_trace(np.eye(4, dtype=complex) / 4, space, [])


def test_validate_density_matrix():
    margins = validate_density_matrix(np.diag([0.5, 0.5]).astype(complex))
    assert margins == {"trace_deviation": 0.0, "herm_defect": 0.0, "min_eigenvalue": 0.5}
    with pytest.raises(ValueError):
        validate_density_matrix(np.full((2, 2), np.nan, dtype=complex))
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[0.5, 0.3], [0.1, 0.5]], complex))
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))


@settings(max_examples=30, deadline=None)
@given(cutoff=st.integers(min_value=0, max_value=8))
def test_ladder_product_eigenvalues(cutoff):
    a = orb.annihilation(cutoff)
    eigs = np.sort(np.linalg.eigvalsh(a.conj().T @ a))
    np.testing.assert_allclose(eigs, np.arange(cutoff + 1), atol=1e-12)


def test_space_requires_unique_labels():
    with pytest.raises(ValueError):
        orb.CompositeSpace((orb.Qubit("x"), orb.Boson(1, "x")))
    with pytest.raises(ValueError):
        orb.Boson(-1, "bad")


@pytest.mark.parametrize("position", [2, 5, -1])
def test_subsystem_position_out_of_range_rejected(position):
    space = orb.CompositeSpace((orb.Qubit("atom"), orb.Boson(2, "cavity")))
    rho = np.eye(space.dim, dtype=complex) / space.dim
    for call in (lambda: space.index(position),
                 lambda: orb.photon_distribution(rho, space, position),
                 lambda: orb.excitation_operator(space, position)):
        with pytest.raises(DimensionError, match="out of range"):
            call()


def test_basis_ket_indexing():
    space = orb.CompositeSpace((orb.Qubit("atom"), orb.Boson(2, "cavity")))
    ket = orb.basis_ket(space, [1, 2])
    assert ket[1 * 3 + 2] == 1.0
    assert np.count_nonzero(ket) == 1
