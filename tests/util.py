"""Shared helpers for the test suite."""

import numpy as np
import scipy.sparse as sp

import openrabi as orb

#: reference rate set used throughout: kappa = lam = 1e-6, gamma = lam/4
REFERENCE_RATES = dict(kappa=1e-6, lam=1e-6, gamma=2.5e-7)


def steady_means(spec):
    """(cavity <n>, atom <E>, SteadyStateResult) for a model spec."""
    space = orb.build_space(spec)
    result = orb.steady_state(orb.build_liouvillian(spec))
    n = orb.expectation(orb.excitation_operator(space, "cavity"), result.rho).real
    e = orb.expectation(orb.excitation_operator(space, "atom"), result.rho).real
    return n, e, result


def trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def cavity_only_generator(cutoff, kappa, nbar=0.0):
    """Damped single mode: H = n with thermal jump terms."""
    space = orb.CompositeSpace((orb.Boson(cutoff, "cavity"),))
    a = orb.annihilation(cutoff)
    terms = [orb.LindbladTerm(a, kappa * (1 + nbar))]
    if kappa * nbar > 0:
        terms.append(orb.LindbladTerm(a.conj().T, kappa * nbar))
    return orb.assemble(orb.number(cutoff), terms, space), space


def reference_at(gen, coefficients):
    """``gen.at(coefficients).matrix`` summed part by part: each part rebuilt
    from its operator, its nonzero coefficient times its values added at its
    positions in part order, then a fresh CSR matrix whose stored zeros are
    eliminated."""
    from openrabi.liouville import _dissipator_part, _hamiltonian_part

    n = gen.space.dim ** 2
    parts = [(_dissipator_part if d else _hamiltonian_part)(op.toarray())
             for d, op in zip(gen.dissipative, gen.operators, strict=True)]
    keys = []
    for part in parts:
        part.sum_duplicates()
        keys.append(np.repeat(np.arange(n, dtype=np.int64), np.diff(part.indptr)) * n
                    + part.indices)
    pattern = np.unique(np.concatenate(keys))
    rows, cols = np.divmod(pattern, n)
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
    data = np.zeros(pattern.size, dtype=complex)
    for c, part, key in zip(coefficients, parts, keys, strict=True):
        if c:
            data[np.searchsorted(pattern, key)] += c * part.data
    mat = sp.csr_matrix((data, cols.astype(np.int32), indptr), shape=(n, n))
    mat.eliminate_zeros()
    return mat


def assert_same_csr(got, ref):
    """The two CSR matrices hold the same bytes in data, indices and indptr."""
    assert got.shape == ref.shape
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got, attr), getattr(ref, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
