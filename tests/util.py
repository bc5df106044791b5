"""Shared helpers for the test suite."""

import numpy as np
import scipy.sparse as sp

import openrabi as orb
from openrabi.hilbert import SQRT2

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


def reference_terms(spec):
    """The space and every ``(dissipative, coefficient, operator)`` term of a
    model, built as the per-point model table was: the space and subsystems
    of the spec, then each element's excitation, lowering, raising and (atoms)
    sigma_z terms, then one term per coupling, each operator embedded."""
    par, cutoff = spec.params, spec.cutoff
    q = orb.qubit_ops()
    cavity, atom = orb.Boson(cutoff, "cavity"), orb.Qubit("atom")
    elements = [(cavity, 1.0, par.kappa, par.nbar, 0.0),
                (atom, par.omega, par.lam, par.nbar, par.gamma)]
    couplings = [(cavity, atom, par.g)]
    if isinstance(spec.parasitic, orb.ParasiticMode):
        mode, nu = orb.Boson(cutoff, "parasitic_mode"), spec.parasitic.nu
        elements.append((mode, nu, nu * par.kappa, 0.0, 0.0))
        couplings.append((mode, atom, np.sqrt(nu) * par.g))
    elif isinstance(spec.parasitic, orb.ParasiticAtom):
        spectator = orb.Qubit("parasitic_atom")
        elements.append((spectator, spec.parasitic.omega, par.lam, 0.0, par.gamma))
        couplings.append((cavity, spectator, par.g))
    space = orb.CompositeSpace(tuple(sorted((e[0] for e in elements),
                                            key=lambda s: isinstance(s, orb.Boson))))

    def local(op, sub):
        return orb.embed(op, space, space.index(sub.label))

    terms = []
    for sub, frequency, decay, nbar, dephasing in elements:
        boson = isinstance(sub, orb.Boson)
        lowering = orb.annihilation(sub.cutoff) if boson else q.sm
        terms += [(False, frequency, local(orb.number(sub.cutoff) if boson else q.excited, sub)),
                  (True, decay * (nbar + 1), local(lowering, sub)),
                  (True, decay * nbar, local(lowering.conj().T, sub))]
        if not boson:
            terms.append((True, dephasing / 2, local(q.sz, sub)))
    for boson, qubit, g in couplings:
        if spec.coupling is orb.Coupling.FULL:
            op = local(orb.quadratures(cutoff)[1], boson) @ local(q.sy, qubit)
            terms.append((False, g, op))
        else:
            a = local(orb.annihilation(cutoff), boson)
            op = a.conj().T @ local(q.sm, qubit) + a @ local(q.sp, qubit)
            terms.append((False, -(g / SQRT2), op))
    return space, terms
