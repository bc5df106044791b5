import csv
import dataclasses
import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import openrabi as orb
from openrabi import steady
from openrabi.cli import main
from openrabi.hilbert import herm_defect, validate_density_matrix
from openrabi.steady import NonUniqueSteadyStateError
from util import REFERENCE_RATES, cavity_only_generator, steady_means, trace_distance


def test_dark_vacuum_cavity():
    gen, space = cavity_only_generator(cutoff=3, kappa=1e-6)
    result = orb.steady_state(gen)
    n = orb.expectation(orb.number(3), result.rho).real
    assert abs(n) < 1e-12
    assert result.residual <= 1e-10


def test_thermal_cavity_cutoff_30():
    gen, _ = cavity_only_generator(cutoff=30, kappa=1e-3, nbar=0.5)
    result = orb.steady_state(gen)
    n = orb.expectation(orb.number(30), result.rho).real
    assert n == pytest.approx(0.5, abs=1e-6)
    # geometric occupation: P_0 = 1/(1 + nbar)
    assert result.rho[0, 0].real == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_cutoff_one_matches_closed_form():
    # agreement is exact at cutoff 1, far inside the 2% contract
    params = orb.RabiParams(omega=1.0, g=0.05, **REFERENCE_RATES)
    n, e, _ = steady_means(orb.ModelSpec(params=params, cutoff=1))
    ref = orb.one_photon_excitations(params)
    assert n == pytest.approx(ref.n_mean, rel=1e-6)
    assert e == pytest.approx(ref.e_mean, rel=1e-6)


def _decoupled_atom():
    # decoupled atom with no atomic dissipation: any atom population mix is stationary
    return orb.build_liouvillian(orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.0, kappa=0.5, lam=0.0, gamma=0.0), cutoff=1))


def _undamped_spectator(cutoff):
    # damped mode with an undamped spectator mode: every spectator population
    # is stationary; dim 9 to 49
    space = orb.CompositeSpace((orb.Boson(cutoff, "a"), orb.Boson(cutoff, "b")))
    h = orb.embed(orb.number(cutoff), space, 0) + orb.embed(orb.number(cutoff), space, 1)
    terms = [orb.LindbladTerm(orb.embed(orb.annihilation(cutoff), space, 0), 0.4)]
    return orb.assemble(h, terms, space)


def _one_qubit():
    # -i[|e><e|, .] leaves both populations stationary
    return orb.hamiltonian_superop(orb.qubit_ops().excited,
                                   orb.CompositeSpace((orb.Qubit("atom"),)))


def _odd_sector(drive):
    # qubit (x) cavity with jumps sigma_x and a has a second, traceless
    # stationary state, so the trace-replaced system is singular
    space = orb.CompositeSpace((orb.Qubit("atom"), orb.Boson(3, "cavity")))
    ops = orb.qubit_ops()
    sx = orb.embed(ops.sp + ops.sm, space, 0)
    h = orb.embed(orb.number(3), space, 1) + drive * sx
    terms = [orb.LindbladTerm(sx, 0.37),
             orb.LindbladTerm(orb.embed(orb.annihilation(3), space, 1), 0.41)]
    return orb.assemble(h, terms, space)


def test_nonunique_steady_state_detected():
    with pytest.raises(NonUniqueSteadyStateError):
        orb.steady_state(_decoupled_atom())


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5, 6])
def test_nonunique_detected_on_large_sparse_space(cutoff):
    with pytest.raises(NonUniqueSteadyStateError):
        orb.steady_state(_undamped_spectator(cutoff))


def test_nonunique_detected_on_one_qubit():
    # the smallest non-unique system, D^2 = 4
    with pytest.raises(NonUniqueSteadyStateError):
        orb.steady_state(_one_qubit())


@pytest.mark.parametrize("drive", [0.0, 0.7])
def test_nonunique_detected_in_odd_sector(drive):
    # with the drive, an LU that pivots on the diagonal only misses the
    # singularity and returns a state, where partial pivoting meets an
    # exactly zero pivot
    with pytest.raises(NonUniqueSteadyStateError):
        orb.steady_state(_odd_sector(drive))


@pytest.mark.parametrize("cutoff", range(1, 8))
def test_nonunique_detected_with_stationary_atom_populations(cutoff):
    # scenario a with the atom decoupled and undamped: both atom populations
    # are stationary.  At cutoffs 5 and 6 the band meets no exactly zero
    # pivot, and the certificate alone finds the singular system; either
    # failure names its block, the trace row's (block 0), whose populations
    # are stationary, though every other block is solved and judged first
    gen = orb.build_liouvillian(orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.0, kappa=1e-6, lam=0.0, gamma=0.0),
        cutoff=cutoff, parasitic=orb.scenario_parasitic("a")))
    with pytest.raises(NonUniqueSteadyStateError,
                       match=r"zero pivot in block 0 of \d+|certificate failed in block 0 "
                             r"of \d+: relative residual \S+ after refinement"):
        orb.steady_state(gen)


@pytest.mark.parametrize("scenario", ["bare", "a", "c"])
@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_closed_system_is_nonunique(scenario, cutoff):
    # no dissipation: every eigenprojector of H is stationary.  Where the band
    # meets no exactly zero pivot, its solution is no state, which is the
    # certificate's failure and not a failure to converge; either names the
    # trace row's block, which holds the populations
    gen = orb.build_liouvillian(orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.05), cutoff=cutoff,
        parasitic=orb.scenario_parasitic(scenario)))
    with pytest.raises(NonUniqueSteadyStateError, match="in block 0 of 3"):
        orb.steady_state(gen)


def _one_state():
    # a 1x1 generator that is not trace preserving
    return orb.SuperOperator(orb.CompositeSpace((orb.Boson(0, "mode"),)),
                             sp.csr_matrix(np.array([[-1.0 + 0j]])))


def test_one_state_failure_is_no_convergence():
    # its trace-replaced system [[1]] passes the certificate, so the failed
    # residual is NoConvergenceError
    with pytest.raises(orb.NoConvergenceError):
        orb.steady_state(_one_state())


def test_one_state_generator_without_entries_keeps_its_state():
    # L = 0 on one state: T is the trace row alone, whose value the block
    # gathers though the generator stores none
    space = orb.CompositeSpace((orb.Boson(0, "mode"),))
    result = orb.steady_state(orb.SuperOperator(space, sp.csr_matrix((1, 1), dtype=complex)))
    np.testing.assert_array_equal(result.rho, [[1.0]])


@pytest.mark.parametrize("scenario", ["bare", "a", "c"])
def test_steady_state_hygiene(scenario):
    spec = orb.ModelSpec(
        params=orb.RabiParams(omega=0.9, g=0.05, **REFERENCE_RATES),
        cutoff=2,
        parasitic=orb.scenario_parasitic(scenario),
    )
    result = orb.steady_state(orb.build_liouvillian(spec))
    assert result.residual <= 1e-10
    assert abs(np.trace(result.rho) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(result.rho).min() >= -1e-10
    assert np.abs(result.rho - result.rho.conj().T).max() <= 1e-10


@pytest.mark.parametrize("scenario, coupling, cutoff, nbar", [
    ("bare", orb.Coupling.FULL, 1, 0.0), ("a", orb.Coupling.FULL, 2, 0.3),
    ("c", orb.Coupling.RWA, 2, 0.0), ("d", orb.Coupling.FULL, 3, 0.3),
    ("a", orb.Coupling.FULL, 4, 0.0)])   # the last on GMRES
def test_validity_margins_are_those_of_the_public_check(scenario, coupling, cutoff, nbar,
                                                        monkeypatch):
    # steady_state hands the checks the hermitian part it formed; the margins
    # it reports are bit for bit those that validate_density_matrix, and the
    # formulas it always used, give its unsymmetrized solution
    solutions = []
    checks = steady._density_margins
    monkeypatch.setattr(steady, "_density_margins", lambda raws, hermitians: solutions.extend(
        raws.copy()) or checks(raws, hermitians))
    spec = orb.ModelSpec(orb.RabiParams(0.9, 0.05, nbar=nbar, **REFERENCE_RATES), cutoff,
                         coupling, orb.scenario_parasitic(scenario))
    result = orb.steady_state(orb.build_liouvillian(spec))
    assert result.diagnostics["method"] == ("gmres" if cutoff == 4 else "banded-lu")
    (raw,) = solutions
    formulas = {"trace_deviation": float(abs(np.trace(raw) - 1.0)),
                "herm_defect": herm_defect(raw),
                "min_eigenvalue": float(np.linalg.eigvalsh(0.5 * (raw + raw.conj().T)).min())}
    public = validate_density_matrix(raw)
    for name, value in formulas.items():
        assert result.diagnostics[name].hex() == public[name].hex() == value.hex(), name


def _scenario_a(cutoff, omega=1.0):
    return orb.build_liouvillian(orb.ModelSpec(
        params=orb.RabiParams(omega=omega, g=0.05, **REFERENCE_RATES), cutoff=cutoff,
        parasitic=orb.scenario_parasitic("a")))


@pytest.mark.parametrize("cutoff", [3, 4, 5])
def test_band_blocks_and_refinement_at_scenario_a(cutoff, monkeypatch):
    # the pattern splits into the two superparity sectors, of D^2 / 2 unknowns
    # each; the kept factor is the trace row's band, and partial pivoting
    # keeps refinement at the rounding floor within its round cap.  Cutoffs
    # 4 and 5 would take GMRES, so the band is forced
    monkeypatch.setattr(steady, "_KRYLOV_MIN_WORK", math.inf)
    gen = _scenario_a(cutoff)
    diagnostics = orb.steady_state(gen).diagnostics
    structure = _structure(gen)
    assert diagnostics["blocks"] == 2
    assert [block.unknowns.size for block in structure.blocks] == [gen.dim ** 2 // 2] * 2
    kl, ku = diagnostics["bandwidth"]
    trace = structure.blocks[structure.trace_block]
    assert (kl, ku) == (trace.kl, trace.ku)
    assert diagnostics["lu_nnz"] == gen.dim ** 2 // 2 * (2 * kl + ku + 1)
    assert diagnostics["last_correction"] <= np.finfo(float).eps
    assert diagnostics["refine_rounds"] <= 3


def _arrays(value):
    """Every array that ``value`` holds: itself, or those of its items or fields."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    return [a for item in value for a in _arrays(item)] if isinstance(value, (list, tuple)) else []


def test_lu_order_is_cached_per_sparsity_pattern():
    # two points of one structure share a pattern, so the second solve reuses
    # the first one's layout, blocks and band order; a hand-built generator of
    # that pattern gets them too
    gens = [_scenario_a(3, omega) for omega in (0.9, 1.1)]
    steady._structure.cache_clear()
    results = [orb.steady_state(gen) for gen in gens]
    info = steady._structure.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    n = gens[0].dim ** 2
    structure = _structure(gens[0])
    assert steady._structure.cache_info().hits == 2
    assert np.array_equal(np.sort(np.concatenate([b.unknowns for b in structure.blocks])),
                          np.arange(n))
    arrays = _arrays(structure)
    # the block labels of the unknowns and of the generator's entries, the
    # certificate's rhs, its norm per block and its trace row's block's pair,
    # the classes, and per block its five CSR arrays, its band order and its
    # band slots
    assert len(arrays) == 5 + len(structure.classes) + 7 * len(structure.blocks)
    assert not any(a.flags.writeable for a in arrays)
    bare = orb.SuperOperator(gens[0].space, gens[0].matrix.copy())
    np.testing.assert_allclose(orb.steady_state(bare).rho, results[0].rho, rtol=0, atol=1e-15)


def _structure(gen):
    """The structure of ``gen``'s trace-replaced system, cached on the
    generator's pattern."""
    return steady._structure(gen.dim, *(a.astype(np.int32).tobytes()
                                        for a in (gen.matrix.indptr, gen.matrix.indices)))


def _system(gen):
    """``gen``'s trace-replaced system T as a CSR matrix: L with row 0
    replaced by the vectorized trace row."""
    d = gen.dim
    system = gen.matrix.tolil(copy=True)
    system[0, :] = 0
    system[0, np.arange(d) * (d + 1)] = 1
    return system.tocsr()


@pytest.fixture
def krylov(monkeypatch):
    """Every solve starts on the GMRES path; returns the outcomes of the
    unrefined certificates, of either solver, as (block, True where it
    passed), in the order the blocks are judged; the block is its index in
    the structure, which both solvers share."""
    monkeypatch.setattr(steady, "_KRYLOV_MIN_WORK", 0.0)
    outcomes = []
    judge = steady._Solve.judge

    def spy(self, x, margins):
        outcomes.extend((b, bool(margins[b] <= steady._CERTIFICATE_TOL)) for b in self.solved)
        return judge(self, x, margins)

    monkeypatch.setattr(steady._Solve, "judge", spy)
    return outcomes


@pytest.fixture
def factored(monkeypatch):
    """The blocks the band factors, in order."""
    blocks = []
    factor = steady._factor

    def spy(structure, b, data):
        blocks.append(b)
        return factor(structure, b, data)

    monkeypatch.setattr(steady, "_factor", spy)
    return blocks


@pytest.mark.parametrize("build", [
    _decoupled_atom,
    *[lambda c=c: _undamped_spectator(c) for c in (2, 3, 4, 5, 6)],
    _one_qubit,
    *[lambda d=d: _odd_sector(d) for d in (0.0, 0.7)],
], ids=["decoupled-atom", *[f"spectator-{c}" for c in (2, 3, 4, 5, 6)], "one-qubit",
        "odd-sector-0.0", "odd-sector-0.7"])
def test_nonunique_fails_the_certificate_and_falls_back_to_the_band(build, krylov, factored,
                                                                   monkeypatch):
    # GMRES solves every block, the trace row's last, and one product judges
    # them; the blocks that fail go to the band in that order, and the first
    # of them meets an exactly zero pivot or fails the certificate refined:
    # the band factors no block after it, and the error names it.  Forced
    # from the start, the band names the same block
    gen = build()
    structure = _structure(gen)
    k = len(structure.blocks)
    with pytest.raises(NonUniqueSteadyStateError, match="zero pivot|after refinement") as error:
        orb.steady_state(gen)
    assert [c for c, _ in krylov[:k]] == sorted(range(k), key=lambda c: c == structure.trace_block)
    failed = [c for c, ok in krylov[:k] if not ok]
    assert failed and factored == failed[:1]
    assert krylov[k:] in ([], [(failed[0], False)])
    assert f"block {failed[0]} of {k}" in str(error.value)
    monkeypatch.setattr(steady, "_KRYLOV_MIN_WORK", math.inf)
    with pytest.raises(NonUniqueSteadyStateError, match=f"block {failed[0]} of {k}"):
        orb.steady_state(gen)


@pytest.mark.parametrize("scenario", ["bare", "a", "b", "c", "d"])
@pytest.mark.parametrize("coupling", [orb.Coupling.FULL, orb.Coupling.RWA])
@pytest.mark.parametrize("nbar", [0.0, 0.3])
def test_gmres_agrees_with_the_band(scenario, coupling, nbar, krylov, factored, monkeypatch):
    # RWA at nbar 0 has a dark state, which the preconditioner's floor covers.
    # GMRES certifies every block once, the trace row's last, and the band
    # factors none
    gen = orb.build_liouvillian(orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.05, nbar=nbar, **REFERENCE_RATES), cutoff=3,
        coupling=coupling, parasitic=orb.scenario_parasitic(scenario)))
    result = orb.steady_state(gen)
    structure = _structure(gen)
    assert sorted(krylov) == [(b, True) for b in range(len(structure.blocks))]
    assert krylov[-1][0] == structure.trace_block and factored == []
    diagnostics = result.diagnostics
    assert diagnostics["method"] == "gmres"
    assert diagnostics["krylov_iterations"] > 0
    assert diagnostics["certificate"] <= steady._CERTIFICATE_TOL
    assert diagnostics["blocks"] == len(structure.blocks)
    assert not {"bandwidth", "lu_nnz"} & diagnostics.keys()
    assert diagnostics["last_correction"] <= np.finfo(float).eps
    monkeypatch.setattr(steady, "_KRYLOV_MIN_WORK", math.inf)
    band = orb.steady_state(gen)
    assert band.diagnostics["method"] == "banded-lu"
    assert band.diagnostics["certificate"] <= steady._CERTIFICATE_TOL
    assert band.diagnostics["krylov_iterations"] == 0
    np.testing.assert_allclose(result.rho, band.rho, rtol=0, atol=1e-15)


@pytest.mark.parametrize("rate", [1e-9, 1e-10, 1e-12])
@pytest.mark.parametrize("cutoff", [2, 3])
def test_ill_conditioned_unique_state_is_returned(rate, cutoff, krylov, factored, monkeypatch):
    # at rates of 1e-9 and below the certificate's error bound fails on the
    # trace row's block on both solvers, but the band's solution, refined in
    # extended precision, meets its residual: the state is unique, and the
    # same on either path.  The other block passes either solver's
    # certificate unrefined, and GMRES keeps it: the band factors only the
    # block GMRES failed, and forced, each block once; the trace row's
    # block's factor is freed once it has refined e_0, so the failed
    # certificate factors that block again to refine its own solution
    gen = orb.build_liouvillian(orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.05, kappa=rate, lam=rate, gamma=rate / 4),
        cutoff=cutoff, parasitic=orb.scenario_parasitic("a")))
    trace = _structure(gen).trace_block
    other = 1 - trace
    result = orb.steady_state(gen)
    assert krylov == [(other, True), (trace, False), (trace, False)]
    assert factored == [trace, trace]
    assert result.diagnostics["method"] == "banded-lu"
    assert result.diagnostics["certificate"] <= steady._CERTIFICATE_TOL
    monkeypatch.setattr(steady, "_KRYLOV_MIN_WORK", math.inf)
    band = orb.steady_state(gen)
    assert krylov[3:] == [(other, True), (trace, False)]
    assert factored == [trace, trace, other, trace, trace]
    assert band.diagnostics["certificate"] <= steady._CERTIFICATE_TOL
    np.testing.assert_array_equal(band.rho, result.rho)


def test_a_freed_factor_is_factored_again_to_refine_its_block(factored, monkeypatch):
    # the band frees every factor but the trace row's block's once it has
    # solved the certificate's rhs; a block that then fails the certificate,
    # forced here, is factored again and refined, which it passes, and the
    # state stays as it was
    monkeypatch.setattr(steady, "_KRYLOV_MIN_WORK", math.inf)
    gen = _scenario_a(2)
    expected = orb.steady_state(gen).rho
    trace = _structure(gen).trace_block
    certify = steady._certify
    monkeypatch.setattr(steady, "_certify", lambda structure, stacked, x: certify(
        structure, stacked, x) + (np.arange(len(structure.blocks)) != structure.trace_block))
    factored.clear()
    result = orb.steady_state(gen)
    assert factored == [1 - trace, trace, 1 - trace]
    assert result.diagnostics["certificate"] <= steady._CERTIFICATE_TOL
    np.testing.assert_array_equal(result.rho, expected)


def test_ill_conditioned_convergence_scan_at_large_cutoffs(tmp_path, monkeypatch):
    # at kappa = 1e-7 GMRES's certificate margin is ~5e-7, against ~1e-7 at
    # the reference rates; every point is solved and certified all the same
    margins = []
    solve = steady.steady_states

    def spy(gens):
        results = solve(gens)
        margins.extend(result.diagnostics["certificate"] for result in results)
        return results

    monkeypatch.setattr("openrabi.cli.steady_states", spy)
    rows = _convergence_table(tmp_path, "--scenario", "a", "--cutoff", "6,7,8",
                              "--kappa", "1e-7")
    assert [r["error"] for r in rows] == ["", "", ""]
    assert len(margins) == 3 and max(margins) <= steady._CERTIFICATE_TOL


def _stall_the_solves(monkeypatch):
    # GMRES runs only for the certificate, whose tolerance is the looser
    gmres = steady._gmres
    monkeypatch.setattr(steady, "_gmres", lambda system, precondition, b, tol: (
        gmres(system, precondition, b, tol) if tol > steady._KRYLOV_TOL else (None, 1)))


@pytest.mark.parametrize("break_it", [
    _stall_the_solves,
    # the certificate stalls
    lambda mp: mp.setattr(steady, "_KRYLOV_MAX", 1),
    # eig raises
    lambda mp: mp.setattr(steady, "_drift", lambda terms: (
        np.full(terms.operators[0].shape, np.nan), sp.csr_matrix(terms.operators[0].shape))),
], ids=["solve-stalls", "certificate-stalls", "eig-raises"])
def test_gmres_failures_fall_back_to_the_band(break_it, krylov, monkeypatch):
    gen = _scenario_a(3)
    break_it(monkeypatch)
    diagnostics = orb.steady_state(gen).diagnostics
    assert diagnostics["method"] == "banded-lu" and diagnostics["blocks"] == 2


@pytest.mark.parametrize("spec", [
    orb.ModelSpec(params=orb.RabiParams(omega=0.9, g=0.05, nbar=0.3, **REFERENCE_RATES),
                  cutoff=2, parasitic=orb.scenario_parasitic("a")),
    orb.ModelSpec(params=orb.RabiParams(omega=1.3, g=0.05, **REFERENCE_RATES), cutoff=3,
                  coupling=orb.Coupling.RWA, parasitic=orb.scenario_parasitic("c")),
], ids=["a-full-heat", "c-rwa"])
def test_sylvester_part_read_off_the_generator_is_minus_i_h_eff(spec):
    # A of A X + X A^+, taken from the terms the generator carries, equals
    # -i H_eff, and the stacked jump operators give the jump part of L
    space = orb.build_space(spec)
    h_eff = orb.unravel(orb.build_hamiltonian(spec), orb.build_dissipators(spec), space).h_eff
    gen = orb.build_liouvillian(spec)
    a, jumps = steady._drift(gen.terms)
    np.testing.assert_allclose(a, -1j * h_eff, rtol=0, atol=2e-15)
    d = space.dim
    stacked = jumps.toarray().reshape(-1, d, d)
    rebuilt = (np.kron(np.eye(d), a) + np.kron(a.conj(), np.eye(d))
               + sum(np.kron(g.conj(), g) for g in stacked))
    np.testing.assert_allclose(rebuilt, gen.matrix.toarray(), rtol=0, atol=4e-15)


def _one_block():
    # the Rabi coupling and a cavity drive leave no symmetry: one block, one class
    space = orb.CompositeSpace((orb.Qubit("atom"), orb.Boson(3, "cavity")))
    ops = orb.qubit_ops()
    x = orb.embed(orb.annihilation(3) + orb.annihilation(3).conj().T, space, 1)
    h = (orb.embed(orb.number(3), space, 1) + 0.5 * orb.embed(ops.excited, space, 0)
         + 0.3 * orb.embed(ops.sp + ops.sm, space, 0) @ x + 0.2 * x)
    terms = [orb.LindbladTerm(orb.embed(ops.sm, space, 0), 0.37),
             orb.LindbladTerm(orb.embed(orb.annihilation(3), space, 1), 0.41)]
    return orb.assemble(h, terms, space)


def _rwa(scenario, nbar=0.0, cutoff=3):
    return orb.build_liouvillian(orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.05, nbar=nbar, **REFERENCE_RATES), cutoff=cutoff,
        coupling=orb.Coupling.RWA, parasitic=orb.scenario_parasitic(scenario)))


def _split_pair_qutrit():
    # a qutrit whose jump |0><0| + |1><2| joins rho[1, 0] and rho[2, 0] but
    # leaves rho[2, 1] alone: a block splits the class pair X_10
    space = orb.CompositeSpace((orb.Boson(2, "qutrit"),))
    ket = np.eye(3, dtype=complex)
    terms = [orb.LindbladTerm(np.outer(ket[0], ket[0]) + np.outer(ket[1], ket[2]), 0.3),
             orb.LindbladTerm(np.outer(ket[0], ket[1]), 0.5)]
    return orb.assemble(np.diag([0.0, 1.0, 2.3]).astype(complex), terms, space)


def test_sectors_lay_out_each_block_by_class_pairs():
    # scenario a: two classes of D/2 states (the superparity of the state),
    # and two blocks of D^2/2 unknowns, each the chunks vec(X_pq) of two pairs
    gen = _scenario_a(3)
    d = gen.dim
    structure = _structure(gen)
    assert [c.size for c in structure.classes] == [d // 2, d // 2]
    assert structure.pairs == (((0, 0), (1, 1)), ((0, 1), (1, 0)))
    for block, pairs in zip(structure.blocks, structure.pairs):
        start = 0
        for p, q in pairs:
            rows, cols = structure.classes[p], structure.classes[q]
            stop = start + rows.size * cols.size
            np.testing.assert_array_equal(block.unknowns[start:stop],
                                          (rows[:, None] + d * cols).ravel(order="F"))
            start = stop
        assert stop == block.unknowns.size


_BUILDS = pytest.mark.parametrize("build", [
    lambda: _scenario_a(2), lambda: _rwa("c", nbar=0.3, cutoff=2), _one_block, _split_pair_qutrit,
    _one_state,
], ids=["scenario-a", "rwa-c", "one-block", "split-pair", "one-state"])


@pytest.mark.parametrize("layout", ["band", "sectors"])
@_BUILDS
def test_each_layout_cuts_t_into_its_blocks(layout, build):
    # GMRES reads block b in its class-pair order, block.unknowns, and the
    # band in block.unknowns[block.order]: in either layout the blocks' unknowns
    # partition T's, the trace row's block holds row 0, no entry of a block's
    # rows leaves it, and its matrix, so permuted, is T's submatrix on those
    # unknowns, in either dtype; where a block splits a class pair the
    # class-pair order is ascending
    gen = build()
    n = gen.dim ** 2
    structure = _structure(gen)
    system = _system(gen)
    assert 0 in structure.blocks[structure.trace_block].unknowns
    assert np.array_equal(np.sort(np.concatenate([b.unknowns for b in structure.blocks])),
                          np.arange(n))
    for block in structure.blocks:
        order = block.order if layout == "band" else np.arange(block.unknowns.size)
        np.testing.assert_array_equal(np.sort(order), np.arange(order.size))
        unknowns = block.unknowns[order]
        if layout == "sectors" and structure.classes is None:
            assert np.all(np.diff(unknowns) > 0)
        part = system[unknowns]
        sub = part[:, unknowns]
        assert sub.nnz == part.nnz   # no entry of the block's rows leaves it
        for dtype in (complex, np.clongdouble):
            matrix = block.matrix(gen.matrix.data, dtype)
            assert matrix.dtype == dtype
            np.testing.assert_array_equal(matrix.toarray()[np.ix_(order, order)],
                                          sub.toarray().astype(dtype))


@_BUILDS
def test_structure_cuts_t_into_blocks_and_bands(build):
    # the band reads each block in the order block.order, which follows T's
    # reverse Cuthill-McKee order, and the band filled through block.slots is
    # T_b so permuted, every entry inside its block.kl and block.ku diagonals
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    gen = build()
    structure = _structure(gen)
    system = _system(gen)
    pattern = sp.csr_matrix((np.ones(system.nnz), system.indices, system.indptr),
                            shape=system.shape)
    rcm = reverse_cuthill_mckee((pattern + pattern.T).tocsr(), symmetric_mode=True)
    for block in structure.blocks:
        order, kl, ku = block.order, block.kl, block.ku
        np.testing.assert_array_equal(block.unknowns[order], rcm[np.isin(rcm, block.unknowns)])
        ab = np.zeros((2 * kl + ku + 1) * order.size, dtype=complex)
        ab[block.slots] = block.values(gen.matrix.data)
        ab = ab.reshape((2 * kl + ku + 1, -1), order="F")
        r, j = np.indices(ab.shape)
        i = r - kl - ku + j   # band row r of column j holds entry (i, j) in band order
        inside = (r >= kl) & (i >= 0) & (i < order.size)
        assert not ab[~inside].any()
        band = np.zeros((order.size,) * 2, dtype=complex)
        band[i[inside], j[inside]] = ab[inside]
        sub = system[block.unknowns][:, block.unknowns].toarray()
        np.testing.assert_array_equal(band, sub[np.ix_(order, order)])


@pytest.mark.parametrize("scenario, cutoff", [("bare", 2), ("a", 2), ("c", 2), ("a", 3)])
def test_two_column_solve_equals_two_one_column_solves(scenario, cutoff):
    # the band solves the trace row's block's certificate rhs and e_0 in one
    # two-column zgbtrs, from which refinement starts: each column equals the
    # one-column solve, bit for bit, so no byte of the state moves
    gen = orb.build_liouvillian(orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.05, **REFERENCE_RATES), cutoff=cutoff,
        parasitic=orb.scenario_parasitic(scenario)))
    structure = _structure(gen)
    solve = steady._factor(structure, structure.trace_block, gen.matrix.data)
    pair = structure.trace_rhs
    both = solve(pair.T).T
    for column, rhs in zip(both, pair):
        np.testing.assert_array_equal(column.view(np.uint64), solve(rhs).view(np.uint64))


@pytest.mark.parametrize("build", [
    lambda: _scenario_a(2), lambda: _rwa("c"), lambda: _rwa("a", nbar=0.3, cutoff=6),
    _split_pair_qutrit,
    _one_state,
], ids=["scenario-a", "rwa-c", "rwa-a-gmres", "split-pair", "one-state"])
@pytest.mark.parametrize("solution", ["solved", "random"])
def test_one_product_certificate_equals_the_per_block_margins(build, solution):
    # one product L x, row 0 replaced by tr x, and norms summed by block
    # label give each block the margin of its own T_b: max(||r_b - T_b x_b||,
    # eps ||T_b||_F ||x_b||) / ||r_b||, here from dense T_b with the residual
    # in extended precision.  Solved blocks leave the error bound the larger
    # term, random ones the residual
    gen = build()
    structure = _structure(gen)
    system = _system(gen)
    rng = np.random.default_rng(3)
    x = np.zeros(gen.dim ** 2, dtype=complex)
    dense = []
    for block in structure.blocks:
        dense.append(system[block.unknowns][:, block.unknowns].toarray())
        x[block.unknowns] = (np.linalg.solve(dense[-1], structure.rhs[block.unknowns])
                             if solution == "solved" else
                             [1, 1j] @ rng.standard_normal((2, block.unknowns.size)))
    (margins,) = steady._certify(structure, steady._stacked([gen.matrix]), x[None])
    for b, (block, t_b) in enumerate(zip(structure.blocks, dense)):
        r_b, x_b = structure.rhs[block.unknowns], x[block.unknowns]
        residual = (r_b.astype(np.clongdouble)
                    - t_b.astype(np.clongdouble) @ x_b.astype(np.clongdouble)).astype(complex)
        error = np.finfo(float).eps * np.linalg.norm(t_b) * np.linalg.norm(x_b)
        ref = max(np.linalg.norm(residual), error) / np.linalg.norm(r_b)
        assert margins[b] == pytest.approx(ref, rel=1e-12, abs=0)
    # stacked with another generator of the pattern and another solution,
    # each keeps the margins it has alone, bit for bit
    other = gen.matrix.copy()
    other.data = other.data * (1 + 1e-3j)
    y = [1, 1j] @ rng.standard_normal((2, x.size))
    stacked = steady._certify(structure, steady._stacked([gen.matrix, other]), np.stack([x, y]))
    np.testing.assert_array_equal(stacked[0].view(np.uint64), margins.view(np.uint64))
    np.testing.assert_array_equal(stacked[1].view(np.uint64),
                                  steady._certify(structure, steady._stacked([other]),
                                                  y[None])[0].view(np.uint64))


def test_a_block_that_splits_a_class_pair_goes_to_the_band(krylov, factored, monkeypatch):
    # the pattern has no classes, so the band solves every block even where
    # GMRES is picked, as it does forced
    gen = _split_pair_qutrit()
    assert _structure(gen).classes is None and _structure(gen).pairs is None
    result = orb.steady_state(gen)
    assert result.diagnostics["method"] == "banded-lu"
    assert result.diagnostics["krylov_iterations"] == 0
    assert sorted(factored) == list(range(len(_structure(gen).blocks)))
    assert all(passed for _, passed in krylov)
    monkeypatch.setattr(steady, "_KRYLOV_MIN_WORK", math.inf)
    np.testing.assert_array_equal(result.rho, orb.steady_state(gen).rho)


@pytest.mark.parametrize("scenario", ["a", "c"])
@pytest.mark.parametrize("coupling", [orb.Coupling.FULL, orb.Coupling.RWA])
def test_sylvester_part_has_no_entry_between_classes(scenario, coupling):
    # so that the per-class preconditioner drops nothing on these models
    gen = orb.build_liouvillian(orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.05, nbar=0.3, **REFERENCE_RATES), cutoff=3,
        coupling=coupling, parasitic=orb.scenario_parasitic(scenario)))
    structure = _structure(gen)
    label = np.empty(gen.dim, dtype=int)
    for p, states in enumerate(structure.classes):
        label[states] = p
    assert label.max() >= (1 if coupling is orb.Coupling.FULL else 3)
    a = steady._drift(gen.terms)[0]
    assert not np.any(a[label[:, None] != label[None, :]])


def _eigenbasis(gen, classes):
    """A, the stacked jumps and the preconditioner's coordinates, one
    Hermitian eigendecomposition per class of ``classes`` of ``H = (i/2) (A -
    A^+)``: ``lambda_i = -i E_i - (1/2) (U^+ Gamma U)_ii`` with ``Gamma = -(A +
    A^+)``, and the unitary U of H's eigenvectors, indexed by state and
    block-diagonal."""
    a, jumps = steady._drift(gen.terms)
    d = gen.dim
    h, gamma = 0.5j * (a - a.conj().T), -(a + a.conj().T)
    lam, u = np.empty(d, dtype=complex), np.zeros((d, d), complex)
    for states in classes:
        block = np.ix_(states, states)
        energies, u[block] = np.linalg.eigh(h[block])
        widths = np.einsum("ij,ik,kj->j", u[block].conj(), gamma[block], u[block]).real
        lam[states] = -1j * energies - 0.5 * widths
    return a, jumps, lam, u


def _secular(a, jumps, lam, u, classes):
    """The population block of T in the coordinates ``u``, by ``_populations``."""
    return steady._populations(lam, u, a, jumps @ u, classes)


@pytest.mark.parametrize("build, classes", [
    (lambda: _scenario_a(3), 2), (lambda: _rwa("c", nbar=0.3), 6), (_one_block, 1),
], ids=["scenario-a", "rwa-c", "one-block"])
def test_per_class_preconditioner_equals_the_whole_one(build, classes):
    # on each block the preconditioner by one eigendecomposition of H per
    # class equals the one by one eigendecomposition of the whole H,
    # restricted to that block, to 1e-13 times the condition of S, max
    # |lambda| / min |lambda_i + conj(lambda_j)|: at rates ~1e-6 against
    # frequencies ~1 both carry the eigenvalues' rounding that far.  And it
    # inverts, to rounding, the secular part S(Y) = U Lambda U^+ Y + Y U
    # Lambda^+ U^+ off the populations of H's eigenbasis, and the secular
    # matrix on them: in U-coordinates X - S(Y) is diagonal, and is the jump
    # and trace part of that matrix times Y's populations
    gen = build()
    d = gen.dim
    structure = _structure(gen)
    assert len(structure.classes) == classes
    a, jumps, lam, u = _eigenbasis(gen, structure.classes)
    condition = np.abs(lam).max() / np.abs(lam[:, None] + lam.conj()).min()
    per_class = steady._sylvester_inverse(a, jumps, structure.classes, structure.pairs)
    (whole,) = steady._sylvester_inverse(a, jumps, (np.arange(d),), [((0, 0),)])
    secular = _secular(a, jumps, lam, u, structure.classes) - np.diag(2 * lam.real)
    drift = u @ np.diag(lam) @ u.conj().T   # U Lambda U^+
    rng = np.random.default_rng(5)
    for block, apply in zip(structure.blocks, per_class):
        x = np.zeros(d * d, dtype=complex)
        x[block.unknowns] = [1, 1j] @ rng.standard_normal((2, block.unknowns.size))
        y = np.zeros(d * d, dtype=complex)
        y[block.unknowns] = apply(x[block.unknowns])
        ref = whole(x)
        assert np.linalg.norm(y - ref) <= 1e-13 * condition * np.linalg.norm(ref)
        big_y, big_x = y.reshape(d, d, order="F"), x.reshape(d, d, order="F")
        left = u.conj().T @ (big_x - drift @ big_y - big_y @ drift.conj().T) @ u
        right = np.diag(secular @ np.diag(u.conj().T @ big_y @ u))
        scale = (np.linalg.norm(drift) + np.linalg.norm(secular)) * np.linalg.norm(big_y)
        assert np.linalg.norm(left - right) <= 1e-14 * scale


@pytest.mark.parametrize("scenario", ["a", "c"])
@pytest.mark.parametrize("coupling", [orb.Coupling.FULL, orb.Coupling.RWA])
@pytest.mark.parametrize("nbar", [0.0, 0.3])
def test_secular_matrix_is_the_population_block_of_t(scenario, coupling, nbar):
    # entry (i, j) is entry (i, i) of U^+ T(u_j u_j^+) U, with T applied as
    # the trace-replaced CSR system, to 1e-13 of the largest entry
    gen = orb.build_liouvillian(orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.05, nbar=nbar, **REFERENCE_RATES), cutoff=3,
        coupling=coupling, parasitic=orb.scenario_parasitic(scenario)))
    d = gen.dim
    structure = _structure(gen)
    a, jumps, lam, u = _eigenbasis(gen, structure.classes)
    populations = _secular(a, jumps, lam, u, structure.classes)
    system = _system(gen)
    brute = np.column_stack([
        np.diag(u.conj().T @ orb.devectorize(system @ orb.vectorize(np.outer(col, col.conj()))) @ u)
        for col in u.T])
    scale = np.abs(populations).max()
    assert np.abs(populations - brute).max() <= 1e-13 * scale


@pytest.mark.parametrize("build", [_decoupled_atom, lambda: _undamped_spectator(3)],
                         ids=["decoupled-atom", "spectator-3"])
def test_singular_secular_matrix_keeps_the_floored_denominators(build):
    # stationary populations make the secular matrix singular: the block
    # that holds them divides by the floored denominators as S^-1 alone
    # does, X = S(Y) in U-coordinates wherever no denominator is floored,
    # and no block raises or returns a non-finite value
    gen = build()
    d = gen.dim
    structure = _structure(gen)
    a, jumps, lam, u = _eigenbasis(gen, structure.classes)
    preconditioners = steady._sylvester_inverse(a, jumps, structure.classes, structure.pairs)
    rates = -2 * lam.real
    floor = steady._DARK_FLOOR * rates[rates > d * np.finfo(float).eps * np.abs(lam).max()].min()
    denominators = lam[:, None] + lam.conj()[None, :]
    rng = np.random.default_rng(7)
    held = 0
    for block, pairs, apply in zip(structure.blocks, structure.pairs, preconditioners):
        x = np.zeros(d * d, dtype=complex)
        x[block.unknowns] = [1, 1j] @ rng.standard_normal((2, block.unknowns.size))
        y = np.zeros(d * d, dtype=complex)
        y[block.unknowns] = apply(x[block.unknowns])
        assert np.all(np.isfinite(y))
        big_y, big_x = y.reshape(d, d, order="F"), x.reshape(d, d, order="F")
        c, z = u.conj().T @ big_x @ u, u.conj().T @ big_y @ u
        kept = np.zeros(d * d, dtype=bool)
        kept[block.unknowns] = np.abs(orb.vectorize(denominators)[block.unknowns]) >= floor
        kept = orb.devectorize(kept)
        np.testing.assert_allclose(z[kept] * denominators[kept], c[kept], rtol=1e-12)
        held += any(p == q for p, q in pairs)
    assert held == 1


@pytest.mark.parametrize("scenario, coupling, cutoff, method", [
    ("a", orb.Coupling.FULL, 3, "gmres"), ("b", orb.Coupling.FULL, 3, "gmres"),
    ("c", orb.Coupling.FULL, 8, "gmres"), ("a", orb.Coupling.RWA, 6, "gmres"),
    ("c", orb.Coupling.FULL, 5, "banded-lu"), ("d", orb.Coupling.FULL, 5, "banded-lu"),
    ("a", orb.Coupling.RWA, 4, "banded-lu"), ("a", orb.Coupling.RWA, 5, "banded-lu"),
    ("c", orb.Coupling.RWA, 16, "banded-lu"),
])
def test_solver_choice_follows_the_band_work_per_class(scenario, coupling, cutoff, method):
    # GMRES where the band's work is at least _KRYLOV_MIN_WORK per Hilbert
    # class, on either side of the measured crossover: two parity classes
    # under full coupling, and 10-19 excitation classes under the RWA, whose
    # many small blocks keep the band ahead up to far larger work
    gen = orb.build_liouvillian(orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.05, **REFERENCE_RATES), cutoff=cutoff,
        coupling=coupling, parasitic=orb.scenario_parasitic(scenario)))
    structure = _structure(gen)
    diagnostics = orb.steady_state(gen).diagnostics
    assert diagnostics["method"] == method
    assert diagnostics["blocks"] == len(structure.blocks)
    per_class = structure.work / len(structure.classes)
    assert (per_class >= steady._KRYLOV_MIN_WORK) == (method == "gmres")


@pytest.mark.parametrize("cutoff", [3, 4, 5, 6])
def test_gmres_by_sector_agrees_with_the_band_at_large_cutoffs(cutoff, krylov, factored,
                                                              monkeypatch):
    # the cutoffs that take GMRES by default; one certificate per block, the
    # trace row's last, and the band factors none
    gen = _scenario_a(cutoff)
    result = orb.steady_state(gen)
    trace = _structure(gen).trace_block
    assert result.diagnostics["method"] == "gmres"
    # the secular populations keep GMRES short; S^-1 alone took 36-40
    assert result.diagnostics["krylov_iterations"] <= 24
    assert krylov == [(1 - trace, True), (trace, True)] and factored == []
    monkeypatch.setattr(steady, "_KRYLOV_MIN_WORK", math.inf)
    band = orb.steady_state(gen)
    assert band.diagnostics["method"] == "banded-lu"
    np.testing.assert_allclose(result.rho, band.rho, rtol=0, atol=1e-15)


def test_gmres_solve_makes_no_reference_cycles(krylov):
    # each of the two blocks certified once per solve, by GMRES
    gen = _scenario_a(3)
    orb.steady_state(gen)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            orb.steady_state(gen)
        assert gc.collect() == 0
    finally:
        gc.enable()
    trace = _structure(gen).trace_block
    assert krylov == [(1 - trace, True), (trace, True)] * 4


def test_one_gmres_preconditioner_is_alive_at_a_time(monkeypatch):
    # GMRES's preconditioner lives only through its own round: a batch of
    # points of one pattern builds each point's as its round starts, and
    # frees it before the next point's is built and before the certificate
    monkeypatch.setattr(steady, "_KRYLOV_MIN_WORK", 0.0)
    gens = [_scenario_a(3, omega) for omega in (0.8, 0.9, 1.1)]
    assert len({id(_structure(gen)) for gen in gens}) == 1
    built, alive = [], []   # weak references to the preconditioners; those alive at each event
    sylvester_inverse, certify = steady._sylvester_inverse, steady._certify

    def live(event):
        gc.collect()
        alive.append((event, sum(ref() is not None for ref in built)))

    def build(*args):
        live("build")
        preconditioners = sylvester_inverse(*args)
        built.extend(weakref.ref(apply) for apply in preconditioners)
        return preconditioners

    def certificate(*args):
        live("certify")
        return certify(*args)

    monkeypatch.setattr(steady, "_sylvester_inverse", build)
    monkeypatch.setattr(steady, "_certify", certificate)
    results = orb.steady_states(gens)
    assert [result.diagnostics["method"] for result in results] == ["gmres"] * 3
    assert alive == [("build", 0)] * 3 + [("certify", 0)]
    assert len(built) == 3 * len(_structure(gens[0]).blocks)


def _qubit_cavity_damped():
    space = orb.CompositeSpace((orb.Qubit("atom"), orb.Boson(3, "cavity")))
    ops = orb.qubit_ops()
    h = orb.embed(orb.number(3), space, 1) + 0.7 * orb.embed(ops.sp + ops.sm, space, 0)
    terms = [orb.LindbladTerm(orb.embed(ops.sm, space, 0), 0.37),
             orb.LindbladTerm(orb.embed(orb.annihilation(3), space, 1), 0.41)]
    return orb.assemble(h, terms, space)


def _two_damped_bosons():
    space = orb.CompositeSpace((orb.Boson(3, "a"), orb.Boson(3, "b")))
    h = orb.embed(orb.number(3), space, 0) + orb.embed(orb.number(3), space, 1)
    terms = [orb.LindbladTerm(orb.embed(orb.annihilation(3), space, k), 0.4) for k in (0, 1)]
    return orb.assemble(h, terms, space)


@pytest.mark.parametrize("build, blocks, tol", [
    (_qubit_cavity_damped, 7, 1e-14),
    (_two_damped_bosons, 49, 1e-14),
    # ill-conditioned, and spsolve does not refine
    (lambda: _scenario_a(2), 2, 1e-11),
], ids=["qubit-cavity", "two-bosons", "scenario-a"])
def test_banded_solve_agrees_with_spsolve(build, blocks, tol):
    # an independent solve of the same trace-replaced system: SuperLU under
    # its own order, whole, unrefined, then symmetrized and normalized as
    # steady_state does
    gen = build()
    result = orb.steady_state(gen)
    assert result.diagnostics["blocks"] == blocks
    rhs = np.zeros(gen.dim ** 2, dtype=complex)
    rhs[0] = 1.0
    raw = orb.devectorize(spla.spsolve(sp.csc_matrix(_system(gen)), rhs))
    ref = 0.5 * (raw + raw.conj().T)
    ref /= np.trace(ref).real
    assert np.abs(result.rho - ref).max() <= tol


def test_rwa_steady_state_is_ground_vacuum():
    for scenario in ["bare", "c"]:
        spec = orb.ModelSpec(
            params=orb.RabiParams(omega=1.0, g=0.05, **REFERENCE_RATES),
            cutoff=2,
            coupling=orb.Coupling.RWA,
            parasitic=orb.scenario_parasitic(scenario),
        )
        n, e, _ = steady_means(spec)
        assert abs(n) < 1e-12
        assert abs(e) < 1e-12


def test_full_coupling_excitations_strictly_positive():
    spec = orb.ModelSpec(params=orb.RabiParams(omega=1.0, g=0.05, **REFERENCE_RATES), cutoff=2)
    n, e, _ = steady_means(spec)
    assert n > 0
    assert e > 0


def test_weak_coupling_quadratic_scaling():
    means = []
    for g in (0.01, 0.02):
        spec = orb.ModelSpec(params=orb.RabiParams(omega=1.0, g=g, **REFERENCE_RATES), cutoff=2)
        means.append(steady_means(spec)[0])
    assert 3.8 <= means[1] / means[0] <= 4.2


def test_small_and_large_systems_agree_on_the_sparse_path():
    # dim 18 (cutoff 2) takes the banded LU, dim 72 (cutoff 5) GMRES
    params = orb.RabiParams(omega=1.0, g=0.05, kappa=1e-4, lam=1e-4, gamma=2.5e-5)
    big = orb.ModelSpec(params=params, cutoff=5, parasitic=orb.scenario_parasitic("a"))
    result = orb.steady_state(orb.build_liouvillian(big))
    assert result.diagnostics["method"] == "gmres"
    assert result.residual <= 1e-10
    small = orb.ModelSpec(params=params, cutoff=2, parasitic=orb.scenario_parasitic("a"))
    n_small, _, small_result = steady_means(small)
    assert small_result.diagnostics["method"] == "banded-lu"
    space = orb.build_space(big)
    n_big = orb.expectation(orb.excitation_operator(space, "cavity"), result.rho).real
    assert n_big == pytest.approx(n_small, rel=1e-3)


def test_evolve_decay_law():
    gen, _ = cavity_only_generator(cutoff=2, kappa=0.5)
    rho0 = np.zeros((3, 3), complex)
    rho0[1, 1] = 1.0
    for t in (0.7, 2.0, 10.0):
        rho_t = orb.evolve(gen, rho0, t)
        n_t = orb.expectation(orb.number(2), rho_t).real
        assert abs(n_t - np.exp(-0.5 * t)) <= 1e-13


def test_evolve_zero_generator_is_identity():
    space = orb.CompositeSpace((orb.Qubit("q"),))
    zero = orb.assemble(np.zeros((2, 2), complex), [], space)
    rho0 = np.array([[0.25, 0.1j], [-0.1j, 0.75]], complex)
    np.testing.assert_array_equal(orb.evolve(zero, rho0, 3.0), rho0)
    np.testing.assert_array_equal(orb.evolve(zero, rho0, 0.0), rho0)


def test_evolve_agrees_with_steady_state():
    params = orb.RabiParams(omega=1.0, g=0.05, kappa=0.1, lam=0.1, gamma=0.025)
    spec = orb.ModelSpec(params=params, cutoff=1)
    gen = orb.build_liouvillian(spec)
    steady = orb.steady_state(gen).rho
    space = orb.build_space(spec)
    ground = orb.basis_ket(space, [0, 0])
    rho_t = orb.evolve(gen, np.outer(ground, ground.conj()), 20.0 / 0.1)
    assert trace_distance(rho_t, steady) < 1e-6


def _convergence_table(tmp_path, *args):
    """The rows of ``openrabi convergence`` at the reference parameters and ``args``."""
    out = tmp_path / "convergence.csv"
    assert main(["convergence", *args, "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_convergence_scan_weak_coupling(tmp_path):
    rows = _convergence_table(tmp_path, "--cutoff", "1,2,3")
    assert [r["cutoff"] for r in rows] == ["1", "2", "3"]
    assert rows[0]["rel_change"] == "" and rows[0]["converged"] == "false"
    assert float(rows[1]["rel_change"]) < 0.1  # one- and two-photon results nearly coincide
    assert rows[2]["converged"] == "true" and float(rows[2]["rel_change"]) < 0.01


def test_convergence_scan_decoupled_gives_zero(tmp_path):
    rows = _convergence_table(tmp_path, "--g", "0", "--cutoff", "1,2")
    assert all(abs(float(r["n_mean"])) < 1e-12 for r in rows)


def test_dephasing_degrades_one_photon_accuracy(tmp_path):
    changes = []
    for gamma in ("2.5e-7", "4e-6"):
        rows = _convergence_table(tmp_path, "--gamma-rate", gamma, "--cutoff", "1,2")
        changes.append(float(rows[1]["rel_change"]))
    assert changes[1] > changes[0]


def _mp_null_vector_means(gen, dps=40):
    """Cavity <n> and atom <E> of the trace-normalized null vector of ``gen``,
    by sparse Gaussian elimination with partial pivoting at ``dps`` digits."""
    d = gen.dim
    n = d * d
    with mp.workdps(dps):
        rows = [{j: mp.mpc(v) for j, v in enumerate(row) if v != 0}
                for row in gen.matrix.toarray().tolist()]
        rows[0] = {j * (d + 1): mp.mpc(1) for j in range(d)}  # trace constraint
        b = [mp.mpc(1)] + [mp.mpc(0)] * (n - 1)
        for j in range(n):
            piv = max(range(j, n), key=lambda i: abs(rows[i].get(j, 0)))
            rows[j], rows[piv], b[j], b[piv] = rows[piv], rows[j], b[piv], b[j]
            for i in range(j + 1, n):
                f = rows[i].pop(j, 0)
                if f:
                    f /= rows[j][j]
                    for k, v in rows[j].items():
                        if k > j:
                            rows[i][k] = rows[i].get(k, 0) - f * v
                    b[i] -= f * b[j]
        x = [mp.mpc(0)] * n
        for i in range(n - 1, -1, -1):
            x[i] = (b[i] - mp.fsum(v * x[k] for k, v in rows[i].items() if k > i)) / rows[i][i]
        populations = [x[i * (d + 1)].real for i in range(d)]
        return [float(mp.fsum(p * w for p, w in zip(
                    populations, np.diag(orb.excitation_operator(gen.space, label)).real)))
                for label in ("cavity", "atom")]


@pytest.mark.parametrize("scenario, cutoff, omega", [
    ("bare", 1, 1.0), ("bare", 2, 0.7), ("a", 1, 1.05), ("c", 1, 1.3), ("c", 2, 1.2),
])
def test_printed_digits_match_40_digit_null_vector(scenario, cutoff, omega):
    # the CSVs print 12 significant digits, and each must be a true digit.
    # Refined solves agree to a few ulp; unrefined sparse LU misses by
    # ~1e-13 at the scenario-c points, so the bound is set below that.
    spec = orb.ModelSpec(params=orb.RabiParams(omega=omega, g=0.05, **REFERENCE_RATES),
                         cutoff=cutoff, parasitic=orb.scenario_parasitic(scenario))
    n, e, result = steady_means(spec)
    n_ref, e_ref = _mp_null_vector_means(orb.build_liouvillian(spec))
    assert n == pytest.approx(n_ref, rel=1e-14)
    assert e == pytest.approx(e_ref, rel=1e-14)
    # refinement reaches the rounding floor, and stops there, within two rounds
    assert result.diagnostics["last_correction"] <= np.finfo(float).eps
    assert 1 <= result.diagnostics["refine_rounds"] <= 2
    assert result.diagnostics["lu_nnz"] > 0


def test_printed_rel_change_digits_match_40_digit_null_vector(tmp_path):
    # rel_change = |n_c - n_{c-1}| / n_c cancels about 4 digits, so the
    # convergence table prints it with 8 significant digits, each a true one
    rows = _convergence_table(tmp_path, "--cutoff", "1,2,3")
    spec = orb.ModelSpec(params=orb.RabiParams(omega=1.0, g=0.05, **REFERENCE_RATES), cutoff=1)
    n = [mp.mpf(_mp_null_vector_means(
             orb.build_liouvillian(dataclasses.replace(spec, cutoff=c)))[0])
         for c in (1, 2, 3)]
    assert [row["cutoff"] for row in rows] == ["1", "2", "3"]
    with mp.workdps(40):
        for c in (2, 3):
            ref = abs(n[c - 1] - n[c - 2]) / n[c - 1]
            assert rows[c - 1]["rel_change"] == f"{float(ref):.7e}"


def test_non_canonical_generator_solves_and_is_left_unchanged():
    # every entry split into two halves, and each row's entries reversed
    gen = orb.build_liouvillian(orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.05, **REFERENCE_RATES), cutoff=2,
        parasitic=orb.scenario_parasitic("c")))
    mat = gen.matrix
    order = np.concatenate([np.arange(mat.indptr[i + 1] - 1, mat.indptr[i] - 1, -1)
                            for i in range(mat.shape[0])])
    data = np.repeat(mat.data[order] / 2, 2)
    indices = np.repeat(mat.indices[order], 2)
    messy = sp.csr_matrix((data, indices, 2 * mat.indptr), shape=mat.shape)
    assert not messy.has_canonical_format
    arrays = [a.copy() for a in (messy.data, messy.indices, messy.indptr)]
    rho = orb.steady_state(orb.SuperOperator(gen.space, messy)).rho
    np.testing.assert_allclose(rho, orb.steady_state(gen).rho, rtol=0, atol=1e-14)
    for before, after in zip(arrays, (messy.data, messy.indices, messy.indptr)):
        np.testing.assert_array_equal(before, after)


def test_sweep_bytes_independent_of_blas_threads(tmp_path):
    # scenario a at cutoff 5 has a band wide enough for OpenBLAS to thread
    src = str(Path(orb.__file__).parents[1])
    commands = [["sweep-omega", "--scenario", "c", "--cutoff", "1,2,3,4"],
                ["convergence", "--scenario", "a", "--cutoff", "5"]]
    for command in commands:
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-m", "openrabi.cli", *command,
                                   "--out", str(out)], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def _outcome(outcome):
    """What a point's steady state or error shows: every byte of its state,
    residual and diagnostics, or its error's type and text."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return (outcome.rho.tobytes(), outcome.residual.hex(),
            repr({key: value.hex() if isinstance(value, float) else value
                  for key, value in outcome.diagnostics.items()}))


_MIXED_POINTS = st.builds(
    lambda scenario, coupling, cutoff, omega, gamma, nbar: orb.ModelSpec(
        orb.RabiParams(omega, 0.05, kappa=1e-6, lam=1e-6, gamma=gamma, nbar=nbar), cutoff,
        coupling, orb.scenario_parasitic(scenario)),
    st.sampled_from(["bare", "a", "b", "c", "d"]), st.sampled_from(list(orb.Coupling)),
    st.integers(1, 3), st.sampled_from([0.7, 1.0, 1.3]), st.sampled_from([0.0, 2.5e-7]),
    st.sampled_from([0.0, 0.3]))

#: a Hamiltonian-only point, whose state is not unique, a point on GMRES,
#: two points of one pattern of which the one at rates 1e-30 fails its
#: certificate after refinement, so the batch's residual check leaves it out,
#: and a second point on GMRES, of the first one's pattern
_FIXED_POINTS = [
    orb.ModelSpec(orb.RabiParams(1.0, 0.05), 2, parasitic=orb.scenario_parasitic("c")),
    orb.ModelSpec(orb.RabiParams(0.9, 0.05, **REFERENCE_RATES), 4,
                  parasitic=orb.scenario_parasitic("a")),
    orb.ModelSpec(orb.RabiParams(0.9, 0.05, kappa=1e-30, lam=1e-30), 2,
                  parasitic=orb.scenario_parasitic("c")),
    orb.ModelSpec(orb.RabiParams(0.9, 0.05, kappa=1e-6, lam=1e-6), 2,
                  parasitic=orb.scenario_parasitic("c")),
    orb.ModelSpec(orb.RabiParams(1.1, 0.05, **REFERENCE_RATES), 4,
                  parasitic=orb.scenario_parasitic("a"))]


@settings(max_examples=12, deadline=None)
@given(points=st.lists(_MIXED_POINTS, min_size=1, max_size=10), data=st.data())
def test_batch_partition_leaves_every_point_as_it_is_alone(points, data):
    # omega = 1 cancels entries and gamma = 0 drops parts, so one structure's
    # points fall into several patterns.  Solved as one batch, one by one,
    # and in random batches of random order, each point has the same state,
    # residual and diagnostics, bit for bit, or the same error
    specs = data.draw(st.permutations(points + _FIXED_POINTS))
    gens = orb.build_liouvillians(specs)
    for gen, spec in zip(gens, specs):
        alone = orb.build_liouvillian(spec).matrix
        assert gen.matrix.data.tobytes() == alone.data.tobytes()
        assert gen.matrix.indices.tobytes() == alone.indices.tobytes()
    whole = [_outcome(outcome) for outcome in orb.steady_states(gens)]
    for gmres in _FIXED_POINTS[1], _FIXED_POINTS[4]:
        assert "'method': 'gmres'" in whole[specs.index(gmres)][2]
    assert whole[specs.index(_FIXED_POINTS[0])][0] is NonUniqueSteadyStateError
    assert whole[specs.index(_FIXED_POINTS[2])][0] is NonUniqueSteadyStateError
    assert "after refinement" in whole[specs.index(_FIXED_POINTS[2])][1]
    assert "'method': 'banded-lu'" in whole[specs.index(_FIXED_POINTS[3])][2]
    assert whole == [_outcome(orb.steady_states([gen])[0]) for gen in gens]
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
    parts = {}
    for p, label in enumerate(labels):
        parts.setdefault(label, []).append(p)
    got = [None] * len(gens)
    for members in parts.values():
        members = data.draw(st.permutations(members))
        for p, outcome in zip(members, orb.steady_states([gens[p] for p in members])):
            got[p] = _outcome(outcome)
    assert got == whole
