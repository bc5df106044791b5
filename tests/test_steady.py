import csv
import dataclasses
import gc
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import openrabi as orb
from openrabi import steady
from openrabi.cli import main
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
    # at D^2 = 4 the probe asks eigs for its fewest eigenvalues, k = n - 2 = 2
    with pytest.raises(NonUniqueSteadyStateError):
        orb.steady_state(_one_qubit())


@pytest.mark.parametrize("drive", [0.0, 0.7])
def test_nonunique_detected_in_odd_sector(drive):
    # with the drive, an LU that pivots on the diagonal only misses the
    # singularity and returns a state, where partial pivoting meets an
    # exactly zero pivot
    with pytest.raises(NonUniqueSteadyStateError):
        orb.steady_state(_odd_sector(drive))


def test_one_state_failure_is_no_convergence():
    # a 1x1 generator that is not trace preserving: its nullity is at most
    # one, so the failure is NoConvergenceError, without an eigenvalue probe
    space = orb.CompositeSpace((orb.Boson(0, "mode"),))
    gen = orb.SuperOperator(space, sp.csr_matrix(np.array([[-1.0 + 0j]])))
    with pytest.raises(orb.NoConvergenceError):
        orb.steady_state(gen)


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
    indptr, indices, _ = steady._trace_replaced(gen.matrix, gen.dim)
    structure = steady._band_structure(gen.dim ** 2, indptr.tobytes(), indices.tobytes())
    assert diagnostics["blocks"] == 2
    assert np.array_equal(structure.starts, [0, gen.dim ** 2 // 2, gen.dim ** 2])
    kl, ku = diagnostics["bandwidth"]
    assert (kl, ku) == (structure.kl[structure.trace_block], structure.ku[structure.trace_block])
    assert diagnostics["lu_nnz"] == gen.dim ** 2 // 2 * (2 * kl + ku + 1)
    assert diagnostics["last_correction"] <= np.finfo(float).eps
    assert diagnostics["refine_rounds"] <= 3


def test_lu_order_is_cached_per_sparsity_pattern():
    # two points of one structure share a pattern, so the second solve reuses
    # the first one's order and blocks; a hand-built generator of that
    # pattern gets them too
    gens = [_scenario_a(3, omega) for omega in (0.9, 1.1)]
    steady._band_structure.cache_clear()
    results = [orb.steady_state(gen) for gen in gens]
    info = steady._band_structure.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    n = gens[0].dim ** 2
    indptr, indices, _ = steady._trace_replaced(gens[0].matrix, gens[0].dim)
    structure = steady._band_structure(n, indptr.tobytes(), indices.tobytes())
    assert steady._band_structure.cache_info().hits == 2
    assert np.array_equal(np.sort(structure.order), np.arange(n))
    arrays = [getattr(structure, f.name) for f in dataclasses.fields(structure)
              if isinstance(getattr(structure, f.name), np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    bare = orb.SuperOperator(gens[0].space, gens[0].matrix.copy())
    np.testing.assert_allclose(orb.steady_state(bare).rho, results[0].rho, rtol=0, atol=1e-15)


@pytest.fixture
def krylov(monkeypatch):
    """Every solve starts on the GMRES path; returns the outcomes of the
    certificate, True where it passed."""
    monkeypatch.setattr(steady, "_KRYLOV_MIN_WORK", 0.0)
    outcomes = []
    solver = steady._krylov_solver

    def spy(*args):
        solve = solver(*args)
        outcomes.append(solve is not None)
        return solve

    monkeypatch.setattr(steady, "_krylov_solver", spy)
    return outcomes


@pytest.mark.parametrize("build", [
    _decoupled_atom,
    *[lambda c=c: _undamped_spectator(c) for c in (2, 3, 4, 5, 6)],
    _one_qubit,
    *[lambda d=d: _odd_sector(d) for d in (0.0, 0.7)],
], ids=["decoupled-atom", *[f"spectator-{c}" for c in (2, 3, 4, 5, 6)], "one-qubit",
        "odd-sector-0.0", "odd-sector-0.7"])
def test_nonunique_fails_the_certificate_and_falls_back_to_the_band(build, krylov):
    gen = build()
    with pytest.raises(NonUniqueSteadyStateError):
        orb.steady_state(gen)
    assert krylov == [False]


@pytest.mark.parametrize("scenario", ["bare", "a", "b", "c", "d"])
@pytest.mark.parametrize("coupling", [orb.Coupling.FULL, orb.Coupling.RWA])
@pytest.mark.parametrize("nbar", [0.0, 0.3])
def test_gmres_agrees_with_the_band(scenario, coupling, nbar, krylov, monkeypatch):
    # RWA at nbar 0 has a dark state, which the preconditioner's floor covers
    gen = orb.build_liouvillian(orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.05, nbar=nbar, **REFERENCE_RATES), cutoff=3,
        coupling=coupling, parasitic=orb.scenario_parasitic(scenario)))
    result = orb.steady_state(gen)
    assert krylov == [True]
    diagnostics = result.diagnostics
    assert diagnostics["method"] == "gmres" and diagnostics["certified"]
    assert diagnostics["krylov_iterations"] > 0
    assert not {"blocks", "bandwidth", "lu_nnz"} & diagnostics.keys()
    assert diagnostics["last_correction"] <= np.finfo(float).eps
    monkeypatch.setattr(steady, "_KRYLOV_MIN_WORK", math.inf)
    band = orb.steady_state(gen)
    assert band.diagnostics["method"] == "banded-lu" and not band.diagnostics["certified"]
    assert band.diagnostics["krylov_iterations"] == 0
    np.testing.assert_allclose(result.rho, band.rho, rtol=0, atol=1e-15)


def _stall_the_solves(monkeypatch):
    # GMRES runs only for the certificate, whose tolerance is the looser
    gmres = steady._gmres
    monkeypatch.setattr(steady, "_gmres", lambda system, precondition, b, tol: (
        gmres(system, precondition, b, tol) if tol > steady._KRYLOV_TOL else (None, 1)))


@pytest.mark.parametrize("break_it, certified", [
    (_stall_the_solves, True),
    # the certificate stalls
    (lambda mp: mp.setattr(steady, "_KRYLOV_MAX", 1), False),
    # eig raises
    (lambda mp: mp.setattr(steady, "_sylvester_part",
                           lambda mat, dim: np.full((dim, dim), np.nan)), False),
], ids=["solve-stalls", "certificate-stalls", "eig-raises"])
def test_gmres_failures_fall_back_to_the_band(break_it, certified, krylov, monkeypatch):
    gen = _scenario_a(3)
    break_it(monkeypatch)
    diagnostics = orb.steady_state(gen).diagnostics
    assert diagnostics["method"] == "banded-lu" and diagnostics["blocks"] == 2
    assert diagnostics["certified"] is certified


@pytest.mark.parametrize("spec", [
    orb.ModelSpec(params=orb.RabiParams(omega=0.9, g=0.05, nbar=0.3, **REFERENCE_RATES),
                  cutoff=2, parasitic=orb.scenario_parasitic("a")),
    orb.ModelSpec(params=orb.RabiParams(omega=1.3, g=0.05, **REFERENCE_RATES), cutoff=3,
                  coupling=orb.Coupling.RWA, parasitic=orb.scenario_parasitic("c")),
], ids=["a-full-heat", "c-rwa"])
def test_sylvester_part_read_off_the_generator_is_minus_i_h_eff(spec):
    # A of A X + X A^+ equals -i H_eff, up to an imaginary multiple of 1
    space = orb.build_space(spec)
    h_eff = orb.unravel(orb.build_hamiltonian(spec), orb.build_dissipators(spec), space).h_eff
    diff = steady._sylvester_part(orb.build_liouvillian(spec).matrix, space.dim) + 1j * h_eff
    shift = diff[0, 0]
    assert abs(shift.real) <= 1e-15
    np.testing.assert_allclose(diff, shift * np.eye(space.dim), rtol=0, atol=2e-15)


def test_gmres_solve_makes_no_reference_cycles(krylov):
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
    assert krylov == [True] * 4


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
    n = gen.dim ** 2
    indptr, indices, data = steady._trace_replaced(gen.matrix, gen.dim)
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = 1.0
    raw = orb.devectorize(spla.spsolve(sp.csc_matrix(
        sp.csr_matrix((data, indices, indptr), shape=(n, n))), rhs))
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
