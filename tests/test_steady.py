import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.sparse as sp

import openrabi as orb
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


def test_nonunique_steady_state_detected():
    # decoupled atom with no atomic dissipation: any atom population mix is stationary
    spec = orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.0, kappa=0.5, lam=0.0, gamma=0.0),
        cutoff=1,
    )
    with pytest.raises(NonUniqueSteadyStateError):
        orb.steady_state(orb.build_liouvillian(spec))


def test_nonunique_detected_on_large_sparse_space():
    # damped mode with an undamped spectator mode: every spectator population
    # is stationary; dim 49 routes through the sparse shift-invert probe
    space = orb.CompositeSpace((orb.Boson(6, "a"), orb.Boson(6, "b")))
    h = orb.embed(orb.number(6), space, 0) + orb.embed(orb.number(6), space, 1)
    terms = [orb.LindbladTerm(orb.embed(orb.annihilation(6), space, 0), 0.4)]
    with pytest.raises(NonUniqueSteadyStateError):
        orb.steady_state(orb.assemble(h, terms, space))


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
    # every solve is one sparse LU, from dim 18 (cutoff 2) to dim 72 (cutoff 5)
    params = orb.RabiParams(omega=1.0, g=0.05, kappa=1e-4, lam=1e-4, gamma=2.5e-5)
    big = orb.ModelSpec(params=params, cutoff=5, parasitic=orb.scenario_parasitic("a"))
    result = orb.steady_state(orb.build_liouvillian(big))
    assert result.diagnostics["method"] == "sparse-lu"
    assert result.residual <= 1e-10
    small = orb.ModelSpec(params=params, cutoff=2, parasitic=orb.scenario_parasitic("a"))
    n_small, _, small_result = steady_means(small)
    assert small_result.diagnostics["method"] == "sparse-lu"
    space = orb.build_space(big)
    n_big = orb.expectation(orb.excitation_operator(space, "cavity"), result.rho).real
    assert n_big == pytest.approx(n_small, rel=1e-3)


def test_evolve_decay_law():
    gen, _ = cavity_only_generator(cutoff=2, kappa=0.5)
    rho0 = np.zeros((3, 3), complex)
    rho0[1, 1] = 1.0
    for t in (0.7, 2.0):
        rho_t = orb.evolve(gen, rho0, t, tolerance=1e-11)
        n_t = orb.expectation(orb.number(2), rho_t).real
        assert n_t == pytest.approx(np.exp(-0.5 * t), abs=1e-6)


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
    rho_t = orb.evolve(gen, np.outer(ground, ground.conj()), 20.0 / 0.1, tolerance=1e-11)
    assert trace_distance(rho_t, steady) < 1e-6


def test_convergence_scan_weak_coupling():
    spec = orb.ModelSpec(params=orb.RabiParams(omega=1.0, g=0.05, **REFERENCE_RATES), cutoff=1)
    rows = orb.convergence_scan(spec, [1, 2, 3])
    assert [r.cutoff for r in rows] == [1, 2, 3]
    assert np.isnan(rows[0].rel_change)
    assert rows[1].rel_change < 0.1  # one- and two-photon results nearly coincide
    assert rows[2].converged and rows[2].rel_change < 0.01


def test_convergence_scan_decoupled_gives_zero():
    spec = orb.ModelSpec(params=orb.RabiParams(omega=1.0, g=0.0, **REFERENCE_RATES), cutoff=1)
    rows = orb.convergence_scan(spec, [1, 2])
    assert all(abs(r.n_mean) < 1e-12 for r in rows)


def test_dephasing_degrades_one_photon_accuracy():
    changes = []
    for gamma in (2.5e-7, 4e-6):
        spec = orb.ModelSpec(
            params=orb.RabiParams(omega=1.0, g=0.05, kappa=1e-6, lam=1e-6, gamma=gamma),
            cutoff=1,
        )
        rows = orb.convergence_scan(spec, [1, 2])
        changes.append(rows[1].rel_change)
    assert changes[1] > changes[0]


def test_convergence_scan_rejects_unsorted():
    spec = orb.ModelSpec(params=orb.RabiParams(omega=1.0, g=0.05, **REFERENCE_RATES), cutoff=1)
    with pytest.raises(ValueError):
        orb.convergence_scan(spec, [2, 1])
    with pytest.raises(ValueError, match="strictly ascending"):
        orb.convergence_scan(spec, [1, 1])


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
    src = str(Path(orb.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "openrabi.cli", "sweep-omega", "--scenario", "c",
             "--cutoff", "1,2,3,4", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
