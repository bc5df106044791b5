import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg as la

import openrabi as orb
from openrabi import trajectories
from util import REFERENCE_RATES


def decaying_cavity(kappa=1.0, cutoff=1):
    space = orb.CompositeSpace((orb.Boson(cutoff, "cavity"),))
    h = orb.number(cutoff)
    terms = [orb.LindbladTerm(orb.annihilation(cutoff), kappa)]
    return orb.unravel(h, terms, space), space, h, terms


def test_unravel_without_dissipation():
    space = orb.CompositeSpace((orb.Qubit("q"),))
    h = orb.qubit_ops().excited.astype(complex)
    unr = orb.unravel(h, [], space)
    np.testing.assert_array_equal(unr.h_eff, h)
    assert unr.jumps == ()


def test_unravel_single_channel():
    unr, _, h, _ = decaying_cavity(kappa=0.8, cutoff=2)
    a = orb.annihilation(2)
    np.testing.assert_allclose(unr.h_eff, h - 0.4j * (a.conj().T @ a), atol=1e-15)
    assert len(unr.jumps) == 1
    np.testing.assert_allclose(unr.jumps[0], np.sqrt(0.8) * a, atol=1e-15)


def test_recombination_identity_scenario_c():
    spec = orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.05, **REFERENCE_RATES),
        cutoff=2,
        parasitic=orb.scenario_parasitic("c"),
    )
    space = orb.build_space(spec)
    h = orb.build_hamiltonian(spec)
    terms = orb.build_dissipators(spec)
    direct = orb.build_liouvillian(spec)
    rebuilt = orb.recombine(orb.unravel(h, terms, space))
    diff = np.abs((direct.matrix - rebuilt.matrix).toarray()).max()
    assert diff <= 1e-12


def test_identical_seeds_identical_records():
    unr, space, _, _ = decaying_cavity()
    psi0 = orb.basis_ket(space, [1])
    ops = (orb.number(1),)
    rec1 = orb.run_trajectory(unr, psi0, 4.0, 0.1, seed=42, operators=ops)
    rec2 = orb.run_trajectory(unr, psi0, 4.0, 0.1, seed=42, operators=ops)
    np.testing.assert_array_equal(rec1.observables, rec2.observables)
    assert rec1.jump_times == rec2.jump_times
    assert rec1.jump_channels == rec2.jump_channels


def test_zero_rates_pure_schroedinger():
    space = orb.CompositeSpace((orb.Boson(2, "cavity"),))
    x, _ = orb.quadratures(2)
    h = orb.number(2) + 0.3 * x
    unr = orb.unravel(h, [], space)
    psi0 = np.zeros(3, complex)
    psi0[0] = 1.0
    rec = orb.run_trajectory(unr, psi0, 2.0, 0.05, seed=5, operators=(orb.number(2),))
    assert rec.jump_times == []
    exact = la.expm(-1j * h * 2.0) @ psi0
    assert rec.observables[0, -1] == pytest.approx(
        float(np.vdot(exact, orb.number(2) @ exact).real), abs=1e-10
    )


def test_single_photon_decay_jump_statistics():
    # |1> with jump sqrt(kappa) a: at most one jump, first-jump law 1 - exp(-kappa t)
    kappa, t_max, n_traj = 1.0, 3.0, 1500
    unr, space, _, _ = decaying_cavity(kappa)
    psi0 = orb.basis_ket(space, [1])
    jumped_by_half = 0
    for i in range(n_traj):
        rec = orb.run_trajectory(unr, psi0, t_max, 0.25, orb.trajectory_seed(404, i))
        assert len(rec.jump_times) <= 1
        assert all(0 <= t <= t_max for t in rec.jump_times)
        if rec.jump_times and rec.jump_times[0] <= 1.5:
            jumped_by_half += 1
    p = 1.0 - np.exp(-kappa * 1.5)
    sigma = np.sqrt(p * (1 - p) / n_traj)
    assert abs(jumped_by_half / n_traj - p) <= 3 * sigma


def test_ensemble_matches_exponential_decay():
    kappa = 1.0
    unr, space, _, _ = decaying_cavity(kappa)
    psi0 = orb.basis_ket(space, [1])
    t_grid = np.linspace(0.0, 4.0, 9)
    ens = orb.ensemble_average(unr, psi0, t_grid, n_traj=1500, base_seed=808, operators=(orb.number(1),))
    exact = np.exp(-kappa * t_grid)
    for k in range(t_grid.size):
        diff = abs(ens.mean[0, k] - exact[k])
        assert diff <= max(3 * ens.stderr[0, k], 1e-12)


def test_ensemble_matches_master_equation():
    params = orb.RabiParams(omega=1.0, g=0.4, kappa=0.3, lam=0.3, gamma=0.1)
    spec = orb.ModelSpec(params=params, cutoff=1)
    space = orb.build_space(spec)
    h = orb.build_hamiltonian(spec)
    terms = orb.build_dissipators(spec)
    unr = orb.unravel(h, terms, space)
    psi0 = orb.basis_ket(space, [0, 0])
    n_op = orb.excitation_operator(space, "cavity")
    t_grid = np.linspace(0.0, 6.0, 13)
    ens = orb.ensemble_average(unr, psi0, t_grid, n_traj=700, base_seed=99, operators=(n_op,))

    gen = orb.build_liouvillian(spec)
    rho0 = np.outer(psi0, psi0.conj())
    for k, t in enumerate(t_grid[1:], start=1):
        exact = orb.expectation(n_op, orb.evolve(gen, rho0, float(t))).real
        assert abs(ens.mean[0, k] - exact) <= 3 * ens.stderr[0, k]


def test_error_shrinks_like_inverse_sqrt():
    unr, space, _, _ = decaying_cavity()
    psi0 = orb.basis_ket(space, [1])
    t_grid = np.linspace(0.0, 3.0, 7)
    small = orb.ensemble_average(unr, psi0, t_grid, 400, 31, (orb.number(1),))
    large = orb.ensemble_average(unr, psi0, t_grid, 800, 32, (orb.number(1),))
    ratio = small.stderr[0, 1:].mean() / large.stderr[0, 1:].mean()
    assert np.sqrt(2.0) / 1.5 <= ratio <= np.sqrt(2.0) * 1.5


def test_ensemble_rejects_degenerate_sampling():
    unr, space, _, _ = decaying_cavity()
    psi0 = orb.basis_ket(space, [1])
    with pytest.raises(ValueError):
        orb.ensemble_average(unr, psi0, np.linspace(0, 1, 5), 1, 0, (orb.number(1),))
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        orb.ensemble_average(unr, psi0, np.linspace(0, 1, 5), 4, -1, (orb.number(1),))
    with pytest.raises(ValueError):
        orb.run_trajectory(unr, 2 * psi0, 1.0, 0.1, seed=0)


def test_renormalized_norm_after_jumps():
    unr, space, _, _ = decaying_cavity(kappa=2.0, cutoff=2)
    psi0 = orb.basis_ket(space, [2])
    rec = orb.run_trajectory(unr, psi0, 5.0, 0.1, seed=11, operators=(orb.number(2),))
    assert len(rec.jump_times) == 2  # |2> -> |1> -> |0> under pure decay
    assert rec.jump_times == sorted(rec.jump_times)
    assert rec.observables[0, -1] == pytest.approx(0.0, abs=1e-12)


def test_draw_channel_matches_generator_choice():
    # each row's draw, fed one uniform of its generator, is Generator.choice's:
    # same index, same stream state after it
    source = np.random.default_rng(7)
    for case in range(120):
        w = source.random((int(source.integers(1, 9)), int(source.integers(2, 6))))
        # about a quarter of the channels closed, any of them, one per row kept open
        closed = source.random(w.shape) < 0.25
        closed[np.arange(len(w)), source.integers(w.shape[1], size=len(w))] = False
        w[closed] = 0.0
        p = w / w.sum(-1, keepdims=True)
        mine = [np.random.Generator(np.random.PCG64([case, row])) for row in range(len(p))]
        theirs = [np.random.Generator(np.random.PCG64([case, row])) for row in range(len(p))]
        got = trajectories._draw_channels(np.array([rng.random() for rng in mine]), p)
        assert got.tolist() == [rng.choice(row.size, p=row) for rng, row in zip(theirs, p)]
        assert [rng.random() for rng in mine] == [rng.random() for rng in theirs]


_SEEDS = [0, 1, 17, 2024, 2**32 + 5, 2**70 + 3, 2**130 + 9]


def _pcg64_streams(base_seed, keys):
    return [np.random.PCG64(np.random.SeedSequence(entropy=base_seed, spawn_key=(k,))).state["state"]
            for k in keys]


def _words128(hi, lo):
    return [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]


@pytest.mark.parametrize("base_seed", _SEEDS)
def test_block_stream_states_equal_seed_sequence(base_seed):
    keys = [*range(0, 3000, 7), 2**32 - 1]
    streams = trajectories._stream_states(base_seed, np.array(keys, dtype=np.uint32))
    assert all(words.dtype == np.uint64 and words.shape == (len(keys),) for words in streams)
    state_hi, state_lo, inc_hi, inc_lo = streams
    want = _pcg64_streams(base_seed, keys)
    assert _words128(state_hi, state_lo) == [w["state"] for w in want]
    assert _words128(inc_hi, inc_lo) == [w["inc"] for w in want]


@pytest.mark.parametrize("base_seed", _SEEDS)
def test_vectorized_draws_equal_generator_random(base_seed):
    # 24 draws per stream, in rounds over all streams and over random subsets
    # of them, each stream's draws are its Generator's, in order
    keys = [*range(0, 60, 3), 2**32 - 1]
    streams = trajectories._stream_states(base_seed, np.array(keys, dtype=np.uint32))
    got = [[] for _ in keys]
    subsets = np.random.default_rng(base_seed % 2**32)
    rows = np.arange(len(keys))
    for n in (1, 2, 1, 3):
        for i, draws in zip(rows, trajectories._uniforms(streams, rows, n).T):
            got[i] += draws.tolist()
    while min(map(len, got)) < 24:
        rows = np.flatnonzero(subsets.random(len(keys)) < 0.5)
        n = int(subsets.integers(1, 3))
        for i, draws in zip(rows, trajectories._uniforms(streams, rows, n).T):
            got[i] += draws.tolist()
    for k, draws in zip(keys, got):
        rng = np.random.Generator(np.random.PCG64(orb.trajectory_seed(base_seed, k)))
        assert draws == [rng.random() for _ in draws]


def _reference_samples(unr, psi0, t_grid, n_traj, base_seed, ops):
    dt = float(t_grid[1] - t_grid[0])
    return np.array([
        orb.run_trajectory(unr, psi0, float(t_grid[-1]), dt, orb.trajectory_seed(base_seed, i),
                           ops).observables
        for i in range(n_traj)
    ])


def _assert_batched_equals_reference(unr, psi0, t_grid, n_traj, base_seed, ops):
    got = trajectories._ensemble_samples(unr, psi0, t_grid, n_traj, base_seed, ops)
    np.testing.assert_array_equal(got, _reference_samples(unr, psi0, t_grid, n_traj, base_seed, ops))


def test_batched_equals_reference_two_jumps_in_one_step():
    unr, space, _, _ = decaying_cavity(kappa=1.0, cutoff=2)
    psi0 = orb.basis_ket(space, [2])
    t_grid = np.linspace(0.0, 6.0, 4)     # dt = 2
    ops = (orb.number(2),)
    records = [orb.run_trajectory(unr, psi0, 6.0, 2.0, orb.trajectory_seed(5, i), ops)
               for i in range(200)]
    # |2> -> |1> -> |0> inside one step
    assert any(len(r.jump_times) == 2 and int(r.jump_times[0] // 2.0) == int(r.jump_times[1] // 2.0)
               for r in records)
    got = trajectories._ensemble_samples(unr, psi0, t_grid, 200, 5, ops)
    np.testing.assert_array_equal(got, np.array([r.observables for r in records]))


def _scenario_c():
    spec = orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.3, kappa=0.5, lam=0.5, gamma=0.125),
        cutoff=1,
        parasitic=orb.scenario_parasitic("c"),
    )
    space = orb.build_space(spec)
    unr = orb.unravel(orb.build_hamiltonian(spec), orb.build_dissipators(spec), space)
    assert len(unr.jumps) > 2
    ops = (orb.excitation_operator(space, "cavity"), orb.excitation_operator(space, "atom"))
    return unr, space, ops


def test_batched_equals_reference_scenario_c():
    unr, space, ops = _scenario_c()
    psi0 = orb.basis_ket(space, [0] * len(space.dims))
    _assert_batched_equals_reference(unr, psi0, np.linspace(0.0, 4.0, 9), 150, 21, ops)


def test_batched_equals_reference_at_any_block_size(monkeypatch):
    # scenario c from the all-excited state with dt = 2: several jumps in one
    # step.  45 trajectories make 6 blocks of 7 and a partial last one of 3,
    # and one partial block of the default size
    unr, space, ops = _scenario_c()
    psi0 = orb.basis_ket(space, [d - 1 for d in space.dims])
    t_grid = np.linspace(0.0, 6.0, 4)
    records = [orb.run_trajectory(unr, psi0, 6.0, 2.0, orb.trajectory_seed(21, i), ops)
               for i in range(45)]
    assert any(max(Counter(t // 2.0 for t in r.jump_times).values(), default=0) >= 3
               for r in records)
    want = np.array([r.observables for r in records])
    assert 45 < trajectories._BLOCK
    np.testing.assert_array_equal(trajectories._ensemble_samples(unr, psi0, t_grid, 45, 21, ops),
                                  want)
    monkeypatch.setattr(trajectories, "_BLOCK", 7)
    np.testing.assert_array_equal(trajectories._ensemble_samples(unr, psi0, t_grid, 45, 21, ops),
                                  want)


@pytest.mark.parametrize("block", [trajectories._BLOCK, 7])
def test_batched_equals_reference_when_every_trajectory_crosses_in_the_first_step(
        block, monkeypatch):
    # kappa dt = 20: every trajectory leaves |2> and then |1> inside the first
    # step, so the whole block is bisected and jumped twice in that step.  At
    # a block size of 7, 30 trajectories make 4 blocks and a partial one of 2
    unr, space, _, _ = decaying_cavity(kappa=1.0, cutoff=2)
    psi0 = orb.basis_ket(space, [2])
    t_grid = np.linspace(0.0, 40.0, 3)     # dt = 20
    ops = (orb.number(2),)
    records = [orb.run_trajectory(unr, psi0, 40.0, 20.0, orb.trajectory_seed(9, i), ops)
               for i in range(30)]
    assert all(len(r.jump_times) == 2 and r.jump_times[1] < 20.0 for r in records)
    monkeypatch.setattr(trajectories, "_BLOCK", block)
    np.testing.assert_array_equal(trajectories._ensemble_samples(unr, psi0, t_grid, 30, 9, ops),
                                  np.array([r.observables for r in records]))


def test_batched_equals_reference_without_jumps():
    space = orb.CompositeSpace((orb.Boson(2, "cavity"),))
    x, _ = orb.quadratures(2)
    unr = orb.unravel(orb.number(2) + 0.3 * x, [], space)
    psi0 = orb.basis_ket(space, [0])
    _assert_batched_equals_reference(unr, psi0, np.linspace(0.0, 2.0, 41), 3, 5, (orb.number(2),))


def test_batched_equals_reference_with_a_jump_that_does_not_gather():
    # a + 0.5 a^+ has two nonzeros in a row: the ensemble applies it by gemv,
    # as the reference does, and draws both channels
    space = orb.CompositeSpace((orb.Boson(2, "cavity"),))
    a = orb.annihilation(2)
    terms = [orb.LindbladTerm(a, 0.5), orb.LindbladTerm(a + 0.5 * a.conj().T, 0.5)]
    unr = orb.unravel(orb.number(2), terms, space)
    acts = trajectories._Actions(unr, (), gather=True)
    assert acts.jumps[0].func is trajectories._gather
    assert acts.jumps[1].func is trajectories._matvec
    psi0, ops = orb.basis_ket(space, [2]), (orb.number(2),)
    records = [orb.run_trajectory(unr, psi0, 4.0, 0.5, orb.trajectory_seed(3, i), ops)
               for i in range(80)]
    assert {0, 1} <= {c for r in records for c in r.jump_channels}
    np.testing.assert_array_equal(
        trajectories._ensemble_samples(unr, psi0, np.linspace(0.0, 4.0, 9), 80, 3, ops),
        np.array([r.observables for r in records]))


def test_expm_fallback_at_exceptional_point():
    # H = g sigma_x with D[sigma_-] at rate gamma = 4 g: H_eff is defective
    space = orb.CompositeSpace((orb.Qubit("q"),))
    q = orb.qubit_ops()
    h = 0.25 * (q.sm + q.sp)
    terms = [orb.LindbladTerm(q.sm, 1.0)]
    unr = orb.unravel(h, terms, space)
    assert trajectories._Propagator(unr.h_eff)._eig is None
    psi0 = orb.basis_ket(space, [1])
    ops = (q.excited,)
    t_grid = np.linspace(0.0, 3.0, 7)
    _assert_batched_equals_reference(unr, psi0, t_grid, 60, 3, ops)

    ens = orb.ensemble_average(unr, psi0, t_grid, 600, 4, ops)
    gen = orb.assemble(h, terms, space)
    rho0 = np.outer(psi0, psi0.conj())
    for k, t in enumerate(t_grid[1:], start=1):
        exact = orb.expectation(q.excited, orb.evolve(gen, rho0, float(t))).real
        assert abs(ens.mean[0, k] - exact) <= 3 * ens.stderr[0, k]


def test_ensemble_rejects_unnormalized_start():
    unr, space, _, _ = decaying_cavity()
    psi0 = orb.basis_ket(space, [1])
    with pytest.raises(ValueError, match="normalized"):
        orb.ensemble_average(unr, 2 * psi0, np.linspace(0, 1, 5), 4, 0, (orb.number(1),))


@pytest.mark.parametrize("t_grid", [[0.0, math.nan], [0.0, 1.0, math.nan],
                                    [0.0, math.inf, math.inf]])
def test_ensemble_rejects_a_non_finite_grid(t_grid):
    # a NaN grid was once reported as not uniform, and [0, inf, inf] made the
    # spacing warn of an invalid value before any check
    unr, space, _, _ = decaying_cavity()
    psi0 = orb.basis_ket(space, [1])
    with pytest.raises(ValueError, match="t_grid must be finite"):
        orb.ensemble_average(unr, psi0, np.array(t_grid), 4, 0, (orb.number(1),))


@pytest.mark.parametrize("h", [[[0.0, 1.0], [0.0, 0.0]], [[math.nan] * 2] * 2],
                         ids=["non-hermitian", "nan"])
def test_unravel_and_assemble_reject_a_non_hermitian_h(h):
    # one check serves both, and a NaN fails it
    space = orb.CompositeSpace((orb.Qubit("q"),))
    h = np.array(h, dtype=complex)
    with pytest.raises(orb.NonHermitianError):
        orb.assemble(h, [], space)
    with pytest.raises(orb.NonHermitianError):
        orb.unravel(h, [], space)


@pytest.mark.parametrize("start, t_max, dt", [
    ([math.nan, 1.0], 1.0, 0.25),
    ([0.0, 1.0], math.inf, 0.25),
    ([0.0, 1.0], math.nan, 0.25),
    ([0.0, 1.0], 1.0, math.inf),
    ([0.0, 1.0], 1.0, math.nan),
])
def test_both_engines_reject_a_non_finite_start(start, t_max, dt):
    # a NaN norm once sent run_trajectory's bisection into an endless loop
    unr, _, _, _ = decaying_cavity()
    psi0 = np.array(start, dtype=complex)
    with pytest.raises(ValueError, match="normalized|finite"):
        orb.run_trajectory(unr, psi0, t_max, dt, seed=1)
    # the grid [0, t] makes one step of t, non-finite where t_max or dt is
    with pytest.raises(ValueError, match="normalized|finite|uniform"):
        orb.ensemble_average(unr, psi0, np.array([0.0, t_max * dt]), 4, 1, ())


@pytest.mark.parametrize("jumps, message", [
    ((), "norm decayed but the unraveling has no jumps"),
    ((np.zeros((2, 2), complex),), "norm decayed with no open jump channel"),
])
def test_both_engines_report_step_size_underflow(jumps, message):
    # a decaying drift whose jumps cannot carry the lost norm
    space = orb.CompositeSpace((orb.Boson(1, "cavity"),))
    unr = orb.Unraveling(space, orb.number(1) - 0.5j * np.eye(2), jumps)
    psi0 = orb.basis_ket(space, [1])
    with pytest.raises(orb.StepSizeUnderflowError, match=message):
        orb.run_trajectory(unr, psi0, 4.0, 0.5, seed=1)
    with pytest.raises(orb.StepSizeUnderflowError, match=message):
        orb.ensemble_average(unr, psi0, np.linspace(0.0, 4.0, 9), 8, 1, ())


def _exact_column_statistics(samples):
    """Per operator and sample time, the mean and standard error from
    exactly rounded sums over the column's trajectories."""
    n = samples.shape[0]
    mean = np.empty(samples.shape[1:])
    stderr = np.empty_like(mean)
    for j, k in np.ndindex(mean.shape):
        column = samples[:, j, k].tolist()
        m = math.fsum(column) / n
        mean[j, k] = m
        stderr[j, k] = math.sqrt(math.fsum((x - m) * (x - m) for x in column) / (n - 1) / n)
    return mean, stderr


@pytest.mark.parametrize("ensemble", ["decay", "scenario c"])
def test_ensemble_statistics_are_exactly_rounded_per_column(ensemble):
    # the t = 0 column holds n_traj equal values; the later ones do not
    if ensemble == "decay":
        unr, space, _, _ = decaying_cavity()
        psi0, ops = orb.basis_ket(space, [1]), (orb.number(1),)
    else:
        unr, space, ops = _scenario_c()
        psi0 = orb.basis_ket(space, [d - 1 for d in space.dims])
    t_grid = np.linspace(0.0, 3.0, 7)
    samples = trajectories._ensemble_samples(unr, psi0, t_grid, 301, 13, ops)
    assert (samples[:, :, 0] == samples[0, :, 0]).all()
    assert (samples[:, :, 1:] != samples[:1, :, 1:]).any(axis=0).all()
    mean, stderr = _exact_column_statistics(samples)
    ens = orb.ensemble_average(unr, psi0, t_grid, 301, 13, ops)
    np.testing.assert_array_equal(ens.mean.view(np.uint64), mean.view(np.uint64))
    np.testing.assert_array_equal(ens.stderr.view(np.uint64), stderr.view(np.uint64))
    # exact sums do not depend on the trajectories' order
    np.testing.assert_array_equal(_exact_column_statistics(samples[::-1])[0], mean)


def _trajectory_command_problem(case):
    """The unraveling and observables that the trajectories command builds
    for one decay cutoff, or one (scenario, coupling, nbar, cutoff)."""
    if case[0] == "decay":
        cutoff = case[1]
        unr, _, _, _ = decaying_cavity(kappa=0.5, cutoff=cutoff)
        return unr, (orb.number(cutoff),)
    scenario, coupling, nbar, cutoff = case
    spec = orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.3, kappa=0.5, lam=0.5, gamma=0.125, nbar=nbar),
        cutoff=cutoff, coupling=orb.Coupling(coupling),
        parasitic=orb.scenario_parasitic(scenario))
    space = orb.build_space(spec)
    unr = orb.unravel(orb.build_hamiltonian(spec), orb.build_dissipators(spec), space)
    return unr, (orb.excitation_operator(space, "cavity"), orb.excitation_operator(space, "atom"))


def _signed_zero_states(d, seed):
    """A lone state (d,) and a block (9, d) of random states with +0.0 and
    -0.0 real and imaginary parts, and an all-zero row."""
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((9, d)) + 1j * rng.standard_normal((9, d))
    parts = block.view(np.float64)
    parts[rng.random(parts.shape) < 0.2] = 0.0
    parts[rng.random(parts.shape) < 0.2] = -0.0
    parts[4] = -0.0
    parts[4, ::3] = 0.0
    return block[0].copy(), block


def _assert_gemv_bits(got, want):
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


_COMMAND_CASES = [
    *(("decay", cutoff) for cutoff in (1, 2, 3, 4)),
    *((scenario, coupling, nbar, cutoff) for scenario in ("bare", "a", "b", "c", "d")
      for coupling in ("full", "rwa") for nbar in (0.0, 0.3) for cutoff in (1, 2)),
]


@pytest.mark.parametrize("case", _COMMAND_CASES)
def test_jump_weights_are_expectations_of_f_dagger_f(case):
    # channel k's weight ||F_k psi||^2 is <psi|F_k^+ F_k|psi>
    unr, _ = _trajectory_command_problem(case)
    acts = trajectories._Actions(unr, (), gather=True)
    _, block = _signed_zero_states(unr.h_eff.shape[0], seed=3)
    for f, jump in zip(unr.jumps, acts.jumps):
        law = np.vecdot(block, np.matmul(f.conj().T @ f, block[..., None])[..., 0]).real
        np.testing.assert_allclose(trajectories._norm_sq(jump(block)), law, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("case", _COMMAND_CASES)
def test_every_action_equals_gemv_bit_for_bit(case):
    # each product of the ensemble equals the reference's gemv, signed zeros
    # included, and has the kind that makes it fast: a fall-back to gemv fails
    unr, ops = _trajectory_command_problem(case)
    acts = trajectories._Actions(unr, ops, gather=True)
    w, v = la.eig(unr.h_eff)
    _, v_act, vinv_act = acts.prop._eig
    pairs = [(v, v_act), (la.inv(v), vinv_act), *zip(unr.jumps, acts.jumps), *zip(ops, acts.observe)]
    lone, block = _signed_zero_states(unr.h_eff.shape[0], seed=len(pairs))
    for a, act in pairs:
        for psi in (lone, block):
            _assert_gemv_bits(act(psi), np.matmul(a, psi[..., None])[..., 0])

    assert all(act.func is trajectories._gather for act in [*acts.jumps, *acts.observe])
    if case[0] == "decay":
        assert v_act is vinv_act is trajectories._identity
    elif case[0] == "c":
        assert v_act.func is vinv_act.func is trajectories._matvec
