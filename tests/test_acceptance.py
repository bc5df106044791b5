"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Quantitative anchors come from an independent arbitrary-precision
re-evaluation of the closed forms, transcribed here from scratch (mpmath at
60 digits, no calls into the package's analytic internals); the rest are
property and qualitative checks at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import csv

import mpmath as mp
import numpy as np
import pytest

import openrabi as orb
from util import REFERENCE_RATES, cavity_only_generator, steady_means, trace_distance


def check(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# --- independent high-precision oracle (transcribed, not imported) -----------

def oracle_one_photon(omega, g, kappa, lam, gamma):
    with mp.workdps(60):
        omega, g, kappa, lam, gamma = map(mp.mpf, (omega, g, kappa, lam, gamma))
        delta = omega - 1
        width = gamma + (kappa + lam) / 2
        big_g = g**2 * width
        s = delta**2 + width**2
        alpha = s + 2 * omega
        beta = alpha**2 - 4 * omega**2
        t = 2 * big_g * (alpha * (kappa + lam) + 2 * big_g) + lam * kappa * beta
        n1 = (big_g / t) * (2 * big_g + lam * s)
        e1 = (big_g / t) * (2 * big_g + kappa * s)
        return float(n1), float(e1)


def oracle_general_kernel(omega, g, kappa, dx, dp, dz):
    with mp.workdps(60):
        omega, g, kappa, dx, dp, dz = map(mp.mpf, (omega, g, kappa, dx, dp, dz))
        nu_p, nu_m = 1 + 2 * dz, 1 - 2 * dz
        phi = 1 / (omega**2 + 4 * dx**2 + nu_p * nu_m * dx / dp)
        dxp = dx + dp
        den = dxp + 2 * g**2 * dx * phi
        n1 = (1 - kappa / 2 / den) / 2
        e1 = (1 - kappa / 2 * omega * phi * nu_p * (dxp / dp) / den) / 2
        return float(n1), float(e1)


def bare_spec(omega=1.0, g=0.05, cutoff=1, coupling=orb.Coupling.FULL, **rates):
    rates = rates or dict(REFERENCE_RATES)
    return orb.ModelSpec(
        params=orb.RabiParams(omega=omega, g=g, **rates), cutoff=cutoff, coupling=coupling
    )


def scenario_spec(name, omega=1.0, cutoff=2, coupling=orb.Coupling.FULL, **rates):
    rates = rates or dict(REFERENCE_RATES)
    return orb.ModelSpec(
        params=orb.RabiParams(omega=omega, g=0.05, **rates),
        cutoff=cutoff,
        coupling=coupling,
        parasitic=orb.scenario_parasitic(name),
    )


QUOTED = {1.0: 7.80e-4, 0.7: 1.079e-3, 1.3: 5.90e-4}


def test_criterion_01_closed_form_anchor():
    worst = 0.0
    for omega, quoted in QUOTED.items():
        res = orb.one_photon_excitations(orb.RabiParams(omega=omega, g=0.05, **REFERENCE_RATES))
        n_ref, e_ref = oracle_one_photon(omega, 0.05, 1e-6, 1e-6, 2.5e-7)
        assert res.n_mean == pytest.approx(n_ref, rel=1e-12)
        assert res.e_mean == pytest.approx(e_ref, rel=1e-12)
        worst = max(worst, abs(res.n_mean - quoted), abs(res.e_mean - quoted))
    check(
        "criterion 1 (closed-form anchor, three frequencies)",
        worst <= 1e-6,
        f"max |value - quoted| = {worst:.2e} <= 1e-6",
    )


def test_criterion_02_oracle_cross_identity():
    kappa = 1e-6
    sme = orb.BilinearKernelParams(mu=0.0, kappa=kappa, dx=kappa / 4, dp=kappa / 4, dz=0.0)
    kern = orb.general_kernel_excitations(1.0, 0.05, sme)
    direct = orb.one_photon_excitations(orb.RabiParams(omega=1.0, g=0.05, kappa=kappa))
    rel_n = abs(kern.n_mean - direct.n_mean) / direct.n_mean
    rel_e = abs(kern.e_mean - direct.e_mean) / direct.e_mean
    n_ref, e_ref = oracle_general_kernel(1.0, 0.05, kappa, kappa / 4, kappa / 4, 0.0)
    assert kern.n_mean == pytest.approx(n_ref, rel=1e-12)
    assert kern.e_mean == pytest.approx(e_ref, rel=1e-12)
    ok = rel_n <= 1e-10 and rel_e <= 1e-10 and abs(kern.n_mean - 6.2422e-4) <= 1e-8
    check(
        "criterion 2 (general-kernel vs direct closed form)",
        ok,
        f"rel diff n = {rel_n:.2e}, e = {rel_e:.2e}, value = {kern.n_mean:.6e}",
    )


def test_criterion_03_numeric_vs_analytic():
    worst = 0.0
    for omega in QUOTED:
        n, e, _ = steady_means(bare_spec(omega=omega, cutoff=1))
        ref = orb.one_photon_excitations(orb.RabiParams(omega=omega, g=0.05, **REFERENCE_RATES))
        worst = max(worst, abs(n / ref.n_mean - 1), abs(e / ref.e_mean - 1))
    check(
        "criterion 3 (cutoff-1 steady state vs closed form)",
        worst <= 0.02,
        f"max relative deviation = {worst:.2e} <= 2e-2",
    )


def test_criterion_04_coupling_form_contrast():
    worst_rwa = 0.0
    min_full = np.inf
    for name in orb.SCENARIOS:
        n, e, _ = steady_means(scenario_spec(name, coupling=orb.Coupling.RWA))
        worst_rwa = max(worst_rwa, abs(n), abs(e))
        n, e, _ = steady_means(scenario_spec(name, coupling=orb.Coupling.FULL))
        min_full = min(min_full, n, e)
    check(
        "criterion 4 (excitations vanish without the pair-creating term)",
        worst_rwa < 1e-12 and min_full > 0,
        f"max RWA excitation = {worst_rwa:.2e}, min full-coupling excitation = {min_full:.2e}",
    )


def test_criterion_05_kernel_equivalence():
    worst = 0.0
    for nbar in (0.0, 0.5):
        for kappa in (1e-6, 1.0):
            coeff = kappa * (1 + 2 * nbar) / 4
            kern = orb.bilinear_kernel_superop(
                orb.BilinearKernelParams(mu=0.0, kappa=kappa, dx=coeff, dp=coeff, dz=0.0),
                cutoff=5,
            )
            sme, _ = cavity_only_generator(5, kappa, nbar)
            worst = max(worst, np.abs((kern.matrix - sme.matrix).toarray()).max())
    check(
        "criterion 5 (bilinear kernel equals damped cavity entrywise)",
        worst <= 1e-12,
        f"max entry difference = {worst:.2e} <= 1e-12 (cutoff 5, nbar in {{0, 0.5}})",
    )


def test_criterion_06_vacuum_uniqueness():
    kappa = 1e-6
    mus = (0.0, kappa / 4, -kappa / 4, kappa / 2, -kappa / 2, kappa, -kappa)
    checks = {c.mu: c for c in orb.vacuum_coefficients(kappa, mus)}
    ok = checks[0.0].admissible and checks[0.0].margin == 0.0
    ok = ok and all(not checks[mu].admissible for mu in mus if mu != 0.0)
    check(
        "criterion 6 (vacuum-preserving kernel unique at zero drift)",
        ok,
        "margin 0 at mu=0; all sampled mu != 0 rejected",
    )


def test_criterion_07_order_of_magnitude():
    n, e, _ = steady_means(bare_spec(cutoff=2))
    total = n + e
    check(
        "criterion 7 (total excitation order of magnitude)",
        2e-4 <= total <= 2e-2,
        f"<n> + <E> = {total:.3e} in [2e-4, 2e-2]",
    )


def test_criterion_08_quadratic_scaling():
    n_small, _, _ = steady_means(bare_spec(g=0.01, cutoff=2))
    n_large, _, _ = steady_means(bare_spec(g=0.02, cutoff=2))
    ratio = n_large / n_small
    check(
        "criterion 8 (weak-coupling quadratic scaling)",
        3.8 <= ratio <= 4.2,
        f"<n>(g=0.02)/<n>(g=0.01) = {ratio:.4f} in [3.8, 4.2]",
    )


def test_criterion_09_qualitative_caption_claims(tmp_path):
    from openrabi.cli import main

    # (i) monotone growth with dephasing
    gamma_csv = tmp_path / "gamma.csv"
    assert main(["sweep-gamma", "--cutoffs", "2", "--gamma-grid", "0,2.5e-7,1e-6,4e-6",
                 "--out", str(gamma_csv)]) == 0
    with open(gamma_csv, newline="") as fh:
        gammas = [float(r["n_mean"]) for r in csv.DictReader(fh)]
    monotone = all(b > a for a, b in zip(gammas, gammas[1:]))

    # (ii) decay away from resonance
    omega_csv = tmp_path / "omega.csv"
    assert main(["sweep-omega", "--cutoffs", "2", "--omega-grid", "0.7,1.0,1.3",
                 "--out", str(omega_csv)]) == 0
    with open(omega_csv, newline="") as fh:
        omegas = [float(r["n_mean"]) for r in csv.DictReader(fh)]
    decreasing = omegas[0] > omegas[1] > omegas[2]

    # (iii) every spectator scenario beats the bare cavity population
    n_bare, _, _ = steady_means(scenario_spec("bare"))
    beats = all(steady_means(scenario_spec(s))[0] > n_bare for s in "abcd")

    # (iv) positive atom-field correlation, lowered by spectators
    def i_af(name):
        spec = scenario_spec(name)
        rho = orb.steady_state(orb.build_liouvillian(spec)).rho
        return orb.mutual_information(rho, orb.build_space(spec), ["atom"], ["cavity"])

    i_bare = i_af("bare")
    correlated = i_bare > 0 and all(0 < i_af(s) < i_bare for s in ("a", "c"))

    # (v) steady distribution non-geometric, thermal reference geometric
    dist_csv = tmp_path / "dist.csv"
    assert main(["distribution", "--kappas", "1e-6", "--omegas", "1.0",
                 "--out", str(dist_csv)]) == 0
    with open(dist_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    steady = [float(r["p_n_steady"]) for r in rows]
    thermal = [float(r["p_n_thermal"]) for r in rows]
    geometric = abs(thermal[1] / thermal[0] - thermal[2] / thermal[1]) <= 1e-9 * thermal[1] / thermal[0]
    non_geometric = (steady[2] / steady[1]) / (steady[1] / steady[0]) > 2.0

    ok = monotone and decreasing and beats and correlated and geometric and non_geometric
    check(
        "criterion 9 (qualitative caption claims i-v)",
        ok,
        f"monotone={monotone}, decreasing={decreasing}, spectators_exceed_bare={beats}, "
        f"correlation_lowered={correlated}, thermal_geometric={geometric}, "
        f"steady_non_geometric={non_geometric}",
    )


def test_criterion_10_solver_hygiene():
    hygiene_ok = True
    detail = []
    for spec in (bare_spec(cutoff=2), scenario_spec("a"), scenario_spec("d", omega=0.8)):
        result = orb.steady_state(orb.build_liouvillian(spec))
        trace_dev = abs(np.trace(result.rho).real - 1.0)
        min_eig = float(np.linalg.eigvalsh(result.rho).min())
        hygiene_ok &= trace_dev <= 1e-10 and min_eig >= -1e-10 and result.residual <= 1e-10
        detail.append(f"res={result.residual:.1e}")

    # cross-check the solver against exact evolution to t = 20/kappa
    kappa = 0.1
    spec = orb.ModelSpec(
        params=orb.RabiParams(omega=1.0, g=0.05, kappa=kappa, lam=0.1, gamma=0.025), cutoff=1
    )
    gen = orb.build_liouvillian(spec)
    steady = orb.steady_state(gen).rho
    ground = orb.basis_ket(orb.build_space(spec), [0, 0])
    evolved = orb.evolve(gen, np.outer(ground, ground.conj()), 20.0 / kappa)
    dist = trace_distance(evolved, steady)
    check(
        "criterion 10 (solver hygiene and evolution cross-check)",
        hygiene_ok and dist < 1e-6,
        f"{', '.join(detail)}; trace distance at t=20/kappa = {dist:.2e} < 1e-6",
    )


def test_criterion_11_trajectory_validation():
    kappa = 1.0
    space = orb.CompositeSpace((orb.Boson(1, "cavity"),))
    h = orb.number(1)
    terms = [orb.LindbladTerm(orb.annihilation(1), kappa)]
    unr = orb.unravel(h, terms, space)

    rebuilt = orb.recombine(unr)
    direct = orb.assemble(h, terms, space)
    recombination = np.abs((rebuilt.matrix - direct.matrix).toarray()).max()

    t_grid = np.linspace(0.0, 4.0, 17)
    ens = orb.ensemble_average(
        unr, orb.basis_ket(space, [1]), t_grid, n_traj=10_000, base_seed=2024,
        operators=(orb.number(1),),
    )
    exact = np.exp(-kappa * t_grid)
    sigmas = np.max(
        np.abs(ens.mean[0] - exact) / np.maximum(3 * ens.stderr[0], 1e-12)
    )
    check(
        "criterion 11 (trajectory ensemble vs decay law)",
        recombination <= 1e-12 and sigmas <= 1.0,
        f"recombination defect = {recombination:.2e}; worst |mean-exact| = "
        f"{sigmas:.2f} x (3 standard errors) at 10^4 trajectories",
    )


def test_criterion_12_damping_map(tmp_path):
    from openrabi.cli import main

    out = tmp_path / "map.csv"
    grid = "-7,-6.5,-6,-5.5,-5"
    assert main(["damping-map", f"--log-kappa-grid={grid}", f"--log-lambda-grid={grid}",
                 "--omegas", "0.7,1.0", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    values = {}
    for row in rows:
        key = float(row["omega"])
        values.setdefault(key, {})[(float(row["log10_kappa"]), float(row["log10_lambda"]))] = (
            10.0 ** float(row["log10_total_excitation"])
        )
    resonant = values[1.0]
    ratio = max(resonant.values()) / min(resonant.values())

    detuned = values[0.7]
    (k_min, l_min) = min(detuned, key=detuned.get)
    steps_off_diagonal = abs(k_min - l_min) / 0.5
    check(
        "criterion 12 (damping-rate map structure)",
        ratio < 3.0 and steps_off_diagonal <= 1.0,
        f"resonant max/min = {ratio:.2f} < 3; detuned minimum {steps_off_diagonal:.0f} "
        f"grid step(s) from the kappa = lambda diagonal",
    )
