import math

import numpy as np
import pytest

import openrabi as orb
from openrabi import hilbert, models
from openrabi.hilbert import SQRT2, herm_defect
from openrabi.models import _coefficients, _parts
from util import REFERENCE_RATES, assert_same_csr, reference_at, reference_terms

PARAMS = orb.RabiParams(omega=1.0, g=0.05, **REFERENCE_RATES)

ALL_SCENARIOS = ["bare", "a", "b", "c", "d"]


def spec_for(scenario, coupling=orb.Coupling.FULL, cutoff=1, params=PARAMS):
    return orb.ModelSpec(
        params=params,
        cutoff=cutoff,
        coupling=coupling,
        parasitic=orb.scenario_parasitic(scenario),
    )


def test_space_dimensions():
    assert orb.build_space(spec_for("bare", cutoff=2)).dim == 6
    assert orb.build_space(spec_for("a", cutoff=2)).dim == 18
    assert orb.build_space(spec_for("c", cutoff=2)).dim == 12


def test_decoupled_hamiltonian_is_diagonal():
    spec = spec_for("bare", params=orb.RabiParams(omega=0.8, g=0.0), cutoff=2)
    h = orb.build_hamiltonian(spec)
    space = orb.build_space(spec)
    expected = orb.excitation_operator(space, "cavity") + 0.8 * orb.excitation_operator(space, "atom")
    np.testing.assert_array_equal(h, expected)


def test_full_minus_rwa_is_the_pair_creating_part():
    # expand p*sigma_y by direct matrix multiplication; dropping the
    # excitation-conserving half must leave +(g/sqrt2)(a^+ s+ + a s-)
    g = 0.05
    spec_full = spec_for("bare", orb.Coupling.FULL)
    spec_rwa = spec_for("bare", orb.Coupling.RWA)
    space = orb.build_space(spec_full)
    a = orb.embed(orb.annihilation(1), space, 1)
    q = orb.qubit_ops()
    sm = orb.embed(q.sm, space, 0)
    sp_ = orb.embed(q.sp, space, 0)
    residual = orb.build_hamiltonian(spec_full) - orb.build_hamiltonian(spec_rwa)
    expected = (g / SQRT2) * (a.conj().T @ sp_ + a @ sm)
    np.testing.assert_allclose(residual, expected, atol=1e-15)


def test_parasitic_mode_coupling_scales_with_sqrt_frequency():
    spec = spec_for("a")  # spectator mode at frequency 2
    space = orb.build_space(spec)
    h = orb.build_hamiltonian(spec)
    bra = orb.basis_ket(space, [1, 0, 1])  # |e, 0_cav, 1_par>
    ket = orb.basis_ket(space, [0, 0, 0])  # |g, 0, 0>
    parasitic_elem = bra.conj() @ h @ ket
    bra_cav = orb.basis_ket(space, [1, 1, 0])
    cavity_elem = bra_cav.conj() @ h @ ket
    assert abs(parasitic_elem) == pytest.approx(np.sqrt(2.0) * 0.05 / SQRT2, rel=1e-14)
    assert abs(parasitic_elem / cavity_elem) == pytest.approx(np.sqrt(2.0), rel=1e-14)



def test_parasitic_atom_couples_through_the_cavity():
    spec = spec_for("c")  # spectator atom at frequency 0.2
    space = orb.build_space(spec)
    assert [s.label for s in space.subsystems] == ["atom", "parasitic_atom", "cavity"]
    h = orb.build_hamiltonian(spec)
    excited_t = orb.basis_ket(space, [0, 1, 0])  # |g, e_t, 0>
    assert (excited_t.conj() @ h @ excited_t).real == pytest.approx(0.2, rel=1e-14)
    ket = orb.basis_ket(space, [0, 0, 0])  # |g, g, 0>
    spectator_elem = orb.basis_ket(space, [0, 1, 1]).conj() @ h @ ket
    atom_elem = orb.basis_ket(space, [1, 0, 1]).conj() @ h @ ket
    assert abs(spectator_elem) == pytest.approx(0.05 / SQRT2, rel=1e-14)
    assert abs(spectator_elem) == pytest.approx(abs(atom_elem), rel=1e-14)

def test_dissipator_lists():
    space = orb.build_space(spec_for("bare"))
    terms = orb.build_dissipators(spec_for("bare"))
    assert [t.rate for t in terms] == [1e-6, 1e-6, 2.5e-7 / 2]
    a = orb.embed(orb.annihilation(1), space, 1)
    np.testing.assert_array_equal(terms[0].operator, a)

    warm = spec_for("bare", params=orb.RabiParams(1.0, 0.05, nbar=0.1, **REFERENCE_RATES))
    terms_warm = orb.build_dissipators(warm)
    assert len(terms_warm) == 5
    assert terms_warm[1].rate == pytest.approx(1e-6 * 0.1)
    np.testing.assert_array_equal(terms_warm[1].operator, a.conj().T)
    assert terms_warm[3].rate == pytest.approx(1e-6 * 0.1)

    terms_a = orb.build_dissipators(spec_for("a"))
    assert len(terms_a) == 4
    assert terms_a[-1].rate == pytest.approx(2.0 * 1e-6)  # nu_t * kappa at nu_t = 2

    terms_c = orb.build_dissipators(spec_for("c"))
    assert len(terms_c) == 5
    assert [t.rate for t in terms_c[-2:]] == [1e-6, 2.5e-7 / 2]


def test_parasitic_elements_damped_at_zero_temperature():
    warm = orb.RabiParams(1.0, 0.05, nbar=0.3, **REFERENCE_RATES)
    terms_mode = orb.build_dissipators(spec_for("a", params=warm))
    # true cavity and atom each get two thermal terms, spectator mode only one
    assert len(terms_mode) == 6
    terms_atom = orb.build_dissipators(spec_for("c", params=warm))
    assert len(terms_atom) == 7


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
@pytest.mark.parametrize("coupling", [orb.Coupling.FULL, orb.Coupling.RWA])
def test_hamiltonian_hermitian(scenario, coupling):
    h = orb.build_hamiltonian(spec_for(scenario, coupling, cutoff=2))
    assert herm_defect(h) <= 1e-14 * max(np.abs(h).max(), 1.0)


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_total_excitation_conservation(scenario):
    spec_rwa = spec_for(scenario, orb.Coupling.RWA, cutoff=2)
    space = orb.build_space(spec_rwa)
    n_tot = orb.total_excitation(space)
    h_rwa = orb.build_hamiltonian(spec_rwa)
    assert np.abs(n_tot @ h_rwa - h_rwa @ n_tot).max() <= 1e-14
    h_full = orb.build_hamiltonian(spec_for(scenario, orb.Coupling.FULL, cutoff=2))
    assert np.abs(n_tot @ h_full - h_full @ n_tot).max() > 1e-3


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_rwa_ground_vacuum_is_dark(scenario):
    spec = spec_for(scenario, orb.Coupling.RWA, cutoff=2)
    space = orb.build_space(spec)
    gen = orb.build_liouvillian(spec)
    ground = orb.basis_ket(space, [0] * len(space.dims))
    rho = np.outer(ground, ground.conj())
    assert np.abs(gen.matrix @ orb.vectorize(rho)).max() <= 1e-12


def test_parameter_validation():
    with pytest.raises(ValueError):
        orb.RabiParams(omega=1.0, g=0.05, kappa=-1e-6)
    with pytest.raises(ValueError):
        orb.RabiParams(omega=1.0, g=0.05, kappa=float("nan"))
    with pytest.raises(ValueError):
        orb.RabiParams(omega=float("inf"), g=0.05)
    with pytest.raises(ValueError):
        orb.ParasiticMode(nu=0.0)
    with pytest.raises(ValueError):
        orb.ModelSpec(params=PARAMS, cutoff=0)
    with pytest.raises(ValueError):
        orb.scenario_parasitic("z")
    # a wrong type would build another model: the RWA for 2, the bare model
    # for "a", a space of dimension 7.0 for 2.5
    for kwargs in (dict(cutoff=2, coupling="full"), dict(coupling=2),
                   dict(parasitic="a"), dict(parasitic=orb.RabiParams(1.0, 0.05)),
                   dict(cutoff=2.5), dict(cutoff=2.0), dict(cutoff=True), dict(cutoff="2")):
        with pytest.raises(TypeError):
            orb.ModelSpec(params=PARAMS, **kwargs)
    assert orb.build_space(orb.ModelSpec(PARAMS, np.int64(2))).dim == 6
    # a non-finite spectator frequency would build a non-finite Hamiltonian
    for spectator in (orb.ParasiticMode, orb.ParasiticAtom):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                spectator(value)


def _reference_liouvillian(spec):
    """The generator assembled term by term from the dense operators."""
    return orb.assemble(orb.build_hamiltonian(spec), orb.build_dissipators(spec),
                        orb.build_space(spec)).matrix


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
@pytest.mark.parametrize("coupling", [orb.Coupling.FULL, orb.Coupling.RWA])
def test_affine_build_matches_assembled_reference(scenario, coupling):
    params = [orb.RabiParams(0.9, g, kappa=1e-6, lam=2e-6, gamma=5e-7, nbar=nbar)
              for nbar in (0.0, 0.3) for g in (0.05, 0.0)]
    params.append(orb.RabiParams(0.9, 0.05))  # no rates at all
    for cutoff in (1, 2, 3):
        for p in params:
            spec = spec_for(scenario, coupling, cutoff, p)
            ref = _reference_liouvillian(spec)
            got = orb.build_liouvillian(spec).matrix
            assert got.shape == ref.shape
            # a few ulp of the largest entry, and no stored zeros
            assert abs(got - ref).max() <= 4 * np.finfo(float).eps * abs(ref).max()
            assert np.all(got.data != 0)


def test_interleaved_cutoffs_match_fresh_builds():
    # the sweeps alternate cutoffs 1, 2, 1, 2 over one structure each, and a
    # structure's points alternate nonzero masks: nbar = 0 drops the raising
    # jumps' entries, and omega = 1 without rates cancels -i[H, .] entries
    params = [orb.RabiParams(0.7, 0.05, **REFERENCE_RATES),
              orb.RabiParams(1.0, 0.05, nbar=0.3, **REFERENCE_RATES),
              orb.RabiParams(1.0, 0.05), orb.RabiParams(0.7, 0.05),
              orb.RabiParams(1.0, 0.05, **REFERENCE_RATES)]
    specs = [spec_for(s, cutoff=c, params=p) for s in ("bare", "c") for p in params
             for c in (1, 2)]
    _parts.cache_clear()
    cached = [orb.build_liouvillian(spec).matrix for spec in specs]
    for spec in specs:   # four masks per structure, met in turn
        assert len(_parts(spec.parasitic, spec.coupling, spec.cutoff)._patterns) == 4
    for spec, mat in zip(specs, cached):
        _parts.cache_clear()
        assert_same_csr(mat, orb.build_liouvillian(spec).matrix)


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
@pytest.mark.parametrize("coupling", [orb.Coupling.FULL, orb.Coupling.RWA])
def test_at_matches_the_part_by_part_sum(scenario, coupling):
    # omega = 1 cancels entries exactly, g = 0 and nbar = 0 zero whole parts
    params = [orb.RabiParams(omega, g, nbar=nbar, **REFERENCE_RATES)
              for omega in (0.7, 1.0) for g in (0.05, 0.0) for nbar in (0.0, 0.3)]
    params += [orb.RabiParams(omega, 0.05) for omega in (0.7, 1.0)]   # all rates zero
    for cutoff in (1, 2, 3):
        for p in params:
            spec = spec_for(scenario, coupling, cutoff, p)
            coefficients = _coefficients(spec)
            gen = _parts(spec.parasitic, spec.coupling, spec.cutoff)
            assert_same_csr(orb.build_liouvillian(spec).matrix, reference_at(gen, coefficients))


#: rates on and off, nbar 0 and 0.3, g 0.05 and 0: the points of the split's
#: reference test, at every scenario, coupling and cutoff 1-3
SPLIT_PARAMS = [orb.RabiParams(0.9, g, nbar=nbar, **rates)
                for rates in (dict(kappa=1e-6, lam=2e-6, gamma=5e-7), {})
                for nbar in (0.0, 0.3) for g in (0.05, 0.0)]


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
@pytest.mark.parametrize("coupling", [orb.Coupling.FULL, orb.Coupling.RWA])
def test_table_readers_match_the_per_point_model(scenario, coupling):
    # the same coefficients, space, Hamiltonian and jump operators, byte for
    # byte and signed zeros included, as the model rebuilt at every point
    for cutoff in (1, 2, 3):
        for p in SPLIT_PARAMS:
            spec = spec_for(scenario, coupling, cutoff, p)
            space, terms = reference_terms(spec)
            coefficients = tuple(c for _, c, _ in terms)
            assert _coefficients(spec) == coefficients
            assert np.array(_coefficients(spec)).tobytes() == np.array(coefficients).tobytes()
            assert orb.build_space(spec) == space
            h = sum(c * op for d, c, op in terms if not d)
            assert orb.build_hamiltonian(spec).tobytes() == h.tobytes()
            jumps = [(op, c) for d, c, op in terms if d and c > 0]
            got = orb.build_dissipators(spec)
            assert [t.rate for t in got] == [c for _, c in jumps]
            for term, (op, _) in zip(got, jumps, strict=True):
                assert term.operator.tobytes() == op.tobytes()


def test_warm_build_reads_only_coefficients(monkeypatch):
    # a point of a structure already built makes no space, subsystem or
    # embedded operator: it reads its coefficients off the table
    calls = []

    def count(owner, name):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _f=original, **k: calls.append(name)
                            or _f(*a, **k))

    _parts.cache_clear()
    for cls in (hilbert.CompositeSpace, hilbert.Boson, hilbert.Qubit):
        count(cls, "__init__")
    for module in (hilbert, models):
        count(module, "embed")
    spec = spec_for("c", cutoff=2)
    orb.build_liouvillian(spec)
    assert {"__init__", "embed"} <= set(calls)   # the cold build is counted
    calls.clear()
    warm = spec_for("c", cutoff=2, params=orb.RabiParams(0.7, 0.03, nbar=0.3, **REFERENCE_RATES))
    got = orb.build_liouvillian(warm).matrix
    assert calls == []
    monkeypatch.undo()
    assert_same_csr(got, reference_at(_parts(warm.parasitic, warm.coupling, warm.cutoff),
                                      _coefficients(warm)))
