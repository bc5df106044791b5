"""Steady-state excitation of the lossy Rabi model beyond the rotating-wave
approximation: truncated-Fock-space Liouvillians, closed-form weak-coupling
references, quantum-jump trajectories, and reproducible parameter sweeps."""

from .hilbert import (
    Boson,
    CompositeSpace,
    DimensionError,
    Qubit,
    annihilation,
    basis_ket,
    embed,
    expectation,
    number,
    partial_trace,
    quadratures,
    qubit_ops,
)
from .liouville import (
    BilinearKernelParams,
    LindbladTerm,
    NegativeRateError,
    NonHermitianError,
    SuperOperator,
    Terms,
    assemble,
    bilinear_kernel_superop,
    check_positivity_condition,
    devectorize,
    dissipator_superop,
    hamiltonian_superop,
    vectorize,
)
from .models import (
    SCENARIOS,
    Coupling,
    ModelSpec,
    ParasiticAtom,
    ParasiticMode,
    RabiParams,
    build_dissipators,
    build_hamiltonian,
    build_liouvillian,
    build_liouvillians,
    build_space,
    excitation_operator,
    scenario_parasitic,
    total_excitation,
)
from .steady import (
    NoConvergenceError,
    NonUniqueSteadyStateError,
    SteadyStateResult,
    evolve,
    steady_state,
    steady_states,
)
from .analytic import (
    DegenerateKernelError,
    DegenerateParametersError,
    GeneralKernelResult,
    KernelDerived,
    OnePhotonIntermediates,
    OnePhotonResult,
    general_kernel_excitations,
    kernel_derived,
    one_photon_correlation,
    one_photon_excitations,
    one_photon_intermediates,
    thermal_distribution,
    thermal_state,
    vacuum_coefficients,
)
from .observables import (
    ObservableReport,
    PartitionError,
    mutual_information,
    photon_distribution,
    report,
    reports,
    von_neumann_entropy,
)
from .trajectories import (
    EnsembleResult,
    StepSizeUnderflowError,
    TrajectoryRecord,
    Unraveling,
    ensemble_average,
    recombine,
    run_trajectory,
    trajectory_seed,
    unravel,
)

__version__ = "0.1.0"
