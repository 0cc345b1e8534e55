"""Pseudospectral toolkit for the compressible Navier-Stokes-Korteweg system
at a critical pressure state: exact Fourier-multiplier linear semigroup,
Lp-Lq decay-rate verification, and a small-data nonlinear solver."""

from ._version import __version__

from .analysis import (
    DecayMeasurement,
    DecayReport,
    NormSeries,
    aggregate_N,
    edge_leakage,
    fit_decay,
    lp_norm,
    lp_time_norm,
    mass_radius,
    measure_semigroup_decay,
    predicted_decay_exponent,
    theta_low_band_series,
    weighted_sup,
)
from .errors import (
    ConstraintViolation,
    CriticalityViolation,
    EmptyLowBand,
    GridMismatch,
    MissingConstituent,
    NonPositiveSeries,
    NsklabError,
    NumericsWarning,
    ParseError,
    RangeViolation,
    StepRejected,
    ValidationError,
    ValidityExceeded,
    WindowUncovered,
)
from .fields import (
    curl_mixture_momentum_state,
    enveloped_random_tensor,
    gaussian_bump,
    nonlinear_initial_state,
    riesz_kernel_hat,
    riesz_momentum_pair,
    scale_mixture_hat,
    transverse_packet,
)
from .model import (
    FluidParams,
    Grid,
    PressureLaw,
    SpectralState,
    State,
    critical_quadratic,
    make_params,
)
from .nonlinear import (
    Etd2Stepper,
    NonlinearScenario,
    RunResult,
    StepState,
    nonlinearity_g_hat,
    pressure_remainder,
    run,
)
from .runner import ScenarioOutcome, run_scenario, run_sweep
from .scenario import (
    NonlinearExponentsBlock,
    NonlinearInitBlock,
    ScenarioConfig,
    parse_config,
    parse_sweep_config,
    serialize_config,
)
from .spectral import (
    CutoffSpec,
    SemigroupOrbit,
    apply_semigroup,
    conjugate_symmetry_defect,
    dealias_mask,
    default_cutoff,
    divergence_form_momentum,
    frequency_split,
    low_band_mode_count,
    set_fft_workers,
    to_real,
    to_spectral,
)
from .symbols import (
    Discriminant,
    Regime,
    discriminant,
    eigenvalues,
    generator_matrix,
    matexp_oracle,
    matexp_oracle_ode,
    phi_multiplier_tables,
    propagator_kernels,
    solution_symbol,
)

