"""Spectral calculus, dispersive propagators, and an experiment harness on periodic lattices."""

__version__ = "0.1.0"

from .errors import ConfigurationError, DivergenceError, WindowError
from .lattice import (
    CZDecomposition,
    DyadicCube,
    GridFunction,
    Lattice,
    boundary_mass_fraction,
    convolve,
    cz_decompose,
    dyadic_average,
    dyadic_maximal,
    gaussian,
    inner_product,
    lp_norm,
    plane_wave,
    point_mass,
    weak_lp_norm,
)
from .spectral import (
    BumpProfile,
    SpectralFunction,
    apply_multiplier,
    band_projection,
    band_scales,
    bessel_derivative,
    discrete_laplacian,
    forward_difference,
    forward_transform,
    fractional_derivative,
    inverse_transform,
    laplacian_power,
    sobolev_norm,
)
from .propagators import (
    PhaseSpec,
    degenerate_points,
    schrodinger_flow,
)
from .harness import (
    AdmissiblePair,
    DecayFit,
    KnappReport,
    ScanResult,
    admissible_pairs,
    dispersive_decay_scan,
    inequality_constant_scan,
    knapp_experiment,
    strichartz_norm,
    uniformity_scan,
)
from .dnls import (
    NlsConfig,
    Trajectory,
    energy,
    evolve,
    mass,
    nonlinear_phase_flow,
    s1_norm,
    step_strang,
    uniform_bound_experiment,
)
