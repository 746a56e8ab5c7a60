"""horolab: numerical experiments on horocycle equidistribution.

Fractal measures with exact Fourier transforms, fundamental-domain
geometry, Eisenstein-series diagnostics, Khintchine-type counting, and
stationary-phase asymptotics, glued into reproducible decay experiments.
"""

from .fitting import DecayReport, fit_decay_report, geometric_grid
from .measures import (
    Convolution,
    DiracMass,
    DimensionEstimate,
    FractalMeasure,
    LebesgueUnit,
    b_of_s,
    cvy_bound_for_measure,
    cvy_lower_bound,
    estimate_dim_l1,
    fourier_transform,
    l1_partial_sum,
    parse_measure,
    sample,
    symbol_g,
)
from .modular import (
    HorocycleConfig,
    mX_integral,
    mu_y_value,
    reduce_many,
)
from .automorphic import (
    EisensteinParams,
    TwistedSumSpec,
    bessel_K_imag,
    constant_term,
    horocycle_fourier_coeff,
    spectral_gap_fit,
    truncation_tail_mass,
    zeta_1line,
)
from .diophantine import (
    ApproximationFunction,
    khintchine_profile,
    khintchine_sum,
    parse_psi,
)
from .oscillatory import (
    PhasePolynomial,
    RaisedCosineWindow,
    SmoothBumpWindow,
    exponent_fit_oscillatory,
    find_stationary_points,
    oscillatory_integral,
    oscillatory_integrals,
    parse_phase,
    parse_window,
    stationary_phase_leading,
)
from .testfunctions import (
    BumpTest,
    ConstantTest,
    EisensteinTest,
    IndicatorTest,
    parse_test_function,
)
from .experiments import (
    BasisCheckReport,
    ExperimentConfig,
    run_basis_identity_check,
    run_equidistribution,
)

__version__ = "0.1.0"
