"""Exact transition and total-crossing probabilities for multi-species
exclusion processes, with stochastic-simulation and matrix-exponential
oracles for validation."""

__version__ = "0.1.0"

from .core import (
    AccuracyError,
    BlockSignatureVector,
    ConfigurationError,
    ModelParams,
    ParticleConfig,
    ResourceLimitError,
    StrictSignature,
    ValidationError,
)
from .formulas import (
    CrossingQuery,
    GreenQuery,
    Result,
    WallQuery,
    block_crossing,
    cumulative_crossing_bernoulli,
    cumulative_crossing_one_wall,
    cumulative_crossing_step,
    eigenfunction_P,
    gamma_wall,
    r_asep_transition,
    rainbow_total_crossing,
    schutz_determinant,
    tasep_block_crossing,
    two_tasep_crossing,
    two_tasep_green,
)
from .oracle import (
    MonteCarloJob,
    WindowGenerator,
    build_window_generator,
    expm_transition,
    run_monte_carlo,
    simulate_sample,
    transition_row,
)
from .vertex import (
    G_mu_nu,
    discrete_transition,
    f_mu,
    sfF_lambda,
    stochastic_weights_check,
    xi_mu,
)
