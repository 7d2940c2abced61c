"""Generalized mutual-information measures, leakage, and capacity solvers."""

__version__ = "0.1.0"

from .capacity import (
    SolveResult,
    SolverConfig,
    brute_force_capacity,
    brute_force_search,
    convergence_trace,
    solve,
)
from .entropy import (
    EntropyPair,
    MiReport,
    arimoto_mi,
    arimoto_pair,
    conditional_entropy,
    entropy,
    fehr_berens_mi,
    fehr_berens_pair,
    hayashi_mi,
    hayashi_pair,
    mutual_information,
    shannon_mi,
    shannon_pair,
)
from .errors import (
    AllZero,
    BadAlpha,
    DimensionMismatch,
    Diverged,
    DomainError,
    GenmiError,
    MixedSign,
    NegativeMass,
    NonFinite,
    ParseError,
    TooLarge,
    UnsupportedSpec,
    ZeroDenominator,
)
from .leakage import (
    LeakageReport,
    bayes_value,
    evsi,
    evsi_scoring,
    matrix_prior_value,
    mevsi_matrix,
    mevsi_scoring,
)
from .scoring import (
    GainMatrix,
    ScoringRule,
    alpha_loss_rule,
    alpha_score_rule,
    expected_score,
    identity_gain,
    log_loss_rule,
    log_score_rule,
    loss_from_core,
    optimal_response,
    power_rule,
    pseudo_spherical_rule,
)
from .simplex import (
    Channel,
    Pmf,
    Posterior,
    alpha_tilt,
    make_channel,
    make_pmf,
    posterior,
    uniform,
)
from .variational import (
    FunctionalSpec,
    QFamily,
    arimoto_a1_spec,
    arimoto_a2_spec,
    eval_functional,
    fb_spec,
    generic_spec,
    hayashi_spec,
    p_step_closed,
    p_step_numeric,
    q_step,
    shannon_spec,
)
