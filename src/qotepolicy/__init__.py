"""Partial-identification bounds on quantiles of treatment effects and the
minimax treatment rules they support: conditional-marginal estimation,
coupling linear programs, regret calculus, hinge-loss policy learning, and a
replication harness, behind one batch CLI."""

from .bounds import (
    AssumptionSet,
    CVaR,
    DeltaCdfBounds,
    DisadvantagedGain,
    LpSolveError,
    QoteBounds,
    bernstein_lp_bounds,
    coupling_lp_bounds,
    default_t_grid,
    functional_bounds,
    invert_bounds,
    makarov_bounds,
    qote_coupling_bounds,
    rank_invariance_qote,
)
from .marginals import (
    ConditionalCdf,
    QuantileCurve,
    Sample,
    curve_from_cdf,
    empirical_quantile,
    kernel_conditional_cdf,
    make_y_grid,
    read_sample_csv,
    u_grid,
)
from .owl import (
    DecisionFunction,
    LearnerError,
    TrainConfig,
    cells_from_bound_field,
    decision_function_from_json,
    predict_policy,
    surrogate_regret,
    train_owl,
)
from .policy import (
    BoundField,
    PolicyField,
    RegretBoundReport,
    RegretReport,
    TruthField,
    cell_max_regret,
    derive_policy,
    first_best,
    maximin_rule,
    max_regret,
    mmr_deterministic,
    mmr_stochastic,
    qbar,
    regret_bound_check,
    true_regret,
)
from .sim import (
    SUBGROUPS,
    DgpSpec,
    TruthSet,
    classification_experiment,
    closed_form_truths,
    draw_sample,
    exact_qote,
    regret_experiment,
    subgroup_interval_rows,
    truths_for,
    vote_share_check,
)

__version__ = "0.1.0"
