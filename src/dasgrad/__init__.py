"""Double adaptive stochastic gradient optimization.

A numpy library implementing one stepping engine for the SGD / ap-SGD /
ADAGrad / RMSProp / Adam / AMSGrad / DASGrad family, an adaptive
importance-sampling engine that draws from running sums, expected-regret
instrumentation, and a reproducible desk-scale experiment harness.
"""

from .problems import (
    BINARY_LOGISTIC,
    CENTROID,
    KINDS,
    MULTICLASS_LOGISTIC,
    Problem,
    example_gradient,
    example_loss,
    finite_difference_check,
    full_gradient,
    full_objective,
    objective_and_gradient,
)
from .sampling import (
    SamplingTree,
    expected_weighted_second_moment,
    importance_weight,
    normalize_scores,
    scores_apsgd,
    scores_dasgrad,
    target_weight,
)
from .optimizers import (
    DivergenceError,
    METHODS,
    MomentState,
    OptimizerConfig,
    RunResult,
    SettingError,
    draw_batch,
    moment_update,
    refresh_probabilities,
    run,
    step_general,
)
from .metrics import (
    AggregateTrace,
    ReferenceSolution,
    accuracy,
    aggregate_runs,
    solve_reference,
    tick,
)
from .datasets import (
    Dataset,
    box_muller,
    load_dense_csv,
    load_sparse,
    make_problem,
    synth_centroid,
    synth_classification,
    unbalance,
)
from .harness import (
    ExperimentConfig,
    ExperimentResults,
    ProblemSpec,
    convex_preset,
    load_config,
    matching_datasets,
    matching_experiment,
    parse_config_text,
    run_experiment,
    self_check,
    sweep_variance,
)

__version__ = "0.1.0"
