"""Tabular distributional dynamic programming and learning built on one-step
Bellman operators and the categorical (Cramér) projection."""

from .distributions import (
    AtomicDistribution,
    CategoricalDistribution,
    DistributionCollection,
    categorical_means,
    categorical_w1,
    cramer_project,
    dirac,
    distribution_from_json,
    dominance_excess,
    mixture,
    project_points,
    pushforward_affine,
    stochastically_dominates,
    sup_wasserstein,
    wasserstein,
)
from .dp import (
    AtomBudgetExceeded,
    IterationTrace,
    OscillationReport,
    RangeConditionError,
    categorical_start,
    detect_oscillation,
    iterate,
    one_step_fixed_point_eval,
    one_step_fixed_point_opt,
    projected_fixed_points,
    scan_oscillation,
    solve_q_pi,
    solve_q_star,
    trace_atoms_to_csv,
)
from .learning import (
    ExplorationSchedule,
    LearnerState,
    LearningRecord,
    StepSizeSchedule,
    cdrl_step,
    os_cdrl_step,
    run_learning,
    target_microbenchmark,
    write_learning_csv,
)
from .mdp import (
    EpisodicEnv,
    Policy,
    TabularMdp,
    Transition,
    make_frozen_lake,
    make_toy_mdp,
    sample_step,
)
from .operators import (
    bellman_eval,
    bellman_opt,
    categorical_full_opt,
    categorical_full_opt_batch,
    categorical_os_eval,
    categorical_os_opt,
    distr_bellman_eval,
    distr_bellman_opt,
    greedy_policy,
    os_distr_eval,
    os_distr_opt,
    projected,
    random_atomic,
    random_collection,
    random_grid,
    random_mdp,
    random_policy,
    random_probs,
)

__version__ = "0.1.0"
