"""Gradual semantics and strength change explanations for quantitative
bipolar argumentation graphs."""

from .errors import (
    BudgetError,
    CyclicGraphError,
    DomainError,
    GraphFormatError,
    InvalidChangeError,
    QbagError,
    UndefinedStrengthError,
    UnknownArgumentError,
)
from .explanation import (
    EMPTY_CHANGE,
    DesiredOrdering,
    ExplanationQuery,
    StrengthChange,
    amount_of_change,
    apply_change,
    change_from_json,
    induced_ordering,
    is_epsilon_approximate,
    is_explanation,
    ordering_from_json,
    ordering_from_spec,
    ordering_from_tiers,
    ordering_to_spec,
    satisfies,
    validate_change,
)
from .generators import (
    GeneratedInstance,
    GenSpec,
    LayerStructure,
    generate,
    generate_batch,
    generate_constrained,
    generate_random,
    mutable_preset,
    structure,
)
from .graph import (
    QBAG,
    can_reach,
    make_qbag,
    parse_qbag,
    restrict,
    serialize_qbag,
    topological_levels,
    topological_order,
)
from .metrics import (
    ExperimentConfig,
    ExperimentRecord,
    experiment_config_from_json,
    kendall_tau,
    run_experiment,
    spearman_rho,
)
from .oracle import GridSpec, OracleResult, brute_force_search, certify_epsilon
from .reductions import (
    CounterfactualProblem,
    InverseProblem,
    assign_uniform,
    inverse_problem_from_json,
    make_inverse_problem,
    reduce_counterfactual,
    solve_counterfactual,
    solve_inverse,
)
from .search import (
    AdamState,
    SearchConfig,
    SearchOutcome,
    adam_step,
    finite_diff_gradient,
    heuristic_search,
    relu_cost,
    search_config_from_json,
)
from .semantics import (
    ALL_REALS,
    DFQUAD,
    EULER_BASED,
    NAIVE,
    QUADRATIC_ENERGY,
    UNIT_INTERVAL,
    Influence,
    SemanticsSpec,
    StrengthDomain,
    aggregate,
    builtin_semantics,
    check_principle,
    final_strengths,
    influence_value,
    semantics_from_config,
    semantics_from_json,
)

__version__ = "0.1.0"
