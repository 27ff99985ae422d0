"""``repro.eval`` — metrics, the method evaluator, the persistent results
store, experiment harness and table reporting."""

from .evaluator import (
    EvaluationResult,
    TaskOutcome,
    evaluate_method,
    evaluate_methods,
)
from .experiments import (
    ALL_METHOD_NAMES,
    CORE_METHOD_NAMES,
    PAPER_REFERENCE_F1,
    PROFILES,
    ExperimentProfile,
    build_methods,
    run_ablation,
    run_effectiveness,
    run_groundtruth_sweep,
    run_scalability,
)
from .metrics import Metrics, binary_metrics, community_metrics, mean_metrics
from .plots import bar_chart, line_chart
from .reporting import (
    format_generic_table,
    format_metric_table,
    format_time_table,
    highlight_best_f1,
)
from .significance import PairedComparison, compare_results, paired_bootstrap
from .store import (
    STORE_SCHEMA_VERSION,
    ResultsStore,
    RunRecord,
    run_provenance,
)

__all__ = [
    "Metrics",
    "binary_metrics",
    "community_metrics",
    "mean_metrics",
    "EvaluationResult",
    "TaskOutcome",
    "evaluate_method",
    "evaluate_methods",
    "ResultsStore",
    "RunRecord",
    "run_provenance",
    "STORE_SCHEMA_VERSION",
    "ExperimentProfile",
    "PROFILES",
    "build_methods",
    "ALL_METHOD_NAMES",
    "CORE_METHOD_NAMES",
    "run_effectiveness",
    "run_ablation",
    "run_scalability",
    "run_groundtruth_sweep",
    "PAPER_REFERENCE_F1",
    "format_metric_table",
    "format_time_table",
    "format_generic_table",
    "highlight_best_f1",
    "bar_chart",
    "line_chart",
    "PairedComparison",
    "paired_bootstrap",
    "compare_results",
]
