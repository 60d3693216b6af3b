"""Graphon estimation from unaligned graph populations via Gromov-Wasserstein
barycenters: sampling, transport solvers, plain/smoothed/mixture estimators,
evaluation metrics, baselines, and deterministic file formats."""

from .barycenter import (barycenter_update, estimate_barycenter_measure,
                         estimate_gwb, select_partition_count)
from .core import (DomainError, GraphonError, NumericError, ObservedGraph,
                   ParseError, RangeError, SolverConfig, StepFunction,
                   TransportPlan, ValidationError)
from .evaluation import (clustering_accuracy, gw_error, mse_error,
                         naive_average_estimate, scoring_config,
                         upsample_step_function, usvt_estimate)
from .fileio import (RESULT_COLUMNS, ResultRow, append_result_row,
                     read_edge_list, read_step_function, read_tu_dataset,
                     write_edge_list, write_heatmap, write_results_csv,
                     write_step_function)
from .graphons import (EASY_FAMILIES, FAMILY_NAMES, GRID_FAMILY,
                       HARD_FAMILIES, GraphonSpec, discretize_graphon,
                       evaluate_graphon)
from .gw import GwResult, entropic_ot, gw_cost_offset, proximal_gw
from .mixture import MixtureModel, assign_clusters, estimate_mixture
from .oracle import gw_distance_exact_small
from .sampling import (derive_graph_seed, estimate_node_measure, sample_graph,
                       sample_population)
from .smoothed import (SmoothedSolveMode, build_laplacian_filter,
                       estimate_sgwb, smoothed_barycenter_update)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "EASY_FAMILIES",
    "FAMILY_NAMES",
    "GRID_FAMILY",
    "GraphonError",
    "GraphonSpec",
    "GwResult",
    "HARD_FAMILIES",
    "MixtureModel",
    "NumericError",
    "ObservedGraph",
    "ParseError",
    "RESULT_COLUMNS",
    "RangeError",
    "ResultRow",
    "SmoothedSolveMode",
    "SolverConfig",
    "StepFunction",
    "TransportPlan",
    "ValidationError",
    "append_result_row",
    "assign_clusters",
    "barycenter_update",
    "build_laplacian_filter",
    "clustering_accuracy",
    "derive_graph_seed",
    "discretize_graphon",
    "entropic_ot",
    "estimate_barycenter_measure",
    "estimate_gwb",
    "estimate_mixture",
    "estimate_node_measure",
    "estimate_sgwb",
    "evaluate_graphon",
    "gw_cost_offset",
    "gw_distance_exact_small",
    "gw_error",
    "mse_error",
    "naive_average_estimate",
    "proximal_gw",
    "read_edge_list",
    "read_step_function",
    "read_tu_dataset",
    "sample_graph",
    "sample_population",
    "scoring_config",
    "select_partition_count",
    "smoothed_barycenter_update",
    "upsample_step_function",
    "usvt_estimate",
    "write_edge_list",
    "write_heatmap",
    "write_results_csv",
    "write_step_function",
]
