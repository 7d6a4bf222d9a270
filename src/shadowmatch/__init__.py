"""One-pass weighted matching with shadow-edge reinsertion.

The package bundles the streaming matcher itself, the (1 + gamma)
replacement baseline as the same step with parking off, an exact
oracle, an exact rational verifier for the matcher's insertion
certificates, the worst-case ratio bound, and a seeded experiment
harness with a CLI.
"""

from .baseline import (GAMMA_RATIO_5_828, GAMMA_RATIO_SIX, BaselineMatcher,
                       run_baseline)
from .bound import approx_bound, optimal_k, ratio_table
from .generators import GeneratorSpec, WeightSpec, generate, stream_orders
from .graph import (DenseGraph, DuplicateEdgeError, Edge, EdgeStream,
                    StreamFormatError, edge, format_edge, is_matching,
                    open_stream, parse_edge_line, write_stream)
from .harness import (AlgorithmSpec, RunReport, aggregate, default_algorithms,
                      default_corpus, emit_report, read_reports_json,
                      run_experiment)
from .oracle import OptimalResult, OracleCapacityError, max_weight_matching
from .shadow import (InsertionDecision, Neighborhood, RunMetrics, RunResult,
                     ShadowMatcher, TraceEvent, enumerate_augmenting_sets,
                     read_trace, run_stream, trace_header, trace_line,
                     trace_to_dict)
from .verify import check_locally_k_exceeding

__version__ = "0.1.0"

__all__ = [
    "AlgorithmSpec", "BaselineMatcher", "DenseGraph",
    "DuplicateEdgeError", "Edge", "EdgeStream", "GAMMA_RATIO_5_828",
    "GAMMA_RATIO_SIX", "GeneratorSpec", "InsertionDecision", "Neighborhood",
    "OptimalResult", "OracleCapacityError", "RunMetrics", "RunReport",
    "RunResult", "ShadowMatcher", "StreamFormatError",
    "TraceEvent", "WeightSpec", "aggregate", "approx_bound",
    "check_locally_k_exceeding", "default_algorithms", "default_corpus",
    "edge", "emit_report", "enumerate_augmenting_sets", "format_edge",
    "generate", "is_matching", "max_weight_matching", "open_stream",
    "optimal_k", "parse_edge_line", "ratio_table", "read_reports_json",
    "read_trace", "run_baseline", "run_experiment", "run_stream",
    "stream_orders", "trace_header", "trace_line", "trace_to_dict",
    "write_stream",
]
