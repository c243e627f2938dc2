"""Exact and asymptotic enumeration of 2-covers and labelled line graphs.

A 2-cover of [n] is a multiset of nonempty subsets in which every element
lies in exactly two blocks.  The package computes the plain, proper,
restricted, and restricted-proper cover counts together with labelled
line-graph counts, verifies them against a brute-force oracle built on set
partitions of [2n], compares them to their asymptotic growth estimates,
and estimates the underlying partition statistics by exact uniform
sampling.
"""

from .asymptotics import (
    AsymptoticReport,
    ReportRow,
    TrendCheck,
    asymptotic_report,
    image_collision_bound,
    lambert_w,
    log_bell_asymptotic,
    log_cover_estimate,
    log_integer,
    log_restricted_estimate,
    log_saddle_estimate,
    merged_twin_moment,
    ratio_trends,
    report_grid,
    saddle_block_count,
    separation_probability,
    separation_ratio,
)
from .combinatorics import (
    DEFAULT_BELL_CAP,
    bell,
    stirling2,
)
from .errors import ConsistencyError
from .oracle import (
    DEFAULT_ORACLE_LIMIT,
    FiberCheck,
    OracleCensus,
    PartitionClassification,
    SetPartition,
    TwoCover,
    classify_partition,
    enumerate_partitions,
    fiber_check,
    image_collision_count,
    merged_twin_count,
    oracle_counts,
    oracle_line_class_count,
    oracle_line_count,
)
from .sampler import (
    Estimate,
    SamplerConfig,
    estimate_collision_probability,
    estimate_separation_probability,
    estimate_twin_moment,
    sample_partition,
)
from .sequences import (
    SequenceTable,
    TableRow,
    binomial_transform,
    block_count_series,
    full_table,
    line_transform,
    restricted_proper_sequence,
    sequence_from_block_series,
    stirling_transform,
)
from .series import PowerSeries

__version__ = "0.1.0"

__all__ = [
    "AsymptoticReport",
    "ConsistencyError",
    "DEFAULT_BELL_CAP",
    "DEFAULT_ORACLE_LIMIT",
    "Estimate",
    "FiberCheck",
    "OracleCensus",
    "PartitionClassification",
    "PowerSeries",
    "ReportRow",
    "SamplerConfig",
    "SequenceTable",
    "SetPartition",
    "TableRow",
    "TrendCheck",
    "TwoCover",
    "asymptotic_report",
    "bell",
    "binomial_transform",
    "block_count_series",
    "classify_partition",
    "enumerate_partitions",
    "estimate_collision_probability",
    "estimate_separation_probability",
    "estimate_twin_moment",
    "fiber_check",
    "full_table",
    "image_collision_bound",
    "image_collision_count",
    "lambert_w",
    "line_transform",
    "log_bell_asymptotic",
    "log_cover_estimate",
    "log_integer",
    "log_restricted_estimate",
    "log_saddle_estimate",
    "merged_twin_count",
    "merged_twin_moment",
    "oracle_counts",
    "oracle_line_class_count",
    "oracle_line_count",
    "ratio_trends",
    "report_grid",
    "restricted_proper_sequence",
    "saddle_block_count",
    "sample_partition",
    "separation_probability",
    "separation_ratio",
    "sequence_from_block_series",
    "stirling2",
    "stirling_transform",
]
