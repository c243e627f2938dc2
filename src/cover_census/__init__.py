"""Exact and asymptotic enumeration of 2-covers and labelled line graphs.

A 2-cover of [n] is a multiset of nonempty subsets in which every element
lies in exactly two blocks.  The package computes the plain, proper,
restricted, and restricted-proper cover counts together with labelled
line-graph counts, verifies them against a brute-force oracle built on set
partitions of [2n], compares them to their asymptotic growth estimates,
and estimates the underlying partition statistics by exact uniform
sampling.
"""

from .errors import ConsistencyError
from .oracle import oracle_counts
from .sequences import full_table

__version__ = "0.1.0"

__all__ = ["ConsistencyError", "asymptotic_report", "full_table", "oracle_counts"]


def __getattr__(name: str):
    # The report loads on first use (PEP 562): only one CLI command reads it.
    if name == "asymptotic_report":
        from .asymptotics import asymptotic_report

        return asymptotic_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
