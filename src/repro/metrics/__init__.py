"""Measurement utilities for the experiment harness."""

from .connstats import ConnectionReport, report_for
from .fencing import EpochChange, FencingMetrics, primary_overlap
from .recovery import DegreeTimeline, RecoveryIncident, summarize_incidents
from .stats import Summary, ThroughputMeter, percentile
from .tables import Table, format_comparison
from .traceview import FlowKey, capture_at, flows, summarize, tcp_records, time_sequence

__all__ = [
    "ConnectionReport",
    "report_for",
    "EpochChange",
    "FencingMetrics",
    "primary_overlap",
    "DegreeTimeline",
    "RecoveryIncident",
    "summarize_incidents",
    "Summary",
    "ThroughputMeter",
    "percentile",
    "Table",
    "format_comparison",
    "FlowKey",
    "capture_at",
    "flows",
    "summarize",
    "tcp_records",
    "time_sequence",
]
