"""Experiment harness: drivers, result formatting, and scaling knobs."""

from .format import format_table, print_table
from .parallel import (
    ExperimentJob,
    JobOutcome,
    ParallelRunner,
    run_grid,
)
from .runner import (
    Feed,
    Harness,
    MeasureResult,
    make_value,
    pack_key,
    preload,
)
from .scale import scale_name, scaled

__all__ = [
    "ExperimentJob",
    "Feed",
    "Harness",
    "JobOutcome",
    "MeasureResult",
    "ParallelRunner",
    "format_table",
    "make_value",
    "pack_key",
    "preload",
    "print_table",
    "run_grid",
    "scale_name",
    "scaled",
]
