"""Experiment harness: registry and plain-text table rendering."""

from repro.tables import format_table
from repro.harness.registry import EXPERIMENTS, run_experiment

__all__ = ["format_table", "EXPERIMENTS", "run_experiment"]
