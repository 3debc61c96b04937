"""Shared utilities: visualisation, (de)serialisation and core counting."""

from repro.utils.visualization import ascii_heatmap, pattern_summary, format_table
from repro.utils.serialization import save_model, load_model_into
from repro.utils.cores import usable_cores

__all__ = ["ascii_heatmap", "pattern_summary", "format_table", "save_model", "load_model_into", "usable_cores"]
