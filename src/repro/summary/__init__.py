"""Interprocedural side-effect summaries (MOD)."""

from repro.summary.modref import ModRefInfo, annotate_call_effects, compute_modref

__all__ = ["ModRefInfo", "annotate_call_effects", "compute_modref"]
