"""Deterministic structure-aware fuzzing for every wire decoder.

``python -m repro.fuzz --selftest`` is the CI entry point; see
``docs/HARDENING.md`` for the contract and replay workflow.
"""

from .corpus import build_corpus, build_rejects
from .drivers import SURFACE_DRIVERS
from .mutate import MUTATORS, mutate
from .runner import MEMORY_BUDGET_BYTES, FuzzReport, SurfaceReport, run_fuzz

__all__ = [
    "MEMORY_BUDGET_BYTES",
    "MUTATORS",
    "SURFACE_DRIVERS",
    "FuzzReport",
    "SurfaceReport",
    "build_corpus",
    "build_rejects",
    "mutate",
    "run_fuzz",
]
