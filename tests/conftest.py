"""Hypothesis draws the same examples on every machine and run: derandomized,
no example database, and no deadline (examples that build geometry are slow)."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
