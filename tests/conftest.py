"""Shared test settings: one deterministic hypothesis profile, so that every
property test draws the same examples on every run and keeps no database."""

from hypothesis import settings

settings.register_profile("stacky", derandomize=True, database=None, max_examples=100,
                          deadline=None)
settings.load_profile("stacky")
