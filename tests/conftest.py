"""Shared test settings.

Hypothesis draws from a fixed seed per test and has no time limit per
example, so property tests give the same verdict on every run and every
machine.
"""

from hypothesis import settings

settings.register_profile("riskratio", derandomize=True, deadline=None)
settings.load_profile("riskratio")
