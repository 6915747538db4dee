"""Shared pytest configuration.

Property tests run under a derandomized hypothesis profile with a bounded
example count and no deadline, so the suite is deterministic and its run
time does not depend on the host's load.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=200, database=None)
settings.load_profile("deterministic")
