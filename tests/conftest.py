"""Shared test settings: one Hypothesis profile for every property test.

No deadline (the dense references are slow), a fixed example sequence and
no example database, so a run does not depend on the runs before it.
"""

from hypothesis import settings

settings.register_profile("qsu2", deadline=None, derandomize=True, database=None)
settings.load_profile("qsu2")
