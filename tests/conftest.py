"""Every property-based test draws a fixed example sequence: hypothesis derives
it from each test, not from a random seed, and keeps no example database, so
a run depends only on the code."""

from hypothesis import settings

settings.register_profile("seeded", derandomize=True, database=None)
settings.load_profile("seeded")
