"""Test configuration: hypothesis draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("partition-lab", derandomize=True, deadline=None)
settings.load_profile("partition-lab")
