"""Test-session settings shared by every test module."""

from hypothesis import settings

# Fixed example sequence and a bounded example count: property tests stay
# deterministic and their run time stays bounded.
settings.register_profile("bnls", derandomize=True, database=None, max_examples=100, deadline=None)
settings.load_profile("bnls")
