"""Test configuration: hypothesis runs a fixed, derandomized set of examples."""

from hypothesis import settings

# the same draw on every run, so a property test can neither flake nor slow
# down on a new random example
settings.register_profile(
    "critnum", derandomize=True, deadline=None, max_examples=200, database=None
)
settings.load_profile("critnum")
