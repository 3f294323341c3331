"""Hypothesis profiles for the test suite.

The default profile is hypothesis's own. "deep" draws about ten times as
many examples, for a longer run of chosen properties:

    python -m pytest tests/test_similarity.py::TestSweepRows --hypothesis-profile=deep
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=1000)
