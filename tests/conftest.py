"""Hypothesis profiles for the suite.

"tier1", loaded by default, derandomizes every property test: each test
draws its examples from a seed fixed by its own source, so two runs of the
suite draw the same examples and take comparable time, and a failure seen
once repeats. "explore" draws fresh examples; run it with a seed that can
be replayed:

    PYTHONPATH=src python -m pytest -q --hypothesis-profile=explore --hypothesis-seed=N

Neither profile changes a test's example count or deadline.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")
