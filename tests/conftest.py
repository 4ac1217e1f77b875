import os

from hypothesis import settings

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, and no
# per-example deadline for slow runners. Local runs keep Hypothesis' defaults.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
