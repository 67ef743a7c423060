"""Shared test settings.

``HYPOTHESIS_PROFILE=ci`` loads a Hypothesis profile for continuous
integration: no per-example deadline, a fixed example sequence so a run
cannot flake, and the reproduction blob printed with any failure. Without
the variable Hypothesis keeps its defaults.
"""

import os

from hypothesis import settings

settings.register_profile("ci", deadline=None, derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
