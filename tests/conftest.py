"""Hypothesis profiles for the property tests.

``ci`` derandomizes the search, so a CI run tries the same examples on
every push and a property test cannot fail it at random; a failure prints
the blob that reproduces it.  It is loaded where the ``CI`` environment
variable is set, as GitHub Actions sets it; local runs keep the random
search, which keeps looking for new counterexamples.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
