import os
import tempfile

# Hypothesis caches what it reads from the sources; keep that cache out of
# the checkout.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "bohmosc-hypothesis"))

from hypothesis import settings  # noqa: E402

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("bohmosc", derandomize=True, database=None, deadline=None)
settings.load_profile("bohmosc")
