"""One hypothesis profile for the whole suite: no deadline, since a
property's examples build and run whole circuits, and no example database.
Each property sets only its `max_examples`.

Hypothesis also caches the constants it reads from the source under its
home directory, `.hypothesis/` in the working directory unless set, and
does so while pytest collects.  The home directory is a temporary one,
removed when the run ends, so a run leaves nothing in the checkout."""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("fhespec", deadline=None, database=None)
settings.load_profile("fhespec")

HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
set_hypothesis_home_dir(HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(HYPOTHESIS_HOME, ignore_errors=True)
