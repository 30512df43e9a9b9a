"""Test-suite settings: hypothesis runs the same examples on every run.

The profile derandomizes examples, keeps no example database and sets no
per-example deadline, since exact ring arithmetic on larger draws can take
longer than hypothesis's default.  Hypothesis also caches the literals of
the package's modules, already while collecting; that cache goes to a
temporary directory removed at exit, so a test run leaves no
``.hypothesis/`` directory in the checkout.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("balcone", derandomize=True, database=None, deadline=None)
settings.load_profile("balcone")

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="balcone-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
