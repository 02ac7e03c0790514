"""Settings shared by every test module.

Hypothesis runs under one profile that prints, with any failing draw, the
``@reproduce_failure(...)`` line that replays it. A draw seen to fail once,
in a local run or in CI where the example database is not kept, can then be
replayed from the log alone and pinned with ``@example``. The profile
changes nothing else: each test's own ``@settings`` still apply.
"""

from hypothesis import settings

settings.register_profile("tmcda", print_blob=True)
settings.load_profile("tmcda")
