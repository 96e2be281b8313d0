import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from seprkit import all_principal_minors, paper_matrix

# Seconds any one test may run; the slowest takes a few seconds.
TEST_TIME_LIMIT = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past ``TEST_TIME_LIMIT`` instead of letting it
    hang: ``reduce_by`` loops forever when monomial arithmetic breaks the
    term order, and a loop would otherwise hold CI until its job timeout.
    Does nothing where there is no SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran longer than {TEST_TIME_LIMIT} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def builtin_matrix():
    return paper_matrix()


@pytest.fixture(scope="session")
def builtin_minors(builtin_matrix):
    return all_principal_minors(builtin_matrix)
