"""Suite-wide hooks: a wall-clock limit on each test's call phase."""

import signal

import pytest

# The slowest test takes about 13 s.  One still running after this long is
# hung, for example a Groebner run on wrong reductions, which need not end.
TEST_TIMEOUT_S = 300


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Fail the test by name once it has run TEST_TIMEOUT_S seconds.

    ``pytest.fail`` raises a ``BaseException``, so code under test that
    catches ``Exception`` cannot swallow the timeout."""

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} still running after {TEST_TIMEOUT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
