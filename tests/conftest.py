"""Every test runs under a deadline, so a hang fails that test by name
instead of stalling the whole run."""

from __future__ import annotations

import signal

import pytest

# The slowest test takes about 3 s on a shared 2-CPU machine.
DEADLINE_S = 60


@pytest.fixture(autouse=True)
def deadline(request):
    def expire(signum, frame):
        raise TimeoutError(
            "%s ran past its %d-s deadline" % (request.node.nodeid, DEADLINE_S)
        )

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
