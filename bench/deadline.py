"""Per-operation deadline, enforced in-process with SIGALRM."""

from __future__ import annotations

import signal


class Timeout(BaseException):
    """Raised into an operation that outlives its deadline.

    A BaseException, so that no `except Exception` in the code under test
    can swallow it.
    """


def _raise_timeout(signum, frame):
    raise Timeout


def call_with_deadline(fn, seconds: float):
    """Return fn(), or raise Timeout once `seconds` of wall time have passed.

    Must be called from the main thread.  The alarm is cleared before
    returning, so it cannot fire into the caller.
    """
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
