import contextlib
import signal

import pytest
from hypothesis import HealthCheck, settings

# Hypothesis draws from a pool that includes the literals of every loaded
# package module; loading the whole package before any test runs makes that
# pool, and so every draw, the same whichever test files are collected.  The
# CLI loads the dynamics only on first use, so numverify is named as well.
import painstrata.cli  # noqa: F401
import painstrata.numverify  # noqa: F401

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def within():
    """``with within(seconds):`` fails the block if it runs longer, so a hang
    fails its test instead of stalling the suite (SIGALRM; main thread)."""
    @contextlib.contextmanager
    def guard(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return guard
