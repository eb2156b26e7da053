from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


class Forks(list):
    """The pid behind each os.fork call that this process made."""

    @staticmethod
    def assert_none_left():
        """Every forked child has been reaped."""
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Record every os.fork call of the test in this process."""
    log = Forks()
    real_fork = os.fork

    def fork():
        log.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return log
