"""A time limit for every test of the tier-1 run, under ``tests/`` and
``bench/`` alike: a test that runs longer than ``TIME_LIMIT_S`` prints every
thread's stack and ends the run, so a hang cannot stall the suite.  The
slowest test takes about 3 s on a 2-vCPU x86-64 VM (the slowest under
``bench/`` about 1-3 s), so the limit leaves a wide margin for slower hosts."""

import faulthandler
import os
import sys

import pytest

TIME_LIMIT_S = 60

_stderr_fd = None


def pytest_configure(config):
    # Output capture is suspended while plugins are configured, so fd 2 is the
    # run's own stderr here.  During a test it is a capture file, whose content
    # is lost when the process exits.
    global _stderr_fd
    _stderr_fd = os.dup(sys.stderr.fileno())


@pytest.fixture(autouse=True)
def time_limit():
    faulthandler.dump_traceback_later(TIME_LIMIT_S, exit=True, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()
