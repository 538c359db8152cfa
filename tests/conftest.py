"""Session set-up shared by the test files.

Importing ``entdyn.cli`` sets ``OPENBLAS_NUM_THREADS=1`` in ``os.environ``
unless a thread variable is set, and ``tests/test_cli.py`` imports it while
the files are collected.  So that the subprocesses of a test get the same
BLAS thread count whichever files are collected with it, it is imported
here first, after numpy (so the in-process thread count is numpy's default
as before), and the three variables are then put back as the session found
them.
"""

import os

import numpy  # noqa: F401
import pytest

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_SESSION_THREAD_ENV = {k: os.environ.get(k) for k in THREAD_VARS}

import entdyn.cli  # noqa: E402, F401

for _name, _value in _SESSION_THREAD_ENV.items():
    if _value is None:
        os.environ.pop(_name, None)
    else:
        os.environ[_name] = _value


@pytest.fixture
def session_thread_env() -> dict[str, str | None]:
    """The thread variables as the test session started with them."""
    return dict(_SESSION_THREAD_ENV)
