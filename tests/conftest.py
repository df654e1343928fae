"""Suite-wide checks."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps the processes it starts: after it, ``waitpid``
    finds no child, running or ended."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process (waitpid gave {left})")
