"""Suite-wide checks."""

import os

import pytest

from eigenalign import closed_form


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


@pytest.fixture(autouse=True)
def empty_memos():
    """Every test starts with ``closed_form``'s two memos empty, so no
    outcome depends on the test that ran before it."""
    closed_form._report_memo = closed_form._loop_memo = None


@pytest.fixture
def spy(monkeypatch):
    """``spy(module, name)`` wraps ``module.name`` for the test and returns
    the list of the argument tuples of its calls from then on."""
    def install(module, name):
        calls, func = [], getattr(module, name)

        def wrapper(*args):
            calls.append(args)
            return func(*args)

        monkeypatch.setattr(module, name, wrapper)
        return calls
    return install
