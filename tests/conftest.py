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
def no_descriptor_left():
    """Every test closes the file descriptors it opens, and no other: the
    ``(fd, target)`` pairs under ``/proc/self/fd`` are the same after it
    as before (numbers alone miss a closed descriptor's number reused by
    a leaked one). Skipped where that directory is missing."""
    def opened():
        try:
            fds = os.listdir("/proc/self/fd")
        except FileNotFoundError:
            return None
        pairs = set()
        for fd in fds:
            try:
                pairs.add((fd, os.readlink(f"/proc/self/fd/{fd}")))
            except FileNotFoundError:   # the listing's own descriptor
                pass
        return pairs

    before = opened()
    yield
    after = opened()
    if before is not None and after != before:
        pytest.fail(f"the test opened or closed file descriptors:"
                    f" {sorted(after ^ before)}")


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
