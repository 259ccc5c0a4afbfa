"""Child interpreters the tests start (`python -m crosscap ...`) import the same
crosscap copy as the tests themselves: the one pytest's `pythonpath` put first."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import crosscap

_SRC = str(Path(crosscap.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stand verify's `_shared` in with its one-process form, and let this
    process run on 64 CPUs: every task runs in this process, and the list
    returned gets how many walker processes each `_shared` call would have
    started, for each call that would have started one."""
    import crosscap.verify as verify_module

    sizes = []
    shared = verify_module._shared

    def recorded_shared(walkers, fn, tasks, ahead):
        if walkers > 0:
            sizes.append(walkers)
        return shared(0, fn, tasks, ahead)

    monkeypatch.setattr(verify_module, "_shared", recorded_shared)
    monkeypatch.setattr(verify_module, "_cpus", lambda: 64)
    return sizes
