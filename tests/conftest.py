"""Child interpreters the tests start (`python -m crosscap ...`) import the same
crosscap copy as the tests themselves: the one pytest's `pythonpath` put first."""

from __future__ import annotations

import os
from concurrent.futures import Future
from pathlib import Path

import pytest

import crosscap

_SRC = str(Path(crosscap.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stand the ProcessPoolExecutor that verify looks up in `concurrent.futures`
    in with an in-process fake, and let this process run on 64 CPUs; the
    list returned gets the size of each pool built.  The fake runs each task
    as it is submitted.  A report's walker processes are stood in for too:
    the list gets how many `_shared` would start, and this process walks
    every run."""
    import crosscap.verify as verify_module

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        def submit(self, fn, *args):
            # run the task now, and hand back a future that is already done
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    def recorded_shared(size, fn, tasks):
        if size > 1:
            sizes.append(size - 1)
        return shared(1, fn, tasks)

    shared = verify_module._shared
    monkeypatch.setattr(verify_module.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify_module, "_shared", recorded_shared)
    monkeypatch.setattr(verify_module, "_cpus", lambda: 64)
    return sizes
