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
    in with an in-process fake, on a host that reports 64 CPUs; the list
    returned gets the size of each pool built."""
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

    monkeypatch.setattr(verify_module.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    return sizes
