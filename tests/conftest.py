"""Child interpreters the tests start (`python -m crosscap ...`) import the same
crosscap copy as the tests themselves: the one pytest's `pythonpath` put first."""

from __future__ import annotations

import os
from pathlib import Path

import crosscap

_SRC = str(Path(crosscap.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
