"""Test session set-up.

pyproject.toml puts ``src`` on pytest's own import path; the CLI tests also
start ``python -m lipwidth`` in subprocesses, which read ``PYTHONPATH``, so it
gets ``src`` too.  A bare ``python -m pytest`` then runs from a fresh checkout.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
