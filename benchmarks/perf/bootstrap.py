"""Finds the program this benchmark measures.

The benchmark sits in ``benchmarks/perf/`` of a checkout and measures the
``src/repro`` package of that same checkout, whatever else is installed.
"""

from __future__ import annotations

import os
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
SRC = os.path.join(ROOT, "src")


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; exit with an
    error if the program is not there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"benchmarks/perf: nothing to measure, {SRC}/repro "
                 "is missing")
    sys.path.insert(0, SRC)
