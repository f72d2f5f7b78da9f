"""Run with ``python -m pytest perf/tests`` from the root of the checkout."""

import os
import sys

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(os.path.dirname(PERF), "src"), PERF):
    if path not in sys.path:
        sys.path.insert(0, path)
