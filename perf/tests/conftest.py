"""Self-tests of the benchmark: ``python -m pytest perf/tests -q`` from
the repo root.  Not part of the tier-1 suite (``testpaths = ["tests"]``)."""

import os
import sys

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
sys.path[:0] = [PERF, os.path.join(ROOT, "src")]
