"""Make the perf lab's flat modules and the program under test importable."""

import os
import sys

PERFLAB = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFLAB)
for path in (os.path.join(ROOT, "src"), PERFLAB):
    if path not in sys.path:
        sys.path.insert(0, path)
