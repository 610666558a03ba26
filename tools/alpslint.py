#!/usr/bin/env python3
"""Standalone launcher for the ALPS protocol linter.

Equivalent to ``PYTHONPATH=src python -m repro.analysis`` but runnable
from a plain checkout with no environment setup::

    python tools/alpslint.py src/repro examples
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.analysis.cli import main  # noqa: E402 (needs the path tweak above)

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
