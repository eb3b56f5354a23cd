"""Make the benchmark's modules and the checkout's mapglue importable:

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (BENCH, os.path.join(os.path.dirname(BENCH), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
