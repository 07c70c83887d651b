"""Make the benchmark's modules and the program importable, pinned the way
the benchmark pins them.

Run with: python3 -m pytest perfbench/tests
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import benchenv  # noqa: E402

if "numpy" not in sys.modules:
    benchenv.pin()
else:
    sys.path.insert(0, os.path.join(benchenv.ROOT, "src"))
