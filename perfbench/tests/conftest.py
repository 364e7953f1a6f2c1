"""Put ./src and ./perfbench on the path: run from the repository root with
    python3 -m pytest perfbench/tests -q
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for sub in ("src", "perfbench"):
    path = os.path.join(ROOT, sub)
    if path not in sys.path:
        sys.path.insert(0, path)
