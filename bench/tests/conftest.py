"""`python -m pytest bench/tests -q` from the repository root.

Not part of tier-1 (`testpaths = ["tests"]`).  The program is imported
from this checkout's `src/`, as `bench.run` does.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)
