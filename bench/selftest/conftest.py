"""Put the package and the benchmark's modules on the import path.

Run with ``python -m pytest bench/selftest`` from the repository root.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "bench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
