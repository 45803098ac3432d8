"""Make scenarios.py and the test oracles (``tests.oracles``)
importable however the benchmarks are launched."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent))
