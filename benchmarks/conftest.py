"""Benchmark-suite configuration."""

import sys
from pathlib import Path

# Make the sibling `_common` module importable regardless of rootdir, and
# the test suite's reference oracles (`tests/_kernel_oracles.py`), which
# the PR 3 bench times as its "before" baselines.
_HERE = Path(__file__).parent
sys.path.insert(0, str(_HERE.parent / "tests"))
sys.path.insert(0, str(_HERE))
