"""The repository's benchmark: ``python3 -m bench`` (see README.md).

The program under test is imported from ``src/`` beside this package,
the way the tier-1 tests import it.
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
