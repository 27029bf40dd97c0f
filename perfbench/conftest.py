"""Lets ``python3 -m pytest perfbench`` import errortail from ``src`` and
the benchmark's own modules. The repository's own suite does not collect
this directory."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
