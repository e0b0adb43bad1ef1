"""Lets the suite run from a fresh checkout without an install.

pyproject's pytest `pythonpath` puts src/ on this process's sys.path only;
the CLI tests also start `python -m interferobounds` in child processes,
so src/ goes onto their PYTHONPATH as well.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
