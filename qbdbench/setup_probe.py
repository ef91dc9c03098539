"""Child process of the set-up measurement.

    python3 qbdbench/setup_probe.py MODEL...

Imports qbdshift from the checkout's `src/`, reads and validates every
model file with `cli.read_model`, then prints one line, "ready". The
parent times from starting this process to reading that line: the time
before a first solve could start.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from qbdshift import cli  # noqa: E402

for path in sys.argv[1:]:
    cli.read_model(path)
print("ready", flush=True)
