"""Set-up probe: a fresh interpreter imports the CLI and builds a
workload's seeded inputs, then prints "ready".

    python3 perfbench/probe.py WORKLOAD SEED TINY(0|1)
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import torustwist.cli  # noqa: E402,F401  the import a CLI user pays

import inputs  # noqa: E402

inputs.generate(sys.argv[1], int(sys.argv[2]), tiny=sys.argv[3] == "1")
print("ready", flush=True)
