"""Print the SHA-256 of the stdout of a fixed list of torustwist commands.

Usage, with the src/ directory to check on PYTHONPATH:

    PYTHONPATH=src python tools/output_digests.py
    PYTHONPATH=/path/to/other/src python tools/output_digests.py

Each command runs in-process through torustwist.cli.main, from the root of
this repository (so the sequence file's path reads the same in the text
certificate), and prints one line "<sha256>  <argv>".  Two trees whose
outputs are byte-identical print the same lines, so diffing this script's
output against two src/ directories checks a refactor.  Exits 1 if a
command exits nonzero.

tests/data/output_digests.txt holds this script's output for the tree it
is in, and the test suite's test_output_digests_tool requires the output
to equal it byte for byte; a change meant to alter an output regenerates
that file with this script and says which lines moved.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

from torustwist import cli

ROOT = Path(__file__).resolve().parent.parent

KNOTS = [(5, 7), (-5, 8), (7, -5), (5, 8), (11, 15), (13, 17), (79, 119),
         (1001, 2011), (7, 20011), (7, 2 ** 20 - 1), (300001, 300007)]
SCAN_BOX = ["--p-min", "2", "--p-max", "30", "--q-min", "3", "--q-max", "60"]


def commands():
    for p, q in KNOTS:
        for fmt in ("text", "json"):
            yield ["classify", "-p", str(p), "-q", str(q), "--format", fmt]
    for fmt in ("text", "json"):
        yield ["classify", "-p", "5", "-q", "8", "--sequence",
               "tests/data/t58_untwist.seq", "--format", fmt]
    for fmt in ("csv", "json", "markdown"):
        for jobs in ("1", "2"):
            yield ["scan", *SCAN_BOX, "--format", fmt, "--jobs", jobs]
    for which in ("thm1.3", "thm1.5", "example1.6"):
        for fmt in ("markdown", "csv", "json"):
            yield ["tables", "--which", which, "--n-max", "2", "--format", fmt]
    yield ["sigma", "-p", "5", "-q", "8", "--all"]
    yield ["sigma", "-p", "13", "-q", "17", "--method", "seifert"]


def main() -> int:
    os.chdir(ROOT)
    for argv in commands():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            print(f"exit {code}: {' '.join(argv)}", file=sys.stderr)
            return 1
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        print(f"{digest}  {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
