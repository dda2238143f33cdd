import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_accepts_what_the_library_renders():
    # runs every benchmark workload at tiny sizes, untraced and traced; its
    # output checks re-derive each certificate from the rendered JSON
    res = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=900)
    assert res.returncode == 0, res.stdout[-3000:] + res.stderr[-3000:]
    assert res.stdout.splitlines()[-1] == "smoke: ok"
