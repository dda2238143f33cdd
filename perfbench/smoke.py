"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload it runs run.py untraced and traced and checks that the
result line has the contract's keys, that the metric names and units match
BENCHMARK.json, that every output check passed, and that tracing leaves
the output digest unchanged.  It also checks that run.py fails without
printing a result when the library sources are absent.  Exits 1 on any
failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / HERE.name / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0.2",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    sys.path.insert(0, str(HERE))
    from run import WORKLOADS

    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.py's")
    for workload in WORKLOADS:
        digests = {}
        for trace in (0, 1):
            proc = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}: "
                              f"{proc.stderr[-400:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if set(result) != RESULT_KEYS:
                errors.append(f"{tag}: result keys {sorted(result)}")
            if got != want[trace]:
                errors.append(f"{tag}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got) ^ set(want[trace]))}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{tag}: failed checks {detail['problems'][:3]}")
            digests[trace] = detail["digest_sha256"]
            if trace == 0:
                for name, m in result["metrics"].items():
                    print(f"{workload:<18} {name:<13} {m['value']:>12.6g} "
                          f"{m['unit']}")
                print(f"{workload:<18} {'fail_frac':<13} "
                      f"{detail['fail_frac']:>12.6g} ratio")
        if len(set(digests.values())) != 1:
            errors.append(f"{workload}: tracing changed the digest {digests}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(WORKLOADS[0], 0, cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append("run.py succeeded without the library sources")
    shutil.rmtree(bare)

    for e in errors:
        print("FAIL", e)
    print("smoke:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
