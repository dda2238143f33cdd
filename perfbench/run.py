"""Seeded end-to-end and per-layer benchmark of torustwist.

Run from the repository root:

    python3 perfbench/run.py --workload classify-wide --seed 1 --seconds 20 --trace 0

--trace 0 measures untraced: one closed-loop client runs whole rounds of
seeded items until --seconds of library time have passed (and at least the
digest rounds and 110 items are done), checking every output; set-up probes
in fresh interpreters are spread over the same run.  Every time metric is
scaled to nominal host speed by reference ticks interleaved with the work
(hostspeed.py), except set-up time; the detail line holds the raw figures
too.  --trace 1 runs a fixed number of rounds untraced (twice, the first a
warm-up) and then traced, and prints the per-layer metrics; a layer the
workload never reaches reads 0.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the details (output digest, percentile sample counts, fail_frac,
per-round rates, environment, problems).  --workload all runs every
workload in its own interpreter and prints the end-to-end table.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("classify-wide", "classify-thin", "scan-box", "certify-hermitian")
SETUP_PROBES = 9


class SetupProbes:
    """Wall time from starting a fresh interpreter to "ready".  One discarded
    probe first leaves the byte-code caches warm; the measured probes are
    spread over the run's library time, so that they meet the same host
    speeds as the items.  Set-up time is not scaled: it tracks the
    reference ticks poorly (much of it is file and page-fault work), and
    scaling widened its spread."""

    def __init__(self, workload, seed, tiny, seconds):
        self.cmd = [sys.executable, str(HERE / "probe.py"), workload,
                    str(seed), "1" if tiny else "0"]
        self.count = 2 if tiny else SETUP_PROBES
        self.every = seconds / self.count
        self._probe()
        self.times = []

    def _probe(self):
        t0 = perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed: {self.cmd}")
        return elapsed

    def after_round(self, busy):
        """Take the probes that are due after `busy` library seconds."""
        while (len(self.times) < self.count
               and busy >= len(self.times) * self.every):
            self.times.append(self._probe())

    def finish(self):
        """Median seconds over all measured probes."""
        while len(self.times) < self.count:
            self.times.append(self._probe())
        return statistics.median(self.times)


def import_seconds():
    """(torustwist.cli, numpy) cumulative import seconds from -X importtime,
    medians of three fresh interpreters."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import torustwist.cli"
    cli_s, numpy_s = [], []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code,
                               str(SRC)], cwd=ROOT, capture_output=True,
                              text=True, check=True)
        total = numpy = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            top_level = not name.startswith("  ")
            if top_level and name.strip().split(".")[0] == "torustwist":
                total += int(cumulative)
            if name.strip() == "numpy":
                numpy = int(cumulative)
        cli_s.append(total / 1e6)
        numpy_s.append(numpy / 1e6)
    return statistics.median(cli_s), statistics.median(numpy_s)


def peak_rss_mb():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True
                              ).stdout.strip() or None
    except OSError:
        return None


def blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return getter()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get(
        "OMP_NUM_THREADS")


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(nproc):
    import mpmath
    import numpy

    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "nproc": nproc, "blas_threads": blas_threads(),
            "cpu_model": cpu_model()}


def run_one(args):
    import inputs
    import workloads

    rounds = inputs.generate(args.workload, args.seed, tiny=args.tiny)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "tiny": args.tiny}
    if args.trace:
        tally, tracer, facts = workloads.traced(args.workload, rounds,
                                                args.seed, args.tiny)
        facts["cli.import_s"], facts["cli.import_numpy_s"] = import_seconds()
        values = workloads.layer_metrics(tracer, facts)
        units = dict(workloads.PER_LAYER)
        summary = tracer.summary()
        detail["traced_items"] = tally.attempted
        detail["child_cost_us"] = 1e6 * tracer.child_cost
        detail["self_s"] = dict(sorted(
            ((name, agg["self_s"]) for name, agg in summary.items()),
            key=lambda kv: -kv[1]))
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(spans)
        detail["spans_file"] = str(spans.relative_to(ROOT))
    else:
        clock = HostClock()
        probes = SetupProbes(args.workload, args.seed, args.tiny,
                             args.seconds)
        tally = workloads.measure(args.workload, rounds, args.seed,
                                  args.seconds, args.tiny, clock,
                                  after_round=probes.after_round)
        setup = probes.finish()
        pct = workloads.percentile_report(tally.latencies)
        raw_pct = workloads.percentile_report([dt for _, dt in tally.timed])
        values = {"setup_s": setup,
                  "items_per_s": statistics.median(tally.rates or [0.0]),
                  "item_p50_ms": pct["p50_ms"], "item_p90_ms": pct["p90_ms"],
                  "peak_rss_mb": peak_rss_mb()}
        units = dict(workloads.E2E)
        detail["percentiles"] = pct
        detail["setup_probes_s"] = probes.times
        detail["raw"] = {
            "items_per_s": statistics.median(tally.raw_rates or [0.0]),
            "item_p50_ms": raw_pct["p50_ms"],
            "item_p90_ms": raw_pct["p90_ms"]}
        detail["host_clock"] = clock.summary()
        detail["round_rates"] = tally.rates
        detail["busy_s"] = tally.busy
        fail_frac = tally.failed / max(tally.attempted, 1)
        detail["fail_frac"] = fail_frac
        for name, unit in workloads.E2E:
            print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
        print(f"{args.workload} fail_frac = {fail_frac:.6g} "
              f"({tally.failed}/{tally.attempted})")
    detail["digest_sha256"] = tally.digest.hexdigest()
    detail["problems"] = tally.problems[:20]
    detail["environment"] = environment(workloads.NPROC)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def run_all(args):
    """Every workload in a fresh interpreter; one table row per metric."""
    print(f"{'workload':<18} {'metric':<13} {'value':>12} unit")
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
        for name, m in result["metrics"].items():
            print(f"{workload:<18} {name:<13} {m['value']:>12.6g} {m['unit']}")
        print(f"{workload:<18} {'fail_frac':<13} {detail['fail_frac']:>12.6g} "
              f"ratio  ({result['failed']}/{result['attempted']}, "
              f"digest {detail['digest_sha256'][:16]})")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if not (SRC / "torustwist" / "__init__.py").is_file():
        print(f"error: no torustwist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
