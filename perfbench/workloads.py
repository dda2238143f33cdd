"""Closed-loop drivers for the four workloads, untraced and traced.

One client sends the next item only after the previous one completes.
After every item (every scan, for scan-box) the library's lru_caches are
cleared outside the timed region, so each item starts as cold as it does in
a fresh `torustwist` process, and memory does not grow with the item count.
Between items the driver ticks the run's HostClock (see hostspeed.py); item
times are recorded raw and scaled to nominal host speed when the run ends.
"""

import hashlib
import math
import os
import random
import statistics
import sys
from math import gcd
from time import perf_counter

from torustwist import TorusKnotParams, cli, obstruction, tristram

import checks
from hostspeed import HostClock
from spans import Tracer, child_cost

NPROC = len(os.sched_getaffinity(0))

# items a run completes at least, so that p90 has ten samples beyond it
MIN_ITEMS = 110
# rounds covered by the output digest and by the traced pass; every run
# completes them (scan-box digests and traces one scan of its box)
TRACE_ROUNDS = {"classify-wide": 6, "classify-thin": 3, "certify-hermitian": 2}

E2E = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_p50_ms", "ms"),
       ("item_p90_ms", "ms"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("tristram.sigma_d_counting.calls", "count"),
    ("tristram.sigma_d_counting.s", "s"),
    ("tristram.sigma_d_counting.us_per_call", "us"),
    ("tristram.sigma_d.calls", "count"),
    ("tristram.sigma_d.s", "s"),
    ("tristram.sigma_d.useful_ratio", "ratio"),
    ("tristram.prime_divisors.calls", "count"),
    ("tristram.prime_divisors.s", "s"),
    ("obstruction.classify.calls", "count"),
    ("obstruction.classify.self_s", "s"),
    ("obstruction.candidates", "count"),
    ("obstruction.survivors", "count"),
    ("obstruction.certificate_to_json.s", "s"),
    ("obstruction.certificate_to_json.bytes", "bytes"),
    ("fourmanifold.templates.calls", "count"),
    ("fourmanifold.templates.s", "s"),
    ("fourmanifold.kikuchi.applicable_ratio", "ratio"),
    ("lattice.sigma_closed.calls", "count"),
    ("lattice.sigma_closed.s", "s"),
    ("cli.render_scan_csv.s", "s"),
    ("cli.render_scan_csv.bytes", "bytes"),
    ("cli.pool.speedup", "ratio"),
    ("seifert.seifert_matrix.calls", "count"),
    ("seifert.seifert_matrix.s", "s"),
    ("seifert.dim_sum", "count"),
    ("tristram.build_form.s", "s"),
    ("tristram.inertia.s", "s"),
    ("certify.float_rung.calls", "count"),
    ("certify.float_rung.s", "s"),
    ("certify.float_rung.resolved_ratio", "ratio"),
    ("certify.mp_rung.calls", "count"),
    ("certify.mp_rung.s", "s"),
    ("certify.mp_rung.max_bits", "bits"),
    ("cyclotomic.nullity_exact.calls", "count"),
    ("cyclotomic.nullity_exact.s", "s"),
    ("cli.import_s", "s"),
    ("cli.import_numpy_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

_CACHES = {fn for name, mod in list(sys.modules.items())
           if name.startswith("torustwist")
           for fn in vars(mod).values()
           if hasattr(fn, "cache_clear")
           and getattr(fn, "__module__", "").startswith("torustwist")}


def clear_caches():
    for fn in _CACHES:
        fn.cache_clear()


def check_rng(seed):
    return random.Random(f"perfbench/check/{seed}")


class ClassifyRunner:
    """classify + certificate_to_json on one knot; the output is the JSON."""

    def __init__(self):
        self.factor = checks.Factorizer()

    def call(self, item):
        cert = obstruction.classify(TorusKnotParams(*item))
        return obstruction.certificate_to_json(cert)

    def check(self, item, out, rng):
        return checks.check_certificate(*item, out, self.factor, rng)

    def digest_bytes(self, item, out):
        return out.encode()


class HermitianRunner:
    """The certified Hermitian route on a torus form, or certified inertia
    of an ill-conditioned fixture."""

    def call(self, item):
        kind, args = item
        if kind == "torus":
            p, q, d = args
            return tristram.tristram_sigma(TorusKnotParams(p, q), d,
                                           method="hermitian")
        return tristram.inertia(args[1])

    def check(self, item, out, rng):
        return checks.check_hermitian(item, out)

    def digest_bytes(self, item, out):
        kind, args = item
        if kind == "torus":
            return f"T({args[0]},{args[1]}) d={args[2]}: {out}\n".encode()
        return (f"fixture k={args[0]}: {out.n_plus} {out.n_zero} "
                f"{out.n_minus}\n").encode()


RUNNERS = {"classify-wide": ClassifyRunner, "classify-thin": ClassifyRunner,
           "certify-hermitian": HermitianRunner}


class Tally:
    """Per-run outcome: timed items and rounds, failures, digest.  Times are
    kept raw as (start, seconds); finish() scales them."""

    def __init__(self):
        self.timed = []
        self.rounds = []      # (items, [(start, seconds), ...])
        self.busy = 0.0       # raw seconds spent in the library
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = hashlib.sha256()
        self.latencies = []
        self.rates = []
        self.raw_rates = []

    def fail(self, problems):
        self.failed += 1
        self.problems.extend(problems[:2])

    def finish(self, clock, round_clock=None):
        """Scaled item latencies and per-round rates; round_clock, if given,
        scales the rounds."""
        if round_clock is None:
            round_clock = clock
        self.latencies = [clock.scaled(t0, dt) for t0, dt in self.timed]
        self.rates = [n / sum(round_clock.scaled(t0, dt) for t0, dt in parts)
                      for n, parts in self.rounds]
        self.raw_rates = [n / sum(dt for _, dt in parts)
                          for n, parts in self.rounds]
        return self

    def scaled_busy(self):
        return sum(self.latencies)


def run_rounds(runner, rounds, seed, clock, *, seconds, digest_rounds,
               tracer=None, after_round=None):
    """Run whole rounds until `seconds` of raw library time and MIN_ITEMS
    items are done (never fewer than digest_rounds rounds).  after_round,
    if given, is called with the raw library seconds so far."""
    tally = Tally()
    rng = check_rng(seed)
    for r, rnd in enumerate(rounds):
        if (r >= digest_rounds and tally.busy >= seconds
                and tally.attempted >= MIN_ITEMS):
            break
        parts = []
        for item in rnd:
            tally.attempted += 1
            error = None
            clock.maybe_tick()
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = runner.call(item)
                else:
                    with tracer.span("bench.item"):
                        out = runner.call(item)
            except Exception as exc:  # a failed item is counted, not fatal
                error = f"{item!r}: {type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            clear_caches()
            tally.busy += dt
            parts.append((t0, dt))
            if error is not None:
                tally.fail([error])
                continue
            problems = runner.check(item, out, rng)
            if problems:
                tally.fail(problems)
            if r < digest_rounds:
                tally.digest.update(runner.digest_bytes(item, out))
        tally.timed.extend(parts)
        tally.rounds.append((len(rnd), parts))
        if after_round is not None:
            after_round(tally.busy)
    clock.tick()
    return tally.finish(clock)


def _box_size(box):
    (p0, p1), (q0, q1) = box
    return sum(1 for p in range(p0, p1 + 1) for q in range(q0, q1 + 1)
               if p < q and gcd(p, q) == 1)


def serial_scan(box, clock, tracer=None):
    """scan_rows at jobs=1 from cold caches, timing each row; returns
    (rows, raw row (start, seconds)).  Ticks fall between rows."""
    times = []
    row = cli._scan_row

    def timed_row(task):
        clock.maybe_tick()
        t0 = perf_counter()
        if tracer is None:
            out = row(task)
        else:
            with tracer.span("bench.item"):
                out = row(task)
        times.append((t0, perf_counter() - t0))
        return out

    clear_caches()
    cli._scan_row = timed_row
    try:
        rows = cli.scan_rows(*box, jobs=1)
    finally:
        cli._scan_row = row
    return rows, times


# The pooled scan's wall time is not scaled.  It spans every CPU, forks the
# pool and moves rows through pipes; a parent's ticks, or ticks on every CPU
# just before and after each scan, tracked it poorly.  Over four sets of ten
# seeds its raw median rate stayed within 6%, the scaled one drifted 8%.
UNSCALED = HostClock()


def scan_cycle(box, tally, first_csv, factor, rng, clock):
    """A pooled scan at jobs=NPROC, a jobs=1 scan and the CSV of the box.
    Returns (csv, pooled rows, pooled wall, jobs=1 row times), or None
    when the library raised."""
    size = _box_size(box)
    tally.attempted += size
    try:
        clear_caches()
        pool_t0 = perf_counter()
        pool_rows = cli.scan_rows(*box, jobs=NPROC)
        pool_wall = perf_counter() - pool_t0
        serial_rows, times = serial_scan(box, clock)
        clock.tick()
        clear_caches()
        t0 = perf_counter()
        csv = cli.render_scan_csv(pool_rows)
        render_wall = perf_counter() - t0
    except Exception as exc:  # a failed scan fails every row of the box
        tally.failed += size
        tally.problems.append(f"scan {box}: {type(exc).__name__}: {exc}")
        return None
    tally.timed.extend(times)
    tally.busy += pool_wall + sum(dt for _, dt in times) + render_wall
    tally.rounds.append((len(pool_rows), [(pool_t0, pool_wall)]))
    _check_scan(tally, pool_rows, serial_rows, csv, first_csv, factor, rng)
    return csv, pool_rows, pool_wall, times


def _check_scan(tally, pool_rows, serial_rows, csv, first_csv, factor, rng):
    row_problems = checks.check_scan(pool_rows, serial_rows, csv, factor, rng)
    if first_csv is not None and csv != first_csv:
        row_problems.append(["scan output differs from the run's first scan"])
    for problems in row_problems:
        if problems:
            tally.fail(problems)


def run_scan(box, seed, clock, *, seconds, after_round=None):
    tally = Tally()
    rng = check_rng(seed)
    factor = checks.Factorizer()
    first = None
    while not tally.rounds or tally.busy < seconds:
        cycle = scan_cycle(box, tally, first, factor, rng, clock)
        if cycle is None:
            break
        if first is None:
            first = cycle[0]
            tally.digest.update(first.encode())
        if after_round is not None:
            after_round(tally.busy)
    return tally.finish(clock, round_clock=UNSCALED)


def traced_scan(box, seed, tracer, clock):
    """Spans recorded inside pool workers would be lost, so the traced pass
    is the jobs=1 scan, checked against an untraced pooled scan.  A first
    jobs=1 scan is a warm-up, as in traced()."""
    serial_scan(box, clock)
    factor = checks.Factorizer()
    plain = Tally()
    cycle = scan_cycle(box, plain, None, factor, check_rng(seed), clock)
    if cycle is None:
        return plain.finish(clock), {}
    first, pool_rows, pool_wall, serial_times = cycle
    tally = Tally()
    tally.attempted = len(pool_rows)
    try:
        with tracer.installed():
            rows, times = serial_scan(box, clock, tracer)
            csv = cli.render_scan_csv(rows)
    except Exception as exc:
        tally.failed = len(pool_rows)
        tally.problems.append(f"scan {box}: {type(exc).__name__}: {exc}")
        return tally.finish(clock), {}
    clock.tick()
    tally.timed = times
    tally.busy = sum(dt for _, dt in times)
    tally.digest.update(csv.encode())
    _check_scan(tally, pool_rows, rows, csv, first, factor, check_rng(seed))
    tally.finish(clock)
    serial_raw = sum(dt for _, dt in serial_times)
    serial_scaled = sum(clock.scaled(t0, dt) for t0, dt in serial_times)
    return tally, {
        "cli.pool.speedup": serial_raw / pool_wall,
        "trace.overhead_frac": tally.scaled_busy() / serial_scaled - 1}


def digest_rounds(workload, tiny):
    return 1 if tiny else TRACE_ROUNDS[workload]


def measure(workload, rounds, seed, seconds, tiny, clock, after_round=None):
    """The untraced run behind the end-to-end metrics."""
    if workload == "scan-box":
        return run_scan(rounds[0], seed, clock, seconds=seconds,
                        after_round=after_round)
    return run_rounds(RUNNERS[workload](), rounds, seed, clock,
                      seconds=seconds, after_round=after_round,
                      digest_rounds=digest_rounds(workload, tiny))


def traced(workload, rounds, seed, tiny):
    """An untraced then a traced pass over the same fixed rounds, so that
    counts repeat exactly for a seed, after an untraced warm-up pass over
    the same rounds: the first pass pays first-call and heap-growth costs
    (about a third of certify-hermitian's torus items).  Returns (traced tally, tracer,
    facts), where facts are the per-layer values not read from spans."""
    tracer = Tracer()
    tracer.child_cost = child_cost()
    clock = HostClock()
    if workload == "scan-box":
        tally, facts = traced_scan(rounds[0], seed, tracer, clock)
    else:
        n = digest_rounds(workload, tiny)
        runner = RUNNERS[workload]()
        run_rounds(runner, rounds[:n], seed, clock, seconds=math.inf,
                   digest_rounds=n)
        plain = run_rounds(runner, rounds[:n], seed, clock, seconds=math.inf,
                           digest_rounds=n)
        with tracer.installed():
            tally = run_rounds(runner, rounds[:n], seed, clock,
                               seconds=math.inf, digest_rounds=n,
                               tracer=tracer)
        facts = {"trace.overhead_frac":
                 tally.scaled_busy() / plain.scaled_busy() - 1}
    return tally, tracer, facts


def percentile_report(latencies):
    """p50 and p90 in ms, with the number of samples beyond p90 (zeros
    when nothing completed)."""
    xs = sorted(latencies) or [0.0]
    p90 = statistics.quantiles(xs, n=10)[8] if len(xs) >= 2 else xs[0]
    return {"p50_ms": 1e3 * statistics.median(xs), "p90_ms": 1e3 * p90,
            "samples": len(latencies),
            "beyond_p90": sum(1 for x in latencies if x > p90)}


def layer_metrics(tracer, facts):
    """Every PER_LAYER metric but the import times; a layer the workload
    never reaches reads 0."""
    summary = tracer.summary()
    counters = tracer.counters

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def secs(name):
        return summary.get(name, {}).get("s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("tristram.sigma_d_counting", "tristram.sigma_d",
                  "tristram.prime_divisors", "lattice.sigma_closed",
                  "seifert.seifert_matrix", "certify.float_rung",
                  "certify.mp_rung", "cyclotomic.nullity_exact"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.s"] = secs(layer)
    m["tristram.sigma_d_counting.us_per_call"] = 1e6 * ratio(
        secs("tristram.sigma_d_counting"), calls("tristram.sigma_d_counting"))
    m["tristram.sigma_d.useful_ratio"] = ratio(
        counters.get("tristram.sigma_d.useful", 0),
        counters.get("tristram.sigma_d.evaluated", 0))
    m["obstruction.classify.calls"] = calls("obstruction.classify")
    m["obstruction.classify.self_s"] = summary.get(
        "obstruction.classify", {}).get("self_s", 0.0)
    m["obstruction.candidates"] = counters.get("obstruction.candidates", 0)
    m["obstruction.survivors"] = counters.get("obstruction.survivors", 0)
    m["obstruction.certificate_to_json.s"] = secs(
        "obstruction.certificate_to_json")
    m["obstruction.certificate_to_json.bytes"] = counters.get(
        "obstruction.certificate_to_json.bytes", 0)
    m["fourmanifold.templates.calls"] = calls("fourmanifold.template_sequences")
    m["fourmanifold.templates.s"] = sum(secs(f"fourmanifold.{n}") for n in (
        "template_sequences", "ledger_from_sequence", "kikuchi_eliminate"))
    m["fourmanifold.kikuchi.applicable_ratio"] = ratio(
        counters.get("fourmanifold.kikuchi.applicable", 0),
        calls("fourmanifold.kikuchi_eliminate"))
    m["cli.render_scan_csv.s"] = secs("cli.render_scan_csv")
    m["cli.render_scan_csv.bytes"] = counters.get("cli.render_scan_csv.bytes", 0)
    m["seifert.dim_sum"] = counters.get("seifert.dim_sum", 0)
    m["tristram.build_form.s"] = secs("tristram.build_form")
    m["tristram.inertia.s"] = secs("tristram.inertia")
    m["certify.float_rung.resolved_ratio"] = ratio(
        counters.get("certify.float_rung.resolved", 0),
        calls("certify.float_rung"))
    m["certify.mp_rung.max_bits"] = counters.get("certify.mp_rung.max_bits", 0)
    # the pooled scan runs only on scan-box; a failed pass leaves no ratio
    m["cli.pool.speedup"] = 0.0
    m["trace.overhead_frac"] = 0.0
    m.update(facts)
    return m
