"""Command-line front end.

Subcommands:
  sigma     signature of one torus knot (oracle / closed / seifert routes)
  classify  full obstruction certificate for one knot
  tables    verdict tables for the built-in knot families
  scan      classify every coprime pair in a parameter box

classify, tables and scan take every sigma_d from the integer counting
kernel and import no numpy; only sigma's seifert route runs certified
arithmetic, reached through the package's lazy `tristram_sigma`, which
loads `tristram` and numpy on first use.

Exit codes: 0 success, 2 invalid input, 3 internal consistency failure,
4 precision exhaustion (sigma only).
"""

import argparse
import json
import os
import sys

from .core import TorusKnotParams, normalize
from .errors import (DomainError, InternalCheckError, SequenceSemanticError,
                     UndecidedSignError)
from .fourmanifold import ledger_from_sequence, parse_sequence
from .lattice import sigma_closed, sigma_oracle
from .obstruction import (MAX_Q, NOT_IN_T, SIGMA_METHOD, certificate_to_json,
                          certificate_to_text, check_max_q, classify,
                          genus_cutoff)

SCAN_SCHEMA = "torustwist-scan/1"
SCAN_COLUMNS = ("p", "q", "exceptional", "verdict", "survivors", "sigma",
                "sigma_d_used")
# scan lists a box's pairs before any work, so besides MAX_Q on its bounds
# a box may hold at most this many (p, q) cells; a larger one is rejected
# with DomainError (exit 2) before any pair is listed.
MAX_SCAN_CELLS = 2 ** 20
# sigma's oracle enumerates the (p-1)(q-1) lattice points and its seifert
# route diagonalizes the two dense halves, of about half that dimension,
# of the form's real reduction.  At T(2, 2049), which is this bound, the
# seifert route took 0.76-0.81 s and 94 MB peak RSS (two runs, 2-vCPU Intel
# Xeon, one BLAS thread).  A larger knot is rejected on those routes with
# DomainError (exit 2) before any work.
MAX_SIGMA_DIM = 2 ** 11
# tables and scan classify every knot they list, at 0.35-0.48 us per
# candidate omega up to the knot's genus cutoff (one classify of
# T(10001,10005) or T(100001,100003) per fresh process, six runs each;
# 2-vCPU Intel Xeon, Python 3.11.7), so at this bound on the genus cutoffs
# summed over the knots a table or a scan is 0.8 to 1.1 minutes of work.  A
# larger table is rejected with DomainError (exit 2) after its rows are
# listed, and a larger scan as soon as its pairs pass the bound; either
# before any knot is classified.
MAX_TABLE_OMEGAS = 2 ** 27


def _sigma_one(k, method):
    nk, mirror = normalize(k)
    if nk.is_trivial:
        return 0
    if method == "seifert":
        from . import tristram_sigma   # the certified route: numpy, lazily
        return tristram_sigma(k, 2)
    s = sigma_oracle(nk) if method == "oracle" else sigma_closed(nk)
    return -s if mirror else s


def cmd_sigma(args) -> int:
    k = TorusKnotParams(args.p, args.q)
    nk, _ = normalize(k)
    check_max_q(k, nk)
    dim = (nk.p - 1) * (nk.q - 1)
    if dim > MAX_SIGMA_DIM and (args.all or args.method != "closed"):
        raise DomainError(f"{k}: (p-1)(q-1) = {dim} exceeds MAX_SIGMA_DIM = "
                          f"{MAX_SIGMA_DIM} on the oracle and seifert routes")
    if args.all:
        values = {m: _sigma_one(k, m) for m in ("oracle", "closed", "seifert")}
        for m, v in values.items():
            print(f"{m}: {v}")
        if len(set(values.values())) != 1:
            raise InternalCheckError(f"signature methods disagree for {k}: {values}")
    else:
        print(_sigma_one(k, args.method))
    return 0


def cmd_classify(args) -> int:
    k = TorusKnotParams(args.p, args.q)
    cert = classify(k)
    # read and check the sequence before anything is written
    rep = (_sequence_report(args.sequence, cert.normalized)
           if args.sequence else None)
    if args.format == "json":
        extra = {"sequence_ledger": rep} if rep else None
        sys.stdout.write(certificate_to_json(cert, extra))
    else:
        sys.stdout.write(certificate_to_text(cert))
        if rep:
            print("sequence-ledger:")
            print(f"  file: {args.sequence}")
            print(f"  sigma(M)={rep['sigma_m']} b2+={rep['b2_plus']} "
                  f"b2-={rep['b2_minus']} "
                  f"xi.xi=-w^2{rep['xi_self_intersection'][0]:+d}")
    return 0


def _sequence_report(path, nk):
    """The ledger of the twist sequence in the file path, which must start
    at the normalized knot nk itself (not at its mirror).  Its
    xi_self_intersection lists the coefficients [C, 0, -1] of
    xi.xi = -w^2 + C in powers of w.  Any OSError
    from reading the file (missing, a directory, unreadable) is bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise DomainError(str(e)) from e
    seq = parse_sequence(text)
    if normalize(seq.start) != (nk, False):
        raise SequenceSemanticError(
            f"{path}: sequence starts at {seq.start}, not at {nk}")
    ledger = ledger_from_sequence(seq)
    return {
        "sigma_m": ledger.sigma_m,
        "b2_plus": ledger.b2_plus,
        "b2_minus": ledger.b2_minus,
        "xi_self_intersection": [ledger.xi_constant, 0, -1],
    }


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _family_rows(which, n_max):
    """The (label, p, q) rows of a family table for n = 1..n_max, in order.

    Raises DomainError if n_max < 1, or at the first row whose q exceeds
    MAX_Q, so the listing stops there rather than after every n.
    """
    if n_max < 1:
        raise DomainError(f"--n-max must be at least 1, got {n_max}")
    rows = []

    def add(label, p, q):
        if q > MAX_Q:
            raise DomainError(f"table {which} row T({p},{q}) ({label}): "
                              f"q exceeds MAX_Q = {MAX_Q}")
        rows.append((label, p, q))

    if which == "thm1.3":
        for n in range(1, n_max + 1):
            for p in (8 * n + 1, 8 * n + 3):
                add("p=%d (mod8=%d)" % (p, p % 8), p, p + 4)
    elif which == "thm1.5":
        for n in range(1, n_max + 1):
            r = 4
            while True:  # case p = 2nr+1, r even >= 4, 2p >= (r/2+1)^2 - r/2
                p = 2 * n * r + 1
                if 2 * p < (r // 2 + 1) ** 2 - r // 2:
                    break
                add(f"r={r} n={n} p=2nr+1", p, p + r)
                r += 2
            r = 8
            while True:  # case p = 2nr-1, r even >= 8, 2p >= (r/2-1)^2 - r/2
                p = 2 * n * r - 1
                if 2 * p < (r // 2 - 1) ** 2 - r // 2:
                    break
                add(f"r={r} n={n} p=2nr-1", p, p + r)
                r += 2
    elif which == "example1.6":
        for n in range(1, n_max + 1):
            for r in range(4, 15, 2):
                add(f"r={r} n={n} p=2nr+1", 2 * n * r + 1, 2 * n * r + 1 + r)
            for r in range(8, 21, 2):
                add(f"r={r} n={n} p=2nr-1", 2 * n * r - 1, 2 * n * r - 1 + r)
    else:
        raise ValueError(f"unknown table {which!r}")
    return rows


def cmd_tables(args) -> int:
    family = _family_rows(args.which, args.n_max)
    work = sum(genus_cutoff(p, q) for _, p, q in family)
    if work > MAX_TABLE_OMEGAS:
        raise DomainError(f"table {args.which} up to n = {args.n_max}: its "
                          f"genus cutoffs sum to {work}, above "
                          f"MAX_TABLE_OMEGAS = {MAX_TABLE_OMEGAS}")
    rows = []
    for label, p, q in family:
        cert = classify(TorusKnotParams(p, q))
        rows.append({"family": label, "p": p, "q": q, "verdict": cert.verdict})
    if args.format == "json":
        print(json.dumps({"schema": "torustwist-tables/1", "table": args.which,
                          "rows": rows}, indent=2))
    elif args.format == "csv":
        print("family,p,q,verdict")
        for r in rows:
            print(f"{r['family']},{r['p']},{r['q']},{r['verdict']}")
    else:
        wide = max(len(r["family"]) for r in rows)
        print(f"| {'family':<{wide}} | p   | q   | verdict |")
        print(f"|{'-' * (wide + 2)}|-----|-----|---------|")
        for r in rows:
            print(f"| {r['family']:<{wide}} | {r['p']:<3} | {r['q']:<3} "
                  f"| {r['verdict']} |")
    bad = [r for r in rows if r["verdict"] != NOT_IN_T]
    if bad:
        raise InternalCheckError(
            f"family rows escaped the obstruction: {bad}")
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _scan_pairs(p_range, q_range):
    """The coprime pairs p < q of the box, in (p, q) order."""
    from math import gcd

    for p in range(p_range[0], p_range[1] + 1):
        for q in range(q_range[0], q_range[1] + 1):
            if p < q and gcd(p, q) == 1:
                yield (p, q)


def _scan_row(pair):
    p, q = pair
    cert = classify(TorusKnotParams(p, q))
    sigma = 0 if cert.trivial else sigma_closed(cert.normalized)
    return {
        "p": p,
        "q": q,
        "exceptional": cert.trivial or cert.exceptional,
        "verdict": cert.verdict,
        "survivors": [[s.n, s.omega] for s in cert.survivors],
        "sigma": sigma,
        "sigma_d_used": {str(d): v for d, v in sorted(cert.sigma_inputs.items())},
    }


def scan_rows(p_range, q_range, jobs=1):
    """Classify every coprime pair in the box; rows sorted by (p, q), and
    identical for every parallelism degree.  At most min(jobs, usable CPUs,
    number of pairs) worker processes are started.  Jobs below 1, or a box
    with a bound above MAX_Q in absolute value or with more than
    MAX_SCAN_CELLS cells, is rejected before any pair is listed, so every
    pair classified has normalized q <= MAX_Q.  The genus cutoffs of the box's nontrivial
    knots may sum to at most MAX_TABLE_OMEGAS; the pairs are listed up to
    the first that passes it, and then the box is rejected before any
    classify."""
    if jobs < 1:
        raise DomainError(f"--jobs must be at least 1, got {jobs}")
    if max(map(abs, (*p_range, *q_range))) > MAX_Q:
        raise DomainError(f"scan box {list(p_range)} x {list(q_range)} "
                          f"exceeds MAX_Q = {MAX_Q}")
    cells = (max(0, p_range[1] - p_range[0] + 1)
             * max(0, q_range[1] - q_range[0] + 1))
    if cells > MAX_SCAN_CELLS:
        raise DomainError(f"scan box {list(p_range)} x {list(q_range)} has "
                          f"{cells} cells, above MAX_SCAN_CELLS = "
                          f"{MAX_SCAN_CELLS}")
    pairs = []
    work = 0
    for p, q in _scan_pairs(p_range, q_range):
        a, b = sorted((abs(p), abs(q)))   # the normal form of T(p, q)
        if a > 1:
            work += genus_cutoff(a, b)
            if work > MAX_TABLE_OMEGAS:
                raise DomainError(
                    f"scan box {list(p_range)} x {list(q_range)}: the genus "
                    f"cutoffs of its knots sum past MAX_TABLE_OMEGAS = "
                    f"{MAX_TABLE_OMEGAS}")
        pairs.append((p, q))
    # the CPUs this process may run on: os.cpu_count() counts the host's,
    # also under taskset or a container's CPU set
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(jobs, cpus, len(pairs))
    if workers <= 1:
        return [_scan_row(pair) for pair in pairs]
    # about 16 chunks per worker: enough to balance the load, few enough
    # that the parent's per-chunk work does not cap the pool
    chunksize = -(-len(pairs) // (16 * workers))
    from concurrent.futures import ProcessPoolExecutor   # only with a pool
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_scan_row, pairs, chunksize=chunksize))


def render_scan_json(rows, config) -> str:
    return json.dumps({"schema": SCAN_SCHEMA, "config": config, "rows": rows},
                      indent=2) + "\n"


def render_scan_csv(rows) -> str:
    out = [f"# {SCAN_SCHEMA}", ",".join(SCAN_COLUMNS)]
    for r in rows:
        survivors = ";".join(f"{n}:{w}" for n, w in r["survivors"])
        sigmas = ";".join(f"{d}:{v}" for d, v in r["sigma_d_used"].items())
        out.append(",".join([str(r["p"]), str(r["q"]),
                             str(r["exceptional"]).lower(), r["verdict"],
                             survivors, str(r["sigma"]), sigmas]))
    return "\n".join(out) + "\n"


def parse_scan_csv(text: str):
    lines = text.strip("\n").split("\n")
    if (len(lines) < 2 or lines[0] != f"# {SCAN_SCHEMA}"
            or lines[1] != ",".join(SCAN_COLUMNS)):
        raise ValueError("not a scan csv")
    rows = []
    for line in lines[2:]:
        p, q, exc, verdict, survivors, sigma, sigmas = line.split(",")
        rows.append({
            "p": int(p), "q": int(q), "exceptional": exc == "true",
            "verdict": verdict,
            "survivors": [[int(a), int(b)] for a, b in
                          (s.split(":") for s in survivors.split(";") if s)],
            "sigma": int(sigma),
            "sigma_d_used": {a: int(b) for a, b in
                             (s.split(":") for s in sigmas.split(";") if s)},
        })
    return rows


def render_scan_markdown(rows) -> str:
    out = ["| p | q | exceptional | verdict | survivors | sigma |",
           "|---|---|-------------|---------|-----------|-------|"]
    for r in rows:
        survivors = ";".join(f"{n}:{w}" for n, w in r["survivors"]) or "-"
        out.append(f"| {r['p']} | {r['q']} | {str(r['exceptional']).lower()} "
                   f"| {r['verdict']} | {survivors} | {r['sigma']} |")
    return "\n".join(out) + "\n"


def cmd_scan(args) -> int:
    # the schema's fixed config keys: one sigma_d route, no prime cap
    config = {"p_range": [args.p_min, args.p_max],
              "q_range": [args.q_min, args.q_max],
              "sigma_method": SIGMA_METHOD,
              "prime_cap": None}
    out = sys.stdout
    try:
        rows = scan_rows((args.p_min, args.p_max), (args.q_min, args.q_max),
                         jobs=args.jobs)
    except KeyboardInterrupt:
        out.write("# scan truncated by interrupt\n")
        out.flush()
        return 130
    if args.format == "json":
        out.write(render_scan_json(rows, config))
    elif args.format == "csv":
        out.write(render_scan_csv(rows))
    else:
        out.write(render_scan_markdown(rows))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="torustwist",
        description="Signature invariants of torus knots and certified "
                    "obstructions to untying them by a single twist.")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sigma", help="signature of T(p,q)")
    ps.add_argument("-p", type=int, required=True)
    ps.add_argument("-q", type=int, required=True)
    ps.add_argument("--method", choices=("oracle", "closed", "seifert"),
                    default="closed")
    ps.add_argument("--all", action="store_true",
                    help="print all three methods and require agreement")
    ps.set_defaults(func=cmd_sigma)

    pc = sub.add_parser("classify", help="obstruction certificate for T(p,q)")
    pc.add_argument("-p", type=int, required=True)
    pc.add_argument("-q", type=int, required=True)
    pc.add_argument("--sequence", help="twist-sequence file to append")
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.set_defaults(func=cmd_classify)

    pt = sub.add_parser("tables", help="family verdict tables")
    pt.add_argument("--which", choices=("thm1.3", "thm1.5", "example1.6"),
                    required=True)
    pt.add_argument("--n-max", type=int, default=2)
    pt.add_argument("--format", choices=("markdown", "csv", "json"),
                    default="markdown")
    pt.set_defaults(func=cmd_tables)

    pn = sub.add_parser("scan", help="classify all coprime pairs in a box")
    pn.add_argument("--p-min", type=int, required=True)
    pn.add_argument("--p-max", type=int, required=True)
    pn.add_argument("--q-min", type=int, required=True)
    pn.add_argument("--q-max", type=int, required=True)
    pn.add_argument("--jobs", type=int, default=1)
    pn.add_argument("--format", choices=("json", "csv", "markdown"),
                    default="json")
    pn.set_defaults(func=cmd_scan)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:   # every bad-input error in `errors` is one
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalCheckError as e:
        print(f"internal consistency failure: {e}", file=sys.stderr)
        return 3
    except UndecidedSignError as e:
        print(f"precision exhausted: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
