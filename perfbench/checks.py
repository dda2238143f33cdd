"""Output checks behind the benchmark's failure count.

Each check returns a list of problems; an empty list means the output is
correct.  The certificate checks work from the serialized JSON alone and
use their own factorization, so they do not trust the code under test.
"""

import json

from torustwist import TorusKnotParams, sigma_closed
from torustwist.cli import parse_scan_csv
from torustwist.tristram import _sigma_counting_brute, sigma_d_counting

# sigma_d is recomputed by O(pq) lattice enumeration only below this size
BRUTE_PQ_MAX = 60_000
# share of scan rows whose sigma_d is re-enumerated; every row is small
SCAN_BRUTE_SHARE = 1 / 32

GENUS = "genus-bound"
COND_III = "condition-iii"
COND_IV = "condition-iv(d="
TEMPLATE_REASONS = ("kikuchi-no-square", "characteristic-parity")


class Factorizer:
    """Smallest-prime-factor sieve, grown on demand."""

    def __init__(self):
        self._spf = [0, 1]

    def primes_of(self, n):
        if n >= len(self._spf):
            self._grow(max(n + 1, 2 * len(self._spf)))
        out = []
        while n > 1:
            f = self._spf[n]
            out.append(f)
            while n % f == 0:
                n //= f
        return out

    def _grow(self, size):
        spf = list(range(size))
        i = 2
        while i * i < size:
            if spf[i] == i:
                for j in range(i * i, size, i):
                    if spf[j] == j:
                        spf[j] = i
            i += 1
        self._spf = spf


def _lhs(d, w):
    a = d // 2
    return 2 * a * (d - a) * w * w // (d * d)


def _passes_iv(sigma, d, w):
    s = sigma.get(d)
    return s is not None and _lhs(d, w) in (-s, 2 - s)


def _survives(p, q, sigma, w, factor):
    """omega = w passes the genus bound, condition iii and condition iv at
    every prime divisor of w."""
    return ((w - 1) * (w - 2) <= (p - 1) * (q - 1)
            and not (w % 2 == 0 and w <= p)
            and all(_passes_iv(sigma, d, w) for d in factor.primes_of(w)))


def check_certificate(p, q, text, factor, rng):
    """Re-derive a NotInT/Undecided certificate for T(p,q) from its JSON."""
    cert = json.loads(text)
    problems = []
    if cert["normalized"] != [p, q] or cert["trivial"] or cert["exceptional"]:
        return [f"T({p},{q}): unexpected header {cert['normalized']}"]
    genus_cap = (p - 1) * (q - 1)
    sigma = {int(d): v for d, v in cert["sigma_inputs"].items()}
    for d, v in sigma.items():
        if factor.primes_of(d) != [d] or v % 2 or v > -4:
            problems.append(f"T({p},{q}): bad sigma_{d} = {v}")
    templates = [t for t in cert["templates"] if t["applicable"]]

    omegas = sorted([e[0] for e in cert["eliminations"]]
                    + [s[1] for s in cert["survivors"]])
    if omegas != list(range(2, q)):
        problems.append(f"T({p},{q}): omega does not cover [2,{q - 1}] once")
    for w, reason in cert["eliminations"]:
        genus_ok = (w - 1) * (w - 2) <= genus_cap
        if reason == GENUS:
            ok = not genus_ok
        elif reason == COND_III:
            ok = genus_ok and w % 2 == 0 and w <= p
        elif reason.startswith(COND_IV):
            d = int(reason[len(COND_IV):-1])
            primes = factor.primes_of(w)
            ok = (genus_ok and not (w % 2 == 0 and w <= p) and d in primes
                  and d in sigma and not _passes_iv(sigma, d, w)
                  and all(_passes_iv(sigma, e, w) for e in primes if e < d))
        elif reason in TEMPLATE_REASONS:
            ok = (w % 2 == 1 and _survives(p, q, sigma, w, factor)
                  and any(w not in t["admissible"] for t in templates))
        else:
            ok = False
        if not ok:
            problems.append(f"T({p},{q}): elimination ({w}, {reason}) "
                            "does not re-derive")
    for n, w in cert["survivors"]:
        if n != 1 or not _survives(p, q, sigma, w, factor) or (
                w % 2 == 1 and any(w not in t["admissible"] for t in templates)):
            problems.append(f"T({p},{q}): survivor {w} should be eliminated")
    want = "NotInT" if not cert["survivors"] else "Undecided"
    if cert["verdict"] != want:
        problems.append(f"T({p},{q}): verdict {cert['verdict']} != {want}")
    if 2 in sigma and sigma_closed(TorusKnotParams(p, q)) != sigma[2]:
        problems.append(f"T({p},{q}): sigma_2 disagrees with sigma_closed")
    if p * q <= BRUTE_PQ_MAX:
        problems.extend(check_sigma_brute(p, q, sigma, rng))
    return problems


def check_sigma_brute(p, q, sigma, rng):
    """Recompute sigma_d at one seeded d by O(pq) lattice enumeration."""
    if not sigma:
        return []
    d = rng.choice(sorted(sigma))
    if _sigma_counting_brute(p, q, d) != sigma[d]:
        return [f"T({p},{q}): sigma_{d} disagrees with enumeration"]
    return []


def check_hermitian(item, value):
    kind, args = item
    if kind == "torus":
        p, q, d = args
        if value != sigma_d_counting(p, q, d):
            return [f"T({p},{q}) d={d}: hermitian {value} != counting"]
        return []
    k = args[0]
    if (value.n_plus, value.n_zero, value.n_minus) != (k, 0, k):
        return [f"fixture k={k}: inertia {value}"]
    return []


def check_scan(pool_rows, serial_rows, csv_text, factor, rng):
    """Per-row problem lists for one scan of a box."""
    parsed = parse_scan_csv(csv_text)
    problems = []
    for i, row in enumerate(pool_rows):
        p, q = row["p"], row["q"]
        bad = []
        if i >= len(serial_rows) or serial_rows[i] != row:
            bad.append(f"T({p},{q}): jobs=1 and pooled rows differ")
        if i >= len(parsed) or parsed[i] != row:
            bad.append(f"T({p},{q}): CSV round trip changed the row")
        sigma = {int(d): v for d, v in row["sigma_d_used"].items()}
        if row["exceptional"]:
            if row["verdict"] != "TrivialOrExceptional" or sigma:
                bad.append(f"T({p},{q}): exceptional row {row['verdict']}")
        else:
            want = "NotInT" if not row["survivors"] else "Undecided"
            if row["verdict"] != want:
                bad.append(f"T({p},{q}): verdict {row['verdict']} != {want}")
            # the sigma column comes from sigma_closed, sigma_2 from counting
            if 2 in sigma and row["sigma"] != sigma[2]:
                bad.append(f"T({p},{q}): sigma column != sigma_2")
            for n, w in row["survivors"]:
                if n != 1 or not _survives(p, q, sigma, w, factor):
                    bad.append(f"T({p},{q}): survivor {w} should be eliminated")
            if rng.random() < SCAN_BRUTE_SHARE:
                bad.extend(check_sigma_brute(p, q, sigma, rng))
        problems.append(bad)
    if len(serial_rows) != len(pool_rows) or len(parsed) != len(pool_rows):
        problems.append(["row counts differ between jobs=1, pooled and CSV"])
    return problems
