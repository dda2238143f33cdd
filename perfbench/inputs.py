"""Seeded inputs for the four workloads.

Every workload is a list of rounds.  A round samples each stratum of the
workload's size range once, so rounds cost about the same and a run's
throughput does not hinge on how many expensive knots one seed happened to
draw.  The same (workload, seed, tiny) always gives the same rounds, and no
knot appears twice in one workload's rounds; scan-box is one box, scanned
once per round.
"""

import math
import random
from bisect import bisect_left, bisect_right
from math import gcd

import numpy as np

from torustwist import HermitianForm

# certify-hermitian: primes d for the torus forms, rotated over the dimension
# strata so that every run holds the same mix of (dimension, d) sizes
HERMITIAN_PRIMES = (2, 3, 5, 7)
# block entry scale of the ill-conditioned fixtures: the small eigenvalue of
# [[1, n], [n, n^2 - 1]] is about -1/n^2, far below double precision at
# scale n^2, so certification needs the mpmath rungs
FIXTURE_N = (2 ** 25, 2 ** 27)


def _rng(workload, seed):
    return random.Random(f"perfbench/{workload}/{seed}")


def _non_exceptional(p, q):
    return gcd(p, q) == 1 and q % p not in (1, p - 1)


def _log_point(lo, hi, u):
    return lo * (hi / lo) ** u


def _knot_rounds(rng, n, count, draw):
    """`count` rounds of n distinct non-exceptional knots.  draw(s, j) gives
    a candidate (p, q) for stratum s of one coordinate paired with stratum
    j of the other, the pairing a seeded permutation (a Latin hypercube)."""
    seen = set()
    rounds = []
    for _ in range(count):
        rnd = []
        for s, j in enumerate(rng.sample(range(n), n)):
            while True:
                p, q = draw(s, j)
                if _non_exceptional(p, q) and (p, q) not in seen:
                    break
            seen.add((p, q))
            rnd.append((p, q))
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


def classify_wide(seed, tiny=False):
    """Knots T(p,q), p log-uniform in [100, 1000), p+2 <= q <= 3p: the
    sigma_d window count dominates."""
    rng = _rng("classify-wide", seed)
    lo, hi = (30, 60) if tiny else (100, 1000)
    n = 4 if tiny else 32

    def draw(s, j):
        p = int(_log_point(lo, hi, (s + rng.random()) / n))
        return p, p + 2 + int((j + rng.random()) / n * (2 * p - 1))

    return _knot_rounds(rng, n, 3 if tiny else 120, draw)


THIN_P = tuple(p for p in range(5, 14)
               if any(_non_exceptional(p, q) for q in range(p + 2, 2 * p + 2)))


def classify_thin(seed, tiny=False):
    """Knots with p <= 13 and q log-uniform in [3000, 30000): the O(q)
    candidate list and the certificate JSON dominate."""
    rng = _rng("classify-thin", seed)
    lo, hi = (300, 600) if tiny else (3000, 30000)
    n = 4 if tiny else 24

    def draw(s, j):
        q = int(_log_point(lo, hi, (s + rng.random()) / n))
        return THIN_P[j * len(THIN_P) // n], q

    return _knot_rounds(rng, n, 3 if tiny else 120, draw)


def scan_box(seed, tiny=False):
    """The coprime box p in [2+a, 60+a], q in [2+b, 120+b] with a seeded
    shift (a, b); the run repeats it, one scan per round."""
    rng = _rng("scan-box", seed)
    a, b = rng.randint(0, 2), rng.randint(0, 6)
    if tiny:
        return [((2 + a, 12 + a), (2 + b, 24 + b))]
    return [((2 + a, 60 + a), (2 + b, 120 + b))]


def fixture_form(rng, k):
    """Block-diagonal copies of the ill-conditioned 2x2 form at d = 2 with
    no torus-knot source, so nullity is certified by exact cyclotomic
    elimination and the signs by the mpmath rungs.  Inertia is (k, 0, k)."""
    coeffs = np.zeros((2 * k, 2 * k, 2), dtype=np.int64)
    for blk in range(k):
        n = rng.randint(*FIXTURE_N)
        i = 2 * blk
        coeffs[i:i + 2, i:i + 2, 0] = [[1, n], [n, n * n - 1]]
    return HermitianForm(2, 2 * k, coeffs)


def _dimension_pools(centers, size):
    """For each target Seifert dimension, the `size` coprime (p, q) whose
    dimension (p-1)(q-1) is nearest in ratio, no pair in two pools."""
    top = int(centers[-1] * 1.2)
    by_dim = sorted((math.log((p - 1) * (q - 1)), p, q)
                    for p in range(2, math.isqrt(top) + 2)
                    for q in range(p + 1, top + 2)
                    if gcd(p, q) == 1 and (p - 1) * (q - 1) < top)
    keys = [e[0] for e in by_dim]
    taken = set()
    pools = []
    for c in map(math.log, centers):
        window = by_dim[bisect_left(keys, c - 0.2):bisect_right(keys, c + 0.2)]
        near = sorted((abs(x - c), p, q) for x, p, q in window
                      if (p, q) not in taken)[:size]
        pools.append([(p, q) for _, p, q in near])
        taken.update(pools[-1])
    return pools


def certify_hermitian(seed, tiny=False):
    """Per round: one torus form per log-spaced Seifert dimension in
    [50, 500] at a prime d, plus six fixtures; over four rounds every
    dimension meets every d, and over two rounds the fixtures cover 1..12
    blocks.  Items are ("torus", (p, q, d)) or ("fixture", (k, form))."""
    # the certified route imports mpmath on first use; load it in set-up so
    # the first item is not charged for it
    import mpmath  # noqa: F401

    rng = _rng("certify-hermitian", seed)
    lo, hi = (6, 30) if tiny else (50, 500)
    n = 4 if tiny else 24
    n_rounds = 2 if tiny else 8
    pools = _dimension_pools([_log_point(lo, hi, s / (n - 1)) for s in range(n)],
                             n_rounds)
    for pool in pools:
        rng.shuffle(pool)
    offset = rng.randrange(len(HERMITIAN_PRIMES))
    blocks = 1 if tiny else 6
    rounds = []
    for r in range(n_rounds):
        rnd = []
        for s, pool in enumerate(pools):
            p, q = pool[r]
            d = HERMITIAN_PRIMES[(s + r + offset) % len(HERMITIAN_PRIMES)]
            rnd.append(("torus", (p, q, d)))
        for j in range(1, blocks + 1):
            k = 2 * j - (r + j) % 2
            rnd.append(("fixture", (k, fixture_form(rng, k))))
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


GENERATORS = {
    "classify-wide": classify_wide,
    "classify-thin": classify_thin,
    "scan-box": scan_box,
    "certify-hermitian": certify_hermitian,
}


def generate(workload, seed, tiny=False):
    return GENERATORS[workload](seed, tiny)
