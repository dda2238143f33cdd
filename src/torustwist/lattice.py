"""Exact integer computation of torus knot signatures by lattice-point
counting.

sigma(T(p,q)) = sigma_plus - sigma_minus, where sigma_plus counts pairs
(i,j), 0 < i < p, 0 < j < q, with i/p + j/q in (0, 1/2) or (3/2, 2), and
sigma_minus counts those in (1/2, 3/2).  For coprime p, q the boundary
values are never attained; the enumeration checks this.  The closed forms
below evaluate the same quantity with integer floor arithmetic only.

The Tristram d-signature at a prime d counts the same pairs against a
window that moves with d (Litherland, "Signatures of iterated torus
knots", LNM 722, 1979): writing x(i,j) = i/p + j/q and s = a/d, a = [d/2],
the eigenvalue of d's Hermitian form (`tristram`) on the (i,j) monodromy
line is negative exactly when s < x(i,j) < 1 + s, positive otherwise, and
never zero for prime d; at d = 2 the window is (1/2, 3/2) above.  For each
i the positive j number [q|ap - di|/(dp)], so the count splits into two
floor sums over the i-ranges on either side of i = ap/d.  Only the first
is evaluated, in O(log) steps by the Euclid-like `floor_sum` recursion:
the sum over all i is a complete residue sum that Hermite's identity
closes in O(1), so the second follows from the first.  Its terms are
[(dq*i + b)/(dp)], and since dq*i is a multiple of d,
  [(dq*i + b)/(dp)] = [(q*i + [b/d])/p],
so at every d it is a floor sum at the moduli (p, q): the recursion visits
the levels of Euclid's algorithm on (p, q) whatever d is, and only its
start (n, b) moves with d.  That chain of levels is built once per knot
(`_euclid_chain`) and walked once per prime (`_walk`); `floor_sum` itself
is one build and one walk.  A point on the window boundary would be a
solution of iq + jp = N in the box, which one modular inverse decides,
also in O(log) steps.

All comparisons use exact integer cross-multiplication, never floats.  The
O(p*q) enumeration of any d-signature's window is the permanent
ground-truth oracle of the test suite; the closed forms and the window
count are the fast path.  The window count is also validated against
the certified Hermitian route across the whole test range; that route
stays authoritative.

This module counts, and imports neither numpy nor the certified route:
`sigma_d` counts at one prime, `sigma_d_sweep` at every prime up to a
bound on one chain.  `_routed` normalizes a knot and checks its value
(`_checked`) for any route; `tristram.tristram_sigma`, the one function
that picks a route, passes it this module's count or the Hermitian one.
"""

from bisect import bisect_left, bisect_right
from itertools import compress
from math import gcd, isqrt

from .core import TorusKnotParams, normalize
from .errors import DomainError, InternalCheckError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_upto(n: int) -> list:
    """The primes d <= n, ascending (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    for f in range(3, isqrt(n) + 1, 2):
        if sieve[f]:
            sieve[f * f::2 * f] = bytes(len(range(f * f, n + 1, 2 * f)))
    return [2, *compress(range(3, n + 1, 2), sieve[3::2])]


# The primes up to PRIME_TABLE_BOUND, sieved once at import (564 of them):
# sigma_d_sweep slices this table for any top within the bound, which covers
# the genus cutoff of every knot with pq up to about 2^24, and sieves afresh
# only above it.  The table is fixed, so no call grows or fills it.
PRIME_TABLE_BOUND = 2 ** 12
PRIME_TABLE = tuple(primes_upto(PRIME_TABLE_BOUND))


def prime_divisors(n: int) -> list:
    """Distinct prime divisors of n >= 1, ascending, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def _require_prime(d: int):
    if not is_prime(d):
        raise DomainError(f"d={d}: need a prime")


def _require_standard(k: TorusKnotParams):
    if not (0 < k.p < k.q):
        raise DomainError(f"{k}: expected 0 < p < q")


def sigma_d_enumerated(p: int, q: int, d: int) -> int:
    """sigma_d(T(p,q)), 0 < p < q, by enumeration: (i,j) counts -1 when
    i/p + j/q lies in the window (a/d, 1 + a/d), a = [d/2], else +1.  At
    d = 2 the window is (1/2, 3/2)."""
    lo, hi = (d // 2) * p * q, (d + d // 2) * p * q
    plus = minus = 0
    for i in range(1, p):
        iq = i * q
        for j in range(1, q):
            x = d * (iq + j * p)  # compare i/p + j/q against the window
            if x == lo or x == hi:
                raise InternalCheckError(f"T({p},{q}): lattice point "
                                         f"({i},{j}) on the d={d} boundary")
            if lo < x < hi:
                minus += 1
            else:
                plus += 1
    return plus - minus


def sigma_oracle(k: TorusKnotParams) -> int:
    """Signature by exhaustive enumeration: sigma_d_enumerated at d = 2."""
    _require_standard(k)
    return sigma_d_enumerated(k.p, k.q, 2)


def sigma_closed(k: TorusKnotParams) -> int:
    """Two-term floor-sum closed form; equals sigma_oracle on every input."""
    _require_standard(k)
    p, q = k.p, k.q
    h = p // 2
    s = 0
    for i in range(1, (p - 1) // 2 + 1):
        s += ((p - 2 * i) * q) // (2 * p) - ((3 * p - 2 * h - 2 * i) * q) // (2 * p)
    return 2 * s + (p - 1 - 2 * h) * (q - 1)


def sigma_p_plus_r(p: int, r: int) -> int:
    """sigma(T(p, p+r)) for odd p and even r, 2 <= r < p, via the r/2-term
    correction sum."""
    if p <= 0 or p % 2 == 0:
        raise DomainError(f"p={p}: need a positive odd p")
    if r % 2 != 0 or not 2 <= r < p:
        raise DomainError(f"r={r}: need even r with 2 <= r < p")
    if gcd(p, r) != 1:
        raise DomainError(f"T({p},{p + r}) is not a knot (gcd(p,r)={gcd(p, r)})")
    s = 0
    for i in range(1, r // 2 + 1):
        s += ((2 * i - 1) * p) // (2 * r) - ((2 * i - 1) * p + r) // (2 * r)
    return -((p - 1) * (p + r + 1)) // 2 + 2 * s


def sigma_2nr_closed(n: int, r: int, sign: int) -> int:
    """sigma(T(p, p+r)) for p = 2nr + sign, sign in {+1, -1}, even r."""
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    if n < 1:
        raise DomainError(f"n={n}: need a positive n")
    if r % 2 != 0 or r < 2:
        raise DomainError(f"r={r}: need even r >= 2")
    p = 2 * n * r + sign
    if not r < p:
        raise DomainError(f"r={r} >= p={p}")
    base = -((p - 1) * (p + r + 1)) // 2
    return base if sign == 1 else base - r


def sigma_p_plus_4(p: int) -> int:
    """sigma(T(p, p+4)) for odd p, split by p mod 8."""
    if p <= 0 or p % 2 == 0:
        raise DomainError(f"p={p}: need a positive odd p")
    base = -((p - 1) * (p + 5)) // 2
    return base if p % 8 in (1, 3) else base - 4


def corollary_bound(k: TorusKnotParams) -> int:
    """Upper bound -2*[p/2]*[q/2] for sigma(T(p,q)), 0 < p < q."""
    _require_standard(k)
    return -2 * (k.p // 2) * (k.q // 2)


# ---------------------------------------------------------------------------
# Tristram d-signatures by the window count
# ---------------------------------------------------------------------------


def _euclid_chain(m: int, a: int) -> tuple:
    """The levels that `floor_sum`'s recursion visits for (m, a), m >= 1
    and a >= 0: Euclid's algorithm on (m, a) as the triples
    (M, A mod M, [A/M]), starting at (M, A) = (m, a) and stepping to
    (A mod M, M), the last one with A mod M = 0.  O(log m) levels."""
    chain = []
    while True:
        k, r = divmod(a, m)
        chain.append((m, r, k))
        if not r:
            return tuple(chain)
        m, a = r, m


def _walk(chain: tuple, n: int, b: int) -> int:
    """sum_{i=0}^{n-1} [(a*i + b) / m] for the (m, a) whose Euclid chain is
    `chain`, n, b >= 0 (the recursion of the AtCoder Library's floor_sum).
    Each level takes the whole multiples of M out of A and b and moves to
    the transposed sum; the last level, with A mod M = 0, always ends it."""
    total = 0
    for m, r, k in chain:
        total += n * (n - 1) // 2 * k + n * (b // m)
        y = r * n + b % m
        if y < m:
            return total
        n, b = divmod(y, m)


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} [(a*i + b) / m] for n >= 0, m >= 1, a, b >= 0, in
    O(log m) steps: (m, a)'s Euclid chain, walked with (n, b)."""
    return _walk(_euclid_chain(m, a), n, b)


def _lattice_hit(p: int, q: int, n: int) -> bool:
    """True iff i*q + j*p = n for some 0 < i < p, 0 < j < q."""
    g = gcd(p, q)
    if n % g:
        return False
    pg, qg, n = p // g, q // g, n // g
    i = n * pow(qg, -1, pg) % pg or pg   # least i > 0 on the line
    j = (n - i * qg) // pg
    # steps (i, j) -> (i + pg, j - qg) until j < q
    t = max(0, (j - q) // qg + 1)
    return i + t * pg < p and j - t * qg > 0


def _window_counts(p: int, q: int, primes) -> list:
    """[sigma_d(T(p,q)) for d in primes] by the window count, for
    0 < p < q coprime and primes d, which the callers check.

    With a = [d/2] and t_i = q(ap - di)/(dp), the pairs (i,j) whose
    x = i/p + j/q lies outside the window (s, 1+s), s = a/d, number
    [|t_i|] at each i: for i <= m = [(ap-1)/d] they are the j with x < s,
    and for i > m the j with x > 1+s, whose bound q - t_i is q plus a
    nonpositive number.  Neither range needs clamping, so the positive
    count is lo + hi, lo = sum_{i<=m} [t_i] and hi = sum_{i>m} [-t_i].
    Counted from i = m down, lo is one floor sum,
    sum_{i<m} [(dq*i + b)/(dp)] with b = q(ap - dm).  Since dq*i is a
    multiple of d, [(dq*i + b)/(dp)] = [(q*i + [b/d])/p], so lo is the
    floor sum at the moduli (p, q) with b replaced by [b/d]: its recursion
    visits the levels of (p, q)'s Euclid chain whatever d is, so the chain
    is built once and walked once per prime.  hi follows from lo in O(1):
      - [-t] = -[t] - 1 + [t in Z], and for i > m, t_i is an integer only
        at i = ap/d, which is an integer iff d | p.  This uses that d is
        prime; for a prime power d it must be re-derived.
      - S = sum_{i=1}^{p-1} [t_i] is complete: i -> p - i turns it into
        sum_i [aq/d + qi/p] - q(p-1); i -> qi mod p permutes the nonzero
        residues mod p, splitting off sum_i [qi/p] = (p-1)(q-1)/2; and
        Hermite's identity sum_{r<p} [x + r/p] = [px] gives
        S = (p-1)(q-1)/2 - q(p-1) + [apq/d] - [aq/d].
    So positive = 2 lo - S - (p-1-m) + [d | p], and
    sigma_d = 2 * positive - (p-1)(q-1)
            = 2 (2 lo + m + [d | p] - [apq/d] + [aq/d]).
    The count holds only if no lattice point lies on the window boundary
    d(iq + jp) in {a*pq, (d+a)*pq}; that is checked exactly (it never
    happens for prime d and coprime p, q) and raises InternalCheckError.
    O(log q) steps per prime.
    """
    chain = _euclid_chain(p, q)
    pq = p * q
    out = []
    for d in primes:
        a = d // 2
        # d divides a*pq iff it divides (d+a)*pq iff it divides pq, since
        # d is prime and 0 < a < d; only then can d(iq + jp) meet either
        if pq % d == 0:
            for num in (a * pq, (d + a) * pq):
                if _lattice_hit(p, q, num // d):
                    raise InternalCheckError(
                        f"window boundary attained at ({p},{q},{d})")
        ap = a * p
        m = (ap - 1) // d
        lo = _walk(chain, m, q * (ap - d * m) // d)
        out.append(2 * (2 * lo + m + (p % d == 0) - ap * q // d + a * q // d))
    return out


def sigma_d_counting(p: int, q: int, d: int) -> int:
    """Exact integer fast path for sigma_d(T(p,q)), 0 < p < q coprime and d
    prime, else DomainError: the window count `_window_counts`."""
    _require_prime(d)
    if not 0 < p < q:
        raise DomainError(f"need 0 < p < q, got ({p},{q})")
    if gcd(p, q) != 1:
        raise DomainError(f"T({p},{q}) is not a knot (gcd = {gcd(p, q)})")
    return _window_counts(p, q, (d,))[0]


def _checked(nk: TorusKnotParams, d: int, s: int) -> int:
    """s = sigma_d of the nontrivial normalized knot nk, if it is even and
    at most -4 (T(2,3), at -2, excepted); else InternalCheckError."""
    if s % 2 != 0:
        raise InternalCheckError(f"sigma_{d}({nk}) = {s} is odd")
    if s > -4 and (nk.p, nk.q) != (2, 3):
        raise InternalCheckError(
            f"sigma_{d}({nk}) = {s} violates the -4 bound")
    return s


def _routed(k: TorusKnotParams, d: int, route) -> int:
    """sigma_d of a torus knot, 0 if trivial, by route(p, q, d) on its
    normalized knot (0 < p < q).  That value must be even and at most -4
    (T(2,3), at -2, excepted), else InternalCheckError; the mirror flag
    then negates it."""
    nk, mirror = normalize(k)
    if nk.is_trivial:
        return 0
    s = _checked(nk, d, route(nk.p, nk.q, d))
    return -s if mirror else s


def sigma_d(k: TorusKnotParams, d: int) -> int:
    """sigma_d of a torus knot, 0 if trivial, by the window count
    (`sigma_d_counting`), with `_routed`'s checks."""
    return _routed(k, d, sigma_d_counting)


def sigma_d_sweep(k: TorusKnotParams, top: int, least: int = 2) -> dict:
    """{d: sigma_d(k, d)} for every prime d in [least, top], ascending, on
    the counting path, for a nontrivial knot (else DomainError).

    The knot is normalized and its domain checked once, and q/p's Euclid
    chain is built once, so each d costs one walk of that chain.  The
    primes are a slice of PRIME_TABLE, sieved at import, when top is within
    PRIME_TABLE_BOUND, and come from one sieve of their own above it.  The
    invariants of `_checked` are tested on all the values at once; only if
    that fails does `_checked` run prime by prime, to raise at the first
    prime that violates one."""
    nk, mirror = normalize(k)
    if nk.is_trivial:
        raise DomainError(f"{k} is trivial")
    table = PRIME_TABLE if top <= PRIME_TABLE_BOUND else primes_upto(top)
    primes = table[bisect_left(table, least):bisect_right(table, top)]
    values = _window_counts(nk.p, nk.q, primes)
    # gcd(*values) is even iff every value is
    if gcd(*values) % 2 or (max(values, default=-4) > -4
                            and (nk.p, nk.q) != (2, 3)):
        for d, s in zip(primes, values):
            _checked(nk, d, s)
    if mirror:
        values = [-s for s in values]
    return dict(zip(primes, values))
