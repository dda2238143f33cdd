"""Certified Tristram d-signatures.

For a knot with Seifert matrix V and a prime d, the d-signature is the
signature of the Hermitian form

    H = (1 - z) V + (1 - conj(z)) V^T,   z = exp(2*pi*i*a/d),  a = [d/2],

so sigma_2 is the ordinary signature (z = -1 gives H = 2(V + V^T)).  Torus
knot forms at prime d are always nonsingular: every root of their Alexander
polynomial is a root of unity of composite order, while z has prime order d.
That arithmetic fact certifies the nullity; the remaining eigenvalue signs
are certified by `certify`: interval arithmetic in doubles, then exact
integer congruences at rising mpmath precision until every sign resolves
or a cap is hit.

For torus knots there is also an exact integer fast path (Litherland,
"Signatures of iterated torus knots", LNM 722, 1979): writing
x(i,j) = i/p + j/q over 0 < i < p, 0 < j < q and s = a/d, the form's
eigenvalue on the (i,j) monodromy line is negative exactly when
s < x(i,j) < 1 + s, positive otherwise, and never zero for prime d.  For
each i the positive j number [q|ap - di|/(dp)], so the count splits into
two floor sums over the i-ranges on either side of i = ap/d, each
evaluated in O(log) steps by the Euclid-like `floor_sum` recursion.  A
point on the window boundary would be a solution of iq + jp = N in the
box, which one modular inverse decides, also in O(log) steps.  The path
reproduces the half-turn lattice count at d = 2 and is validated against
the Hermitian route across the whole test range; the Hermitian route stays
authoritative.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, inf, nextafter

import numpy as np

from . import cyclotomic
from .certify import Inertia, MRMatrix, certified_inertia
from .core import TorusKnotParams, normalize
from .errors import DomainError, InternalCheckError
from .lattice import sigma_closed
from .seifert import SeifertForm, seifert_matrix, torus_braid

DEFAULT_PRECISION_CAP = 4096


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


def smallest_prime_factors(limit: int) -> list:
    """spf[k] = the smallest prime factor of k, for 2 <= k < limit."""
    spf = list(range(limit))
    f = 2
    while f * f < limit:
        if spf[f] == f:
            for k in range(f * f, limit, f):
                if spf[k] == k:
                    spf[k] = f
        f += 1
    return spf


def prime_divisors(n: int, spf: list = None) -> list:
    """Distinct prime divisors of n >= 1, ascending, read from a smallest
    prime factor table that covers n (built for n alone when not given)."""
    if spf is None:
        spf = smallest_prime_factors(n + 1)
    out = []
    while n > 1:
        f = spf[n]
        out.append(f)
        while n % f == 0:
            n //= f
    return out


@dataclass(frozen=True, eq=False)
class HermitianForm:
    """Exact Hermitian form with entries in Z[zeta_d].

    coeffs[i, j, k] is the integer coefficient of zeta^k in entry (i, j);
    conjugate symmetry holds by construction.  `source` carries (p, q) when
    the form came from a torus knot, enabling the arithmetic nullity
    certificate.
    """

    d: int
    dimension: int
    coeffs: np.ndarray
    source: tuple = None

    @property
    def a(self) -> int:
        return self.d // 2


def build_form(f: SeifertForm, d: int, source=None) -> HermitianForm:
    """H = (1-z)V + (1-conj(z))V^T at z = exp(2*pi*i*[d/2]/d), exactly.

    Entry (i,j) = (V_ij + V_ji) - V_ij * zeta - V_ji * zeta^{d-1} with
    zeta = z; at d = 2 this evaluates to 2(V + V^T).
    """
    if not is_prime(d):
        raise DomainError(f"d={d}: need a prime")
    v = f.matrix
    n = f.dimension
    coeffs = np.zeros((n, n, d), dtype=np.int64)
    coeffs[:, :, 0] = v + v.T
    coeffs[:, :, 1 % d] -= v
    coeffs[:, :, (d - 1) % d] -= v.T
    return HermitianForm(d, n, coeffs, source)


def _double_enclosure(val):
    """(midpoint, radius) of a double-precision disk around an mpmath
    interval, with its endpoints rounded outward."""
    lo = nextafter(float(val.a), -inf)
    hi = nextafter(float(val.b), inf)
    mid = 0.5 * (lo + hi)
    return mid, max(hi - mid, mid - lo) * (1 + 2 ** -50)


@lru_cache(maxsize=None)
def _root_enclosures(d: int):
    """Outward double enclosures of zeta^k = exp(2*pi*i*k/d), k = 0..d-1,
    as (midpoints, radii).  The midpoints are real at d = 2, where the
    roots are exactly 1 and -1, so forms at d = 2 stay in real arithmetic."""
    from mpmath import iv

    if d == 2:
        return np.array([1.0, -1.0]), np.zeros(2)
    old = iv.prec
    iv.prec = 80
    try:
        mid = np.ones(d, dtype=np.complex128)
        rad = np.zeros(d)
        for k in range(1, d):
            ang = 2 * iv.pi * k / d
            cos_mid, cos_rad = _double_enclosure(iv.cos(ang))
            sin_mid, sin_rad = _double_enclosure(iv.sin(ang))
            mid[k] = complex(cos_mid, sin_mid)
            rad[k] = cos_rad + sin_rad
        return mid, rad
    finally:
        iv.prec = old


def _float_enclosure(h: HermitianForm) -> MRMatrix:
    mid, rad = _root_enclosures(h.d)
    # coeffs are stored against powers of z = zeta^a; entry (i,j) is
    # sum_k coeffs[i,j,k] * zeta^(a*k)
    idx = [(h.a * k) % h.d for k in range(h.d)]
    cmid, crad = mid[idx], rad[idx]
    # einsum casts the int64 coefficients in buffered chunks: no float or
    # complex copy of the (n, n, d) array is made
    weights = crad + 8 * 2.0 ** -53 * np.abs(cmid)
    return MRMatrix(np.einsum("ijk,k->ij", h.coeffs, cmid),
                    np.einsum("ijk,k->ij", np.abs(h.coeffs), weights) + 1e-300)


def _mp_entry_fn(h: HermitianForm):
    """entry(i, j) -> (re, im) iv enclosure of H[i, j] at the active iv
    precision; the d root enclosures are evaluated once per precision."""
    from mpmath import iv

    roots = {}

    def root_intervals():
        if iv.prec not in roots:
            angles = (2 * iv.pi * ((h.a * k) % h.d) / h.d for k in range(h.d))
            roots[iv.prec] = [(iv.cos(t), iv.sin(t)) for t in angles]
        return roots[iv.prec]

    def entry(i, j):
        re = iv.mpf(0)
        im = iv.mpf(0)
        for c, (cos_k, sin_k) in zip(h.coeffs[i, j].tolist(), root_intervals()):
            if c:
                re += c * cos_k
                im += c * sin_k
        return re, im

    return entry


def _nullity(h: HermitianForm) -> int:
    if h.source is not None:
        p, q = h.source
        # z has prime order d; a root of the Alexander polynomial of T(p,q)
        # is a pq-th root of unity whose order divides neither p nor q, so
        # its order has prime factors from both p and q and is composite.
        # Hence H(z) is nonsingular.
        if gcd(p, q) != 1 or not is_prime(h.d):
            raise InternalCheckError(
                f"nullity certificate needs coprime (p,q) and prime d, "
                f"got ({p},{q}), d={h.d}")
        return 0
    return cyclotomic.hermitian_nullity_exact(h.coeffs, h.d)


def inertia(h: HermitianForm, precision_cap: int = None) -> Inertia:
    """Certified inertia (n_plus, n_zero, n_minus) of the form."""
    cap = DEFAULT_PRECISION_CAP if precision_cap is None else precision_cap
    z = _nullity(h)
    return certified_inertia(lambda: _float_enclosure(h), _mp_entry_fn(h),
                             h.dimension, z, precision_cap=cap)


# ---------------------------------------------------------------------------
# signatures of torus knots
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sigma_hermitian(p: int, q: int, d: int, cap) -> int:
    form = build_form(seifert_matrix(torus_braid(p, q)), d, source=(p, q))
    ine = inertia(form, precision_cap=cap)
    if ine.n_zero != 0:
        raise InternalCheckError(
            f"H_{d}(T({p},{q})) is singular: nullity {ine.n_zero}")
    return ine.signature


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} [(a*i + b) / m] for n >= 0, m >= 1, a, b >= 0, in
    O(log m) steps (the Euclid-like recursion of the AtCoder Library)."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


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


def sigma_d_counting(p: int, q: int, d: int) -> int:
    """Exact integer fast path for sigma_d(T(p,q)), 0 < p < q coprime.

    With a = [d/2], the pairs (i,j) whose x = i/p + j/q lies outside the
    window (s, 1+s), s = a/d, number [q|ap - di|/(dp)] at each i: for
    i <= m = [(ap-1)/d] they are the j with x < s, and for i > m the j with
    x > 1+s, whose bound q + q(ap - di)/(dp) is q plus a nonpositive number.
    Neither range needs clamping, so the positive count is two floor sums,
    and sigma_d = 2 * positive - (p-1)(q-1).  The count holds only if no
    lattice point lies on the window boundary d(iq + jp) in
    {a*pq, (d+a)*pq}; that is checked exactly (it never happens for prime d
    and coprime p, q) and raises InternalCheckError.  O(log q) steps.
    """
    if not is_prime(d):
        raise DomainError(f"d={d}: need a prime")
    if not 0 < p < q:
        raise DomainError(f"need 0 < p < q, got ({p},{q})")
    a = d // 2
    for num in (a * p * q, (d + a) * p * q):
        if num % d == 0 and _lattice_hit(p, q, num // d):
            raise InternalCheckError(
                f"window boundary attained at ({p},{q},{d})")
    m = (a * p - 1) // d
    lo = floor_sum(m, d * p, d * q, q * (a * p - d * m))
    hi = floor_sum(p - 1 - m, d * p, d * q, q * (d * (m + 1) - a * p))
    return 2 * (lo + hi) - (p - 1) * (q - 1)


def _sigma_counting_brute(p: int, q: int, d: int) -> int:
    """O(pq) reference for the fast path (test fixture)."""
    a = d // 2
    pq = p * q
    pos = neg = 0
    for i in range(1, p):
        for j in range(1, q):
            x = d * (i * q + j * p)
            if x == a * pq or x == (d + a) * pq:
                raise InternalCheckError(
                    f"window boundary attained at ({p},{q},{d})")
            if x < a * pq or x > (d + a) * pq:
                pos += 1
            else:
                neg += 1
    return pos - neg


def tristram_sigma(k: TorusKnotParams, d: int, method: str = "hermitian",
                   precision_cap: int = None) -> int:
    """sigma_d of a torus knot; negated under the mirror flag.

    The default Hermitian route builds the exact form from the braid Seifert
    matrix and certifies the inertia.  method="counting" uses the integer
    fast path (validated against the Hermitian route in the test suite).
    """
    nk, mirror = normalize(k)
    if nk.is_trivial:
        raise DomainError(f"{k} is trivial")
    if not is_prime(d):
        raise DomainError(f"d={d}: need a prime")
    if method == "counting":
        s = sigma_d_counting(nk.p, nk.q, d)
    elif method == "hermitian":
        s = _sigma_hermitian(nk.p, nk.q, d, precision_cap)
    else:
        raise ValueError(f"unknown method {method!r}")
    if s % 2 != 0:
        raise InternalCheckError(f"sigma_{d}({nk}) = {s} is odd")
    return -s if mirror else s


def sigma_d(k: TorusKnotParams, d: int, method: str = "auto",
            precision_cap: int = None) -> int:
    """Dispatcher used by the classifier: "auto" takes the integer fast
    path, anything else defers to tristram_sigma."""
    nk, _ = normalize(k)
    if nk.is_trivial:
        return 0
    if method in ("auto", "counting"):
        return tristram_sigma(k, d, method="counting")
    return tristram_sigma(k, d, method=method, precision_cap=precision_cap)


def prop35_bound_check(k: TorusKnotParams, d: int, method: str = "auto") -> bool:
    """sigma_d <= -4 holds for every nontrivial torus knot except T(2,3);
    the classifier treats a violation as an internal-consistency failure."""
    nk, _ = normalize(k)
    if nk.is_trivial or (nk.p, nk.q) == (2, 3):
        raise DomainError(f"{k} is outside the bound's domain")
    return sigma_d(k, d, method=method) <= -4
