"""Certified Tristram d-signatures.

For a knot with Seifert matrix V and a prime d, the d-signature is the
signature of the Hermitian form

    H = (1 - z) V + (1 - conj(z)) V^T,   z = exp(2*pi*i*a/d),  a = [d/2],

so sigma_2 is the ordinary signature (z = -1 gives H = 2(V + V^T)).  H is
linear in z and conj(z), so it is stored exactly as three integer slices,
H = (V + V^T) + z (-V) + conj(z) (-V^T), whatever d is.  Torus knot forms
at prime d are always nonsingular: every root of their Alexander
polynomial is a root of unity of composite order, while z has prime order
d.  That arithmetic fact certifies the nullity; a form without a torus
knot source gets its nullity from one exact rational rank (`cyclotomic`).
The remaining eigenvalue signs are certified by `certify`: interval
arithmetic in doubles, then exact integer congruences at rising mpmath
precision until every sign resolves or a cap is hit.

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

Every caller reaches the two routes through one dispatcher, `sigma_d`,
which also checks the value's invariants in one place.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd, inf, isqrt, nextafter

import numpy as np

from . import cyclotomic
from .certify import Inertia, MRMatrix, certified_inertia
from .core import TorusKnotParams, normalize
from .errors import DomainError, InternalCheckError
from .lattice import sigma_d_enumerated
from .seifert import SeifertForm, seifert_matrix, torus_braid


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


def primes_upto(n: int) -> list:
    """The primes d <= n, ascending (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    for f in range(3, isqrt(n) + 1, 2):
        if sieve[f]:
            sieve[f * f::2 * f] = bytes(len(range(f * f, n + 1, 2 * f)))
    return [2, *compress(range(3, n + 1, 2), sieve[3::2])]


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


def _require_prime(d: int):
    if not is_prime(d):
        raise DomainError(f"d={d}: need a prime")


@dataclass(frozen=True, eq=False)
class HermitianForm:
    """Exact Hermitian form H = C0 + z C1 + conj(z) C2 over Z[z], with
    z = exp(2*pi*i*a/d) and a = [d/2].

    coeffs has shape (dimension, dimension, k), 1 <= k <= 3, and
    coeffs[:, :, s] is the integer slice C_s; missing slices are zero.  H is
    Hermitian when C0 is symmetric and C2 = C1^T, as `build_form` makes it.
    `source` carries (p, q) when the form came from a torus knot, enabling
    the arithmetic nullity certificate.
    """

    d: int
    dimension: int
    coeffs: np.ndarray
    source: tuple = None

    def __post_init__(self):
        n = self.dimension
        shape = np.shape(self.coeffs)
        if len(shape) != 3 or shape[:2] != (n, n) or not 1 <= shape[2] <= 3:
            raise DomainError(f"coeffs of shape {shape}: need ({n}, {n}, k) "
                              f"with 1 <= k <= 3")

    @property
    def a(self) -> int:
        return self.d // 2


def build_form(f: SeifertForm, d: int, source=None) -> HermitianForm:
    """H = (1-z)V + (1-conj(z))V^T at z = exp(2*pi*i*[d/2]/d), exactly, as
    the slices (V + V^T, -V, -V^T); at d = 2 it evaluates to 2(V + V^T)."""
    _require_prime(d)
    v = f.matrix
    return HermitianForm(d, f.dimension, np.stack([v + v.T, -v, -v.T], axis=-1),
                         source)


def _double_enclosure(val):
    """(midpoint, radius) of a double-precision disk around an mpmath
    interval, with its endpoints rounded outward."""
    lo = nextafter(float(val.a), -inf)
    hi = nextafter(float(val.b), inf)
    mid = 0.5 * (lo + hi)
    return mid, max(hi - mid, mid - lo) * (1 + 2 ** -50)


@lru_cache(maxsize=None)
def _root_enclosures(d: int):
    """Outward double enclosures of 1, z and conj(z), as (midpoints,
    radii).  The midpoints are real at d = 2, where z = conj(z) = -1
    exactly, so forms at d = 2 stay in real arithmetic."""
    from mpmath import iv

    if d == 2:
        return np.array([1.0, -1.0, -1.0]), np.zeros(3)
    old = iv.prec
    iv.prec = 80
    try:
        mid = np.ones(3, dtype=np.complex128)
        rad = np.zeros(3)
        # z = zeta^a and conj(z) = zeta^(d-a), zeta = exp(2*pi*i/d)
        for s, k in ((1, d // 2), (2, d - d // 2)):
            ang = 2 * iv.pi * k / d
            cos_mid, cos_rad = _double_enclosure(iv.cos(ang))
            sin_mid, sin_rad = _double_enclosure(iv.sin(ang))
            mid[s] = complex(cos_mid, sin_mid)
            rad[s] = cos_rad + sin_rad
        return mid, rad
    finally:
        iv.prec = old


def _float_enclosure(h: HermitianForm) -> MRMatrix:
    k = h.coeffs.shape[2]
    mid, rad = (x[:k] for x in _root_enclosures(h.d))
    # einsum casts the int64 slices in buffered chunks, and the radius is
    # summed one |C_s| at a time: no copy of the (n, n, k) array is made.
    # The order C0, C2, C1 is that of einsum("ijk,k->ij")'s two-lane
    # reduction over k on x86-64, so the radius is bit-identical to it there
    weights = rad + 8 * 2.0 ** -53 * np.abs(mid)
    radius = np.zeros(h.coeffs.shape[:2])
    for s in [s for s in (0, 2, 1) if s < k]:
        term = np.abs(h.coeffs[:, :, s], dtype=np.float64)
        term *= weights[s]
        radius += term
    radius += 1e-300
    return MRMatrix(np.einsum("ijk,k->ij", h.coeffs, mid), radius)


def _mp_entry_fn(h: HermitianForm):
    """entry(i, j) -> (re, im) iv enclosure of H[i, j] at the active iv
    precision; z is enclosed once per precision."""
    from mpmath import iv

    roots = {}

    def root_intervals():
        if iv.prec not in roots:
            t = 2 * iv.pi * h.a / h.d
            cos_z, sin_z = iv.cos(t), iv.sin(t)
            roots[iv.prec] = [(iv.mpf(1), iv.mpf(0)), (cos_z, sin_z),
                              (cos_z, -sin_z)]
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


def inertia(h: HermitianForm) -> Inertia:
    """Certified inertia (n_plus, n_zero, n_minus) of the form."""
    z = _nullity(h)
    return certified_inertia(lambda: _float_enclosure(h), _mp_entry_fn(h),
                             h.dimension, z)


# ---------------------------------------------------------------------------
# signatures of torus knots
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _sigma_hermitian(p: int, q: int, d: int) -> int:
    _require_prime(d)   # before building the Seifert matrix
    form = build_form(seifert_matrix(torus_braid(p, q)), d, source=(p, q))
    ine = inertia(form)
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
    _require_prime(d)
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


# the O(pq) lattice enumeration the fast path is tested against
_sigma_counting_brute = sigma_d_enumerated


def sigma_d(k: TorusKnotParams, d: int, method: str = "counting") -> int:
    """sigma_d of a torus knot, 0 if trivial: "counting" takes the integer
    fast path, "hermitian" the certified route.  The normalized
    knot's value must be even and at most -4 (T(2,3), at -2, excepted),
    else InternalCheckError; the mirror flag then negates it."""
    nk, mirror = normalize(k)
    if nk.is_trivial:
        return 0
    if method == "counting":
        s = sigma_d_counting(nk.p, nk.q, d)
    elif method == "hermitian":
        s = _sigma_hermitian(nk.p, nk.q, d)
    else:
        raise ValueError(f"unknown method {method!r}")
    if s % 2 != 0:
        raise InternalCheckError(f"sigma_{d}({nk}) = {s} is odd")
    if s > -4 and (nk.p, nk.q) != (2, 3):
        raise InternalCheckError(
            f"sigma_{d}({nk}) = {s} violates the -4 bound")
    return -s if mirror else s


def tristram_sigma(k: TorusKnotParams, d: int,
                   method: str = "hermitian") -> int:
    """sigma_d of a nontrivial torus knot, by default on the certified
    Hermitian route; see sigma_d."""
    if k.is_trivial:
        raise DomainError(f"{k} is trivial")
    return sigma_d(k, d, method=method)


def prop35_bound_check(k: TorusKnotParams, d: int,
                       method: str = "counting") -> bool:
    """sigma_d <= -4 holds for every nontrivial torus knot except T(2,3);
    sigma_d raises InternalCheckError on a violation."""
    nk, _ = normalize(k)
    if nk.is_trivial or (nk.p, nk.q) == (2, 3):
        raise DomainError(f"{k} is outside the bound's domain")
    return sigma_d(k, d, method=method) <= -4
