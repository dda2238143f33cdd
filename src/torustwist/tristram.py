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
precision until every sign resolves or a cap is hit.  Every form reaches
`certify` as a real symmetric matrix.  At d = 2, z = -1 and H = C0 - C1 - C2
is an integer matrix.  At d > 2 the Seifert basis of a torus braid carries
a reversal involution P with P V P^T = V^T (`seifert`), so
P H P^T = conj(H), and H is congruent to a real symmetric matrix K of the
same size, whose integer slices are O(n^2) gathers of H's (`_real_slices`,
after A. Lee, "Centrohermitian and skew-centrohermitian matrices", Linear
Algebra Appl. 29, 1980).  A form without an involution, such as a
sourceless one built from its slices, is certified as the direct sum of
H and conj(H): the swap of the two copies is an involution of it, and its
counts are twice H's (`_doubled`).  Either matrix is sum_s S_s w_s over
three integer slices, w = (1, -1, -1) on H's at d = 2 and
(1, cos(t), sin(t)) on K's, t = 2*pi*a/d.  Both rungs enclose it by one
slice loop over integer bounds on 2^bits w (`_weight_bounds`, exact at
d = 2; z is evaluated only in `_root_bounds`): in doubles from the 80-bit
bounds for the double rung, in Python ints for each precision rung.

For torus knots there is also an exact integer fast path (Litherland,
"Signatures of iterated torus knots", LNM 722, 1979): writing
x(i,j) = i/p + j/q over 0 < i < p, 0 < j < q and s = a/d, the form's
eigenvalue on the (i,j) monodromy line is negative exactly when
s < x(i,j) < 1 + s, positive otherwise, and never zero for prime d.  For
each i the positive j number [q|ap - di|/(dp)], so the count splits into
two floor sums over the i-ranges on either side of i = ap/d.  Only the
first is evaluated, in O(log) steps by the Euclid-like `floor_sum`
recursion: the sum over all i is a complete residue sum that Hermite's
identity closes in O(1), so the second follows from the first.  A
point on the window boundary would be a solution of iq + jp = N in the
box, which one modular inverse decides, also in O(log) steps.  The path
reproduces the half-turn lattice count at d = 2 and is validated against
the Hermitian route across the whole test range; the Hermitian route stays
authoritative.

Every caller reaches the two routes through one dispatcher, `sigma_d`;
`sigma_d_sweep` takes the counting path at every prime up to a bound in
one call.  Both check each value's invariants in one helper, `_checked`.
"""

from bisect import bisect_left
from dataclasses import dataclass, replace
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
    z = exp(2*pi*i*a/d) and a = [d/2], for a prime d.

    coeffs[:, :, s] is the integer slice C_s; one or two given slices are
    padded to shape (dimension, dimension, 3) with zero slices.  H is
    Hermitian when C0 is symmetric and C2 = C1^T, as `build_form` makes it;
    `inertia` rejects any other form.  `source` carries (p, q) when the form
    came from a torus knot, enabling the arithmetic nullity certificate.
    `involution`, an index array P with P P = id, P C0 P^T = C0 and
    P C1 P^T = C2, makes P H P^T = conj(H), so that `inertia` certifies a
    congruent real symmetric matrix instead of H (see `_real_slices`).
    `build_form` passes on the Seifert form's reversal involution; a form
    without one, such as a sourceless form built from its slices, is
    certified at d > 2 as the direct sum of H and conj(H) (`_doubled`).
    """

    d: int
    dimension: int
    coeffs: np.ndarray
    source: tuple = None
    involution: np.ndarray = None

    def __post_init__(self):
        _require_prime(self.d)
        n, c = self.dimension, np.asarray(self.coeffs)
        if c.ndim != 3 or c.shape[:2] != (n, n) or not 1 <= c.shape[2] <= 3:
            raise DomainError(f"coeffs of shape {c.shape}: need "
                              f"({n}, {n}, k) with 1 <= k <= 3")
        if c.shape[2] < 3:
            pad = np.zeros((n, n, 3 - c.shape[2]), dtype=c.dtype)
            c = np.concatenate([c, pad], axis=2)
        object.__setattr__(self, "coeffs", c)

    @property
    def a(self) -> int:
        return self.d // 2


def build_form(f: SeifertForm, d: int, source=None) -> HermitianForm:
    """H = (1-z)V + (1-conj(z))V^T at z = exp(2*pi*i*[d/2]/d), exactly, as
    the slices (V + V^T, -V, -V^T); at d = 2 it evaluates to 2(V + V^T).
    The form keeps f's reversal involution, under which it is symmetric."""
    v = f.matrix
    return HermitianForm(d, f.dimension, np.stack([v + v.T, -v, -v.T], axis=-1),
                         source, f.involution)


@lru_cache(maxsize=None)
def _root_bounds(d: int, bits: int):
    """Integer enclosures ((c_lo, c_hi), (s_lo, s_hi)) of 2^bits cos(t) and
    2^bits sin(t), t = 2*pi*a/d: exact floor and ceiling of an interval
    evaluation with guard bits.  The one place where z is evaluated."""
    from mpmath import iv
    from mpmath.libmp import mpf_shift, to_int

    old = iv.prec
    iv.prec = bits + 10
    try:
        t = 2 * iv.pi * (d // 2) / d
        return tuple((to_int(mpf_shift(lo, bits), "f"),
                      to_int(mpf_shift(hi, bits), "c"))
                     for lo, hi in (iv.cos(t)._mpi_, iv.sin(t)._mpi_))
    finally:
        iv.prec = old


@lru_cache(maxsize=None)
def _weight_bounds(d: int, bits: int):
    """Integers (mid, rad), three of each, with |2^bits w_s - mid_s| <= rad_s
    for the weights of the real matrix sum_s S_s w_s that `inertia`
    certifies: (1, -1, -1) on H's slices at d = 2, exactly, else
    (1, cos(t), sin(t)) on K's, from `_root_bounds`."""
    one = 1 << bits
    if d == 2:
        return (one, -one, -one), (0, 0, 0)
    (c_lo, c_hi), (s_lo, s_hi) = _root_bounds(d, bits)
    c, s = (c_lo + c_hi) >> 1, (s_lo + s_hi) >> 1
    return (one, c, s), (0, c_hi - c, s_hi - s)


def _slice_sum(slices, mid, rad, dtype):
    """(sum_s S_s mid_s, sum_s |S_s| rad_s) over the three slices
    S_s = slices[:, :, s], evaluated in dtype: exactly for object (Python
    ints), else with rounding.  The sums are accumulated in place through
    one scratch matrix, and each slice is cast in the ufuncs' buffers."""
    c, r, t = (np.zeros(slices.shape[:2], dtype) for _ in range(3))
    for s in range(3):
        x = slices[:, :, s]
        np.multiply(x, mid[s], out=t, dtype=dtype, casting="unsafe")
        c += t
        np.abs(x, out=t, dtype=dtype, casting="unsafe")
        t *= rad[s]
        r += t
    return c, r


def _float_enclosure(slices, d: int) -> MRMatrix:
    """Real double enclosure of F = sum_s S_s w_s, S_s = slices[:, :, s]
    integer and w the weights of `_weight_bounds(d, 80)`: the matrix that
    `inertia` certifies.  A weight's midpoint rounds to nearest, and its
    radius, grown by that rounding exactly, rounds up.  The radius weight
    8u |mid_s| covers the cast of S_s (object slices past int64 included),
    the product and the two sums of each entry, and 1e-300 underflow."""
    mid, rad = [], []
    for m, r in zip(*_weight_bounds(d, 80)):
        f = float(m)
        e = r + abs(m - int(f))
        mid.append(f * 2.0 ** -80)
        rad.append(((nextafter(e, inf) if e else 0.0)
                    + 8 * 2.0 ** -53 * abs(f)) * 2.0 ** -80)
    c, r = _slice_sum(slices, mid, rad, np.float64)
    r += 1e-300
    return MRMatrix(c, r)


def _mp_enclosure(slices, d: int, prec: int):
    """(c, rad), object arrays of Python ints with |2^prec F - c| <= rad
    entrywise for F = sum_s S_s w_s, S_s = slices[:, :, s] and w the
    weights of `_weight_bounds(d, prec)`; exact at d = 2, with rad = 0."""
    return _slice_sum(slices, *_weight_bounds(d, prec), object)


def _checked_involution(h: HermitianForm):
    """h's involution P as an index array, or None if it has none.  Raises
    DomainError unless H is Hermitian (C0 = C0^T and C2 = C1^T) and P is a
    symmetry of it (P P = id, P C0 P^T = C0 and P C1 P^T = C2).  The
    comparisons are exact, on the integer slices."""
    n = h.dimension
    c0, c1, c2 = np.moveaxis(h.coeffs, -1, 0)
    if not (np.array_equal(c0, c0.T) and np.array_equal(c2, c1.T)):
        raise DomainError(f"the form at d={h.d} is not Hermitian: need "
                          f"C0 = C0^T and C2 = C1^T")
    if h.involution is None:
        return None
    p = np.asarray(h.involution)
    if not (p.shape == (n,) and p.dtype.kind in "iu"
            and np.all((p >= 0) & (p < n))
            and np.array_equal(p[p], np.arange(n))
            and np.array_equal(c0[p][:, p], c0)
            and np.array_equal(c1[p][:, p], c2)):
        raise DomainError("the involution is not a symmetry of the form: "
                          "need P P = id, P C0 P^T = C0 and P C1 P^T = C2")
    return p


def _real_slices(coeffs, p):
    """Slices (R0, R1, R2), stacked like coeffs, of the real symmetric
    K = R0 + cos(t) R1 + sin(t) R2 = W* H W / 2, for an involution p
    verified by `_checked_involution`.

    P H P^T = conj(H), that is H[p[a], p[b]] = conj(H[a, b]).  W has the
    columns u_a = e_a + e_p[a] for a <= p[a] (2 e_a at a fixed point), then
    v_a = i (e_a - e_p[a]) for a < p[a]; its 2 x 2 blocks on each pair
    {a, p[a]} are invertible, so by Sylvester's law K has H's inertia.  With
    X^+ = X[a, b] + X[a, p[b]] and X^- = X[a, b] - X[a, p[b]],
    u* H u / 2 = (Re H)^+, v* H v / 2 = (Re H)^-, u* H v / 2 = -(Im H)^-
    and v* H u / 2 = (Im H)^+, where Re H = C0 + cos(t) (C1 + C2) and
    Im H = sin(t) (C1 - C2).  The basis is first reordered as the f fixed
    points, the a < p[a], then their partners p[a], so that X^+ and X^-
    are sums of column blocks; only the rows a <= p[a] are read.  O(n^2)
    work on integer slices, in int64 unless an entry reaches 2^60: each
    entry of K's slices sums at most four of C's, which could then
    overflow, so Python ints are used instead."""
    n = coeffs.shape[0]
    idx = np.arange(n)
    pairs = idx[idx < p]
    f, m = n - 2 * len(pairs), n - len(pairs)
    order = np.concatenate([idx[idx == p], pairs, p[pairs]])
    top = max(int(coeffs.max()), -int(coeffs.min())) if coeffs.size else 0
    dtype = object if top >= 2 ** 60 else np.int64
    y = [coeffs[:, :, s][order[:m]][:, order].astype(dtype, copy=False)
         for s in range(3)]
    out = np.zeros((n, n, 3), dtype=dtype)
    for s, x in enumerate((y[0], y[1] + y[2], y[1] - y[2])):
        plus = x[:, :m] + np.concatenate([x[:, :f], x[:, m:]], axis=1)
        minus = x[:, f:m] - x[:, m:]
        if s < 2:
            out[:m, :m, s] = plus
            out[m:, m:, s] = minus[f:]
        else:
            out[:m, m:, s] = -minus
            out[m:, :m, s] = plus[f:]
    return out


def _doubled(h: HermitianForm) -> HermitianForm:
    """The direct sum of H and conj(H) = H^T, a form of twice h's dimension
    with the block-diagonal slices diag(C0, C0), diag(C1, C2) and
    diag(C2, C1), and with the swap a <-> a + n of its two copies as its
    involution.  Its inertia is twice H's."""
    n = h.dimension
    c = np.zeros((2 * n, 2 * n, 3), dtype=h.coeffs.dtype)
    c[:n, :n] = h.coeffs
    c[n:, n:] = c[:n, :n, [0, 2, 1]]
    swap = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    return replace(h, dimension=2 * n, coeffs=c, involution=swap)


def _enclosures(h: HermitianForm):
    """(double, mp, copies): the enclosure builders of the real symmetric
    matrix that `inertia` certifies for h, and the number of copies of H it
    is congruent to.  That matrix is H itself at d = 2, and at d > 2 the K
    of `_real_slices`, of h when it carries an involution (one copy), else
    of `_doubled(h)` (two).  Checks h first (`_checked_involution`)."""
    p = _checked_involution(h)
    copies, slices = 1, h.coeffs
    if h.d > 2:
        if p is None:
            h, copies = _doubled(h), 2
            p = h.involution
        slices = _real_slices(h.coeffs, p)
    d = h.d
    return (lambda: _float_enclosure(slices, d),
            lambda prec: _mp_enclosure(slices, d, prec), copies)


def _nullity(h: HermitianForm) -> int:
    if h.source is not None:
        p, q = h.source
        # z has prime order d; a root of the Alexander polynomial of T(p,q)
        # is a pq-th root of unity whose order divides neither p nor q, so
        # its order has prime factors from both p and q and is composite.
        # Hence H(z) is nonsingular.
        if gcd(p, q) != 1:
            raise InternalCheckError(
                f"nullity certificate needs coprime (p,q), got ({p},{q})")
        return 0
    return cyclotomic.hermitian_nullity_exact(h.coeffs, h.d)


def inertia(h: HermitianForm) -> Inertia:
    """Certified inertia (n_plus, n_zero, n_minus) of the form; DomainError,
    before any rung runs, unless it is Hermitian and its involution, if
    any, is a symmetry of it."""
    float_fn, mp_fn, copies = _enclosures(h)
    res = certified_inertia(float_fn, mp_fn, copies * h.dimension,
                            copies * _nullity(h))
    counts = (res.n_plus, res.n_zero, res.n_minus)
    if any(c % copies for c in counts):
        raise InternalCheckError(f"certified inertia {counts} of {copies} "
                                 "copies of a form does not divide evenly")
    return Inertia(*(c // copies for c in counts))


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


def _window_count(p: int, q: int, d: int) -> int:
    """sigma_d(T(p,q)) by the window count, for 0 < p < q coprime and a
    prime d, which the callers check.

    With a = [d/2] and t_i = q(ap - di)/(dp), the pairs (i,j) whose
    x = i/p + j/q lies outside the window (s, 1+s), s = a/d, number
    [|t_i|] at each i: for i <= m = [(ap-1)/d] they are the j with x < s,
    and for i > m the j with x > 1+s, whose bound q - t_i is q plus a
    nonpositive number.  Neither range needs clamping, so the positive
    count is lo + hi, lo = sum_{i<=m} [t_i] (one `floor_sum`) and
    hi = sum_{i>m} [-t_i].  hi follows from lo in O(1):
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
    O(log q) steps.
    """
    a = d // 2
    for num in (a * p * q, (d + a) * p * q):
        if num % d == 0 and _lattice_hit(p, q, num // d):
            raise InternalCheckError(
                f"window boundary attained at ({p},{q},{d})")
    m = (a * p - 1) // d
    lo = floor_sum(m, d * p, d * q, q * (a * p - d * m))
    return 2 * (2 * lo + m + (p % d == 0) - a * p * q // d + a * q // d)


def sigma_d_counting(p: int, q: int, d: int) -> int:
    """Exact integer fast path for sigma_d(T(p,q)), 0 < p < q coprime and d
    prime, else DomainError: the window count `_window_count`."""
    _require_prime(d)
    if not 0 < p < q:
        raise DomainError(f"need 0 < p < q, got ({p},{q})")
    return _window_count(p, q, d)


# the O(pq) lattice enumeration the fast path is tested against
_sigma_counting_brute = sigma_d_enumerated


def _checked(nk: TorusKnotParams, d: int, s: int) -> int:
    """s = sigma_d of the nontrivial normalized knot nk, if it is even and
    at most -4 (T(2,3), at -2, excepted); else InternalCheckError."""
    if s % 2 != 0:
        raise InternalCheckError(f"sigma_{d}({nk}) = {s} is odd")
    if s > -4 and (nk.p, nk.q) != (2, 3):
        raise InternalCheckError(
            f"sigma_{d}({nk}) = {s} violates the -4 bound")
    return s


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
    s = _checked(nk, d, s)
    return -s if mirror else s


def sigma_d_sweep(k: TorusKnotParams, top: int, least: int = 2) -> dict:
    """{d: sigma_d(k, d)} for every prime d in [least, top], ascending, on
    the counting path, for a nontrivial knot (else DomainError).

    The knot is normalized and its domain checked once, and the primes come
    from one sieve, so each d costs one window count and the invariant
    check of sigma_d."""
    nk, mirror = normalize(k)
    if nk.is_trivial:
        raise DomainError(f"{k} is trivial")
    p, q = nk.p, nk.q
    primes = primes_upto(top)
    out = {d: _checked(nk, d, _window_count(p, q, d))
           for d in primes[bisect_left(primes, least):]}
    return {d: -s for d, s in out.items()} if mirror else out


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
