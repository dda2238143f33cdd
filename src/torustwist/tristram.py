"""Certified Tristram d-signatures.

For a knot with Seifert matrix V and a prime d, the d-signature is the
signature of the Hermitian form

    H = (1 - z) V + (1 - conj(z)) V^T,   z = exp(2*pi*i*a/d),  a = [d/2],

so sigma_2 is the ordinary signature (z = -1 gives H = 2(V + V^T)).  H is
linear in z and conj(z), so it is stored exactly as three integer slices,
H = (V + V^T) + z (-V) + conj(z) (-V^T), whatever d is, by their shared
nonzero pattern (`Slices`): a torus form has a few nonzeros per row, and
every integer layer, from the Seifert matrix (`seifert`) to the real
reduction below, works on them in O(nnz log nnz).  Torus knot forms
at prime d are always nonsingular: every root of their Alexander
polynomial is a root of unity of composite order, while z has prime order
d.  That arithmetic fact certifies the nullity; a form without a torus
knot source gets its nullity from one exact rational rank (`cyclotomic`).
The remaining eigenvalue signs are certified by `certify`: interval
arithmetic in doubles, then exact integer congruences at rising mpmath
precision until every sign resolves or a cap is hit.  Every form reaches
`certify` as real symmetric matrices.  The Seifert basis of a torus braid
carries a reversal involution P with P V P^T = V^T (`seifert`), so
P H P^T = conj(H), and H is congruent to a real symmetric matrix K of the
same size, whose integer slices are sums of H's nonzeros (`_real_slices`,
after A. Lee, "Centrohermitian and skew-centrohermitian matrices", Linear
Algebra Appl. 29, 1980).  K = R0 + cos(t) R1 + sin(t) R2,
t = 2*pi*a/d, and R2 alone couples K's two diagonal blocks; at d = 2,
sin(t) = 0 exactly, so K splits and its two halves, of about n/2 each, are
certified apart and their counts added (`_halves`).  A form without an
involution, such as a sourceless one built from its slices, is certified
at d = 2 as H itself, an integer matrix (w = (1, -1, -1) on its slices),
and at d > 2 as the direct sum of H and conj(H): the swap of the two
copies is an involution of it, and its counts are twice H's (`_doubled`).
Each certified matrix is sum_s S_s w_s over three integer slices, w =
(1, -1, -1) at d = 2 and (1, cos(t), sin(t)) on K's at d > 2.  Both rungs
enclose it by one slice loop over its nonzeros and integer bounds on
2^bits w (`_weight_bounds`, exact at d = 2; z is evaluated only in
`_root_bounds`), scattered into the dense midpoint and radius that the
rungs read: in doubles from the 80-bit bounds for the double rung, in
Python ints for each precision rung.

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
from typing import NamedTuple

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


class Slices(NamedTuple):
    """The three integer slices C_s of a form by their shared nonzero
    pattern: C_s[rows[k], cols[k]] = vals[s, k].  The positions are sorted
    row-major, each appears once, and no column of vals is all zero.  vals
    is int64, or an object array of Python ints."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def dense(self, n: int) -> np.ndarray:
        """The slices as one (n, n, 3) array, C_s = dense(n)[:, :, s]."""
        c = np.zeros((n, n, 3), dtype=self.vals.dtype)
        c[self.rows, self.cols] = self.vals.T
        return c


def _integer(v: np.ndarray) -> np.ndarray:
    """v as int64, or as an object array of Python ints when it is one or
    holds an unsigned entry past int64; DomainError for any other dtype
    (bool, float, complex, or objects that are not all ints): both rungs'
    soundness arguments, and the exact nullity, assume integer slices."""
    if v.dtype.kind in "iu":
        if v.dtype.kind == "u" and v.size and int(v.max()) >= 2 ** 63:
            return v.astype(object)
        return v.astype(np.int64, copy=False)
    if v.dtype == object and all(type(x) is int for x in v.flat):
        return v
    raise DomainError(f"coeffs of dtype {v.dtype}: need integer slices")


def _canonical(n: int, rows, cols, vals) -> Slices:
    """Slices of n x n matrices holding at each position the sum of the
    columns of vals given there; positions may repeat and come unsorted."""
    key = rows * n + cols
    if len(key) and not np.all(key[1:] > key[:-1]):
        order = np.argsort(key)
        key = key[order]
        head = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
        vals = np.add.reduceat(np.take(vals, order, axis=1), head, axis=1)
        rows, cols = rows[order[head]], cols[order[head]]
    keep = (vals != 0).any(axis=0)
    return Slices(rows[keep], cols[keep], np.compress(keep, vals, axis=1))


@dataclass(frozen=True, eq=False)
class HermitianForm:
    """Exact Hermitian form H = C0 + z C1 + conj(z) C2 over Z[z], with
    z = exp(2*pi*i*a/d) and a = [d/2], for a prime d.

    `coeffs` is given either as a dense integer array of shape
    (dimension, dimension, k), 1 <= k <= 3, whose slice coeffs[:, :, s] is
    C_s (missing slices are zero), or as `Slices`; it is held as `Slices`,
    the slices' nonzeros, so that every integer layer of `inertia` works
    in O(nnz).  Any dtype but a signed or unsigned integer one, or an
    object array of Python ints, is rejected with DomainError.  H is
    Hermitian when C0 is symmetric and C2 = C1^T, as `build_form` makes it;
    `inertia` rejects any other form.  `source` carries (p, q) when the
    form came from a torus knot, enabling the arithmetic nullity
    certificate.  `involution`, an index array P with P P = id,
    P C0 P^T = C0 and P C1 P^T = C2, makes P H P^T = conj(H), so that
    `inertia` certifies a congruent real symmetric matrix instead of H
    (see `_real_slices`), and at d = 2, where that matrix splits, its two
    diagonal blocks apart (`_halves`).  `build_form` passes on the Seifert
    form's reversal involution; a form without one, such as a sourceless
    form built from its slices, is certified at d = 2 as H itself and at
    d > 2 as the direct sum of H and conj(H) (`_doubled`).
    """

    d: int
    dimension: int
    coeffs: object
    source: tuple = None
    involution: np.ndarray = None

    def __post_init__(self):
        _require_prime(self.d)
        n, c = self.dimension, self.coeffs
        if isinstance(c, Slices):
            rows, cols, vals = (np.asarray(x) for x in c)
            vals = _integer(vals)
            if not (vals.ndim == 2 and vals.shape[0] == 3
                    and rows.shape == cols.shape == vals.shape[1:]
                    and rows.dtype.kind in "iu" and cols.dtype.kind in "iu"
                    and np.all((rows >= 0) & (rows < n))
                    and np.all((cols >= 0) & (cols < n))):
                raise DomainError(f"slices out of shape for dimension {n}")
        else:
            c = np.asarray(c)
            if c.ndim != 3 or c.shape[:2] != (n, n) or not 1 <= c.shape[2] <= 3:
                raise DomainError(f"coeffs of shape {c.shape}: need "
                                  f"({n}, {n}, k) with 1 <= k <= 3")
            c = _integer(c)
            rows, cols = np.nonzero((c != 0).any(axis=2))
            vals = np.zeros((3, len(rows)), dtype=c.dtype)
            vals[:c.shape[2]] = c[rows, cols].T
        object.__setattr__(self, "coeffs", _canonical(
            n, rows.astype(np.int64, copy=False),
            cols.astype(np.int64, copy=False), vals))

    @property
    def a(self) -> int:
        return self.d // 2


def build_form(f: SeifertForm, d: int, source=None) -> HermitianForm:
    """H = (1-z)V + (1-conj(z))V^T at z = exp(2*pi*i*[d/2]/d), exactly, as
    the slices (V + V^T, -V, -V^T), from V's nonzeros; at d = 2 it
    evaluates to 2(V + V^T).  The form keeps f's reversal involution, under
    which it is symmetric."""
    r, c, v = f.rows, f.cols, f.vals
    zero = np.zeros_like(v)
    slices = Slices(np.concatenate([r, c]), np.concatenate([c, r]),
                    np.stack([np.concatenate([v, v]),
                              np.concatenate([-v, zero]),
                              np.concatenate([zero, -v])]))
    return HermitianForm(d, f.dimension, slices, source, f.involution)


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
    for the weights of a real matrix sum_s S_s w_s that `inertia`
    certifies: (1, -1, -1) on a d = 2 form's slices, exactly, else
    (1, cos(t), sin(t)) on K's, from `_root_bounds`."""
    one = 1 << bits
    if d == 2:
        return (one, -one, -one), (0, 0, 0)
    (c_lo, c_hi), (s_lo, s_hi) = _root_bounds(d, bits)
    c, s = (c_lo + c_hi) >> 1, (s_lo + s_hi) >> 1
    return (one, c, s), (0, c_hi - c, s_hi - s)


def _slice_sum(slices: Slices, n: int, mid, rad, dtype):
    """(sum_s C_s mid_s, sum_s |C_s| rad_s), dense n x n, over the slices'
    nonzeros: evaluated in dtype, exactly for object (Python ints), else
    with rounding, in the order 0 + t_0 + t_1 + t_2 of the slices, each
    cast in the ufuncs' buffers; then scattered into zero matrices."""
    rows, cols, vals = slices
    cv, rv, t = (np.zeros(len(rows), dtype) for _ in range(3))
    for s in range(3):
        x = vals[s]
        np.multiply(x, mid[s], out=t, dtype=dtype, casting="unsafe")
        cv += t
        np.abs(x, out=t, dtype=dtype, casting="unsafe")
        t *= rad[s]
        rv += t
    c, r = np.zeros((n, n), dtype), np.zeros((n, n), dtype)
    c[rows, cols] = cv
    r[rows, cols] = rv
    return c, r


def _float_enclosure(slices: Slices, n: int, d: int) -> MRMatrix:
    """Real double enclosure of the n x n matrix F = sum_s C_s w_s, C_s the
    integer slices and w the weights of `_weight_bounds(d, 80)`: a matrix
    that `inertia` certifies.  A weight's midpoint rounds to nearest, and
    its radius, grown by that rounding exactly, rounds up.  The radius
    weight 8u |mid_s| covers the cast of C_s (object slices past int64
    included), the product and the two sums of each entry, and 1e-300
    underflow."""
    mid, rad = [], []
    for m, r in zip(*_weight_bounds(d, 80)):
        f = float(m)
        e = r + abs(m - int(f))
        mid.append(f * 2.0 ** -80)
        rad.append(((nextafter(e, inf) if e else 0.0)
                    + 8 * 2.0 ** -53 * abs(f)) * 2.0 ** -80)
    c, r = _slice_sum(slices, n, mid, rad, np.float64)
    r += 1e-300
    return MRMatrix(c, r)


def _mp_enclosure(slices: Slices, n: int, d: int, prec: int):
    """(c, rad), n x n object arrays of Python ints with
    |2^prec F - c| <= rad entrywise for F = sum_s C_s w_s and w the weights
    of `_weight_bounds(d, prec)`; exact at d = 2, with rad = 0."""
    return _slice_sum(slices, n, *_weight_bounds(d, prec), object)


def _matching(key, image):
    """The order with image[order] == key, or None if image, a list of
    distinct positions, is not a reordering of key."""
    order = np.argsort(image)
    return order if np.array_equal(image[order], key) else None


def _checked_involution(h: HermitianForm):
    """h's involution P as an index array, or None if it has none.  Raises
    DomainError unless H is Hermitian (C0 = C0^T and C2 = C1^T) and P is a
    symmetry of it (P P = id, P C0 P^T = C0 and P C1 P^T = C2).  The
    comparisons are exact, on the slices' nonzeros: the transposed or
    permuted pattern must be the pattern itself, with the values asked."""
    n = h.dimension
    rows, cols, vals = h.coeffs
    key = rows * n + cols
    t = _matching(key, cols * n + rows)
    if t is None or not (np.array_equal(vals[0, t], vals[0])
                         and np.array_equal(vals[1, t], vals[2])):
        raise DomainError(f"the form at d={h.d} is not Hermitian: need "
                          f"C0 = C0^T and C2 = C1^T")
    if h.involution is None:
        return None
    p = np.asarray(h.involution)
    if (p.shape == (n,) and p.dtype.kind in "iu"
            and np.all((p >= 0) & (p < n))
            and np.array_equal(p[p], np.arange(n))):
        t = _matching(key, p[rows] * n + p[cols])
        if t is not None and (np.array_equal(vals[0, t], vals[0])
                              and np.array_equal(vals[1, t], vals[2])):
            return p
    raise DomainError("the involution is not a symmetry of the form: "
                      "need P P = id, P C0 P^T = C0 and P C1 P^T = C2")


def _real_slices(coeffs: Slices, n: int, p) -> Slices:
    """Slices (R0, R1, R2) of the real symmetric n x n
    K = R0 + cos(t) R1 + sin(t) R2 = W* H W / 2, for an involution p
    verified by `_checked_involution`.

    P H P^T = conj(H), that is H[p[a], p[b]] = conj(H[a, b]).  W has the
    columns u_a = e_a + e_p[a] for a <= p[a] (2 e_a at a fixed point), then
    v_a = i (e_a - e_p[a]) for a < p[a]; its 2 x 2 blocks on each pair
    {a, p[a]} are invertible, so by Sylvester's law K has H's inertia.  With
    X^+ = X[a, b] + X[a, p[b]] and X^- = X[a, b] - X[a, p[b]],
    u* H u / 2 = (Re H)^+, v* H v / 2 = (Re H)^-, u* H v / 2 = -(Im H)^-
    and v* H u / 2 = (Im H)^+, where Re H = C0 + cos(t) (C1 + C2) and
    Im H = sin(t) (C1 - C2).  K's basis is ordered as the f fixed points,
    the a < p[a], then the v_a: K's diagonal blocks, the u and the v rows,
    hold R0 and R1, and its off-diagonal blocks R2 alone.  Only the rows
    a <= p[a] of the C_s are read: each nonzero X[a, b] is added into
    (X^+)[a, rep(b)], with weight 2 at a fixed point b, and, for b not
    fixed, into (X^-)[a, rep(b)] with the sign of e_b in v_b, rep(b) the
    lesser of b and p[b].  O(nnz log nnz) work on integers, in int64
    unless an entry reaches 2^60: each entry of K's slices sums at most
    four of C's, and R0 - R1 (`_halves`) eight, which could then overflow,
    so Python ints are used instead."""
    rows, cols, vals = coeffs
    idx = np.arange(n)
    pairs = idx[idx < p]
    f, m = n - 2 * len(pairs), n - len(pairs)
    u, v = np.zeros(n, np.int64), np.zeros(n, np.int64)
    u[idx == p] = np.arange(f)
    u[pairs] = u[p[pairs]] = np.arange(f, m)
    v[pairs] = v[p[pairs]] = np.arange(m, n)
    top = max(int(vals.max()), -int(vals.min())) if vals.size else 0
    vals = vals.astype(object if top >= 2 ** 60 else np.int64, copy=False)
    read = rows <= p[rows]
    a, b, y = rows[read], cols[read], np.compress(read, vals, axis=1)
    x0, x1, x2 = y[0], y[1] + y[2], y[1] - y[2]
    w = np.where(b == p[b], 2, 1)   # u_b's weight on e_b
    sign = np.where(b < p[b], 1, -1)   # v_b's sign on e_b, up to i
    va, vb = a < p[a], b != p[b]   # a v row, a v column
    z = np.zeros_like(x0)
    # (the entries kept, K's row, K's column, their parts of R0, R1, R2)
    parts = ((np.ones_like(va), u[a], u[b], (w * x0, w * x1, z)),
             (va & vb, v[a], v[b], (sign * x0, sign * x1, z)),
             (vb, u[a], v[b], (z, z, -sign * x2)),
             (va, v[a], u[b], (z, z, w * x2)))
    return _canonical(
        n, np.concatenate([r[k] for k, r, _, _ in parts]),
        np.concatenate([c[k] for k, _, c, _ in parts]),
        np.concatenate([np.compress(k, x, axis=1) for k, _, _, x in parts],
                       axis=1))


def _halves(k: Slices, p):
    """At d = 2, K of `_real_slices` is R0 - R1: its weights (1, cos(pi),
    sin(pi)) are exactly (1, -1, 0), so R2, which alone fills K's
    off-diagonal blocks, drops out and K = diag(K+, K-), on the u and the
    v rows.  Returns (size, Slices of (K+-, 0, 0)) for the two blocks."""
    n = len(p)
    m = n - np.count_nonzero(np.arange(n) < p)
    rows, cols, vals = k
    one = vals[0] - vals[1]
    out = []
    for lo, hi in ((0, m), (m, n)):
        keep = (rows >= lo) & (rows < hi) & (cols >= lo) & (cols < hi)
        s = np.zeros((3, np.count_nonzero(keep)), dtype=one.dtype)
        s[0] = one[keep]
        out.append((hi - lo, Slices(rows[keep] - lo, cols[keep] - lo, s)))
    return out


def _doubled(h: HermitianForm) -> HermitianForm:
    """The direct sum of H and conj(H) = H^T, a form of twice h's dimension
    with the block-diagonal slices diag(C0, C0), diag(C1, C2) and
    diag(C2, C1), and with the swap a <-> a + n of its two copies as its
    involution.  Its inertia is twice H's."""
    n = h.dimension
    rows, cols, vals = h.coeffs
    slices = Slices(np.concatenate([rows, rows + n]),
                    np.concatenate([cols, cols + n]),
                    np.concatenate([vals, vals[[0, 2, 1]]], axis=1))
    swap = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    return replace(h, dimension=2 * n, coeffs=slices, involution=swap)


def _block(slices: Slices, n: int, d: int, nullity: int):
    """(float_fn, mp_fn, n, nullity) for the n x n matrix sum_s C_s w_s of
    the slices at d's weights: its enclosure builders, for
    `certified_inertia`, and its exact nullity."""
    return (lambda: _float_enclosure(slices, n, d),
            lambda prec: _mp_enclosure(slices, n, d, prec), n, nullity)


def _enclosures(h: HermitianForm):
    """(blocks, copies): the real symmetric matrices that `inertia`
    certifies for h, as `_block`s, whose counts sum to copies times H's.
    At d = 2 that is H itself, or with an involution the two halves of K
    (`_halves`), each certified as the d = 2 form (K+-, 0, 0) with its own
    exact nullity.  At d > 2 it is the K of `_real_slices`, of h when it
    carries an involution (one copy), else of `_doubled(h)` (two).  Checks
    h first (`_checked_involution`)."""
    p = _checked_involution(h)
    if h.d == 2:
        parts = [h] if p is None else [
            HermitianForm(2, size, s, h.source)
            for size, s in _halves(_real_slices(h.coeffs, h.dimension, p), p)]
        return [_block(x.coeffs, x.dimension, 2, _nullity(x))
                for x in parts], 1
    copies = 1 if p is not None else 2
    nullity = copies * _nullity(h)
    if p is None:
        h = _doubled(h)
        p = h.involution
    k = _real_slices(h.coeffs, h.dimension, p)
    return [_block(k, h.dimension, h.d, nullity)], copies


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
    return cyclotomic.hermitian_nullity_exact(h.coeffs.dense(h.dimension), h.d)


def inertia(h: HermitianForm) -> Inertia:
    """Certified inertia (n_plus, n_zero, n_minus) of the form, the sum of
    its blocks' (`_enclosures`); DomainError, before any rung runs, unless
    it is Hermitian and its involution, if any, is a symmetry of it."""
    blocks, copies = _enclosures(h)
    counts = [0, 0, 0]
    for float_fn, mp_fn, n, nullity in blocks:
        res = certified_inertia(float_fn, mp_fn, n, nullity)
        counts = [c + x for c, x in zip(counts, (res.n_plus, res.n_zero,
                                                 res.n_minus))]
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
