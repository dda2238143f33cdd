"""Certified Tristram d-signatures.

For a knot with Seifert matrix V and a prime d, the d-signature is the
signature of the Hermitian form

    H = (1 - z) V + (1 - conj(z)) V^T,   z = exp(2*pi*i*a/d),  a = [d/2],

so sigma_2 is the ordinary signature (z = -1 gives H = 2(V + V^T)).  H is
linear in z and conj(z), so it is stored exactly as three integer slices,
H = (V + V^T) + z (-V) + conj(z) (-V^T), whatever d is, by their shared
nonzero pattern (`Slices`): a torus form has a few nonzeros per row, and
every integer layer, from the Seifert matrix (`seifert`) to the real
reduction below, works on them in O(nnz log nnz), in int64 below 2^60 and
in Python ints past it (`_integer`), so every sum it forms is exact.
Torus knot forms at prime d are always nonsingular: every root of their
Alexander polynomial is a root of unity of composite order, while z has
prime order d.  That arithmetic fact certifies the nullity; a form without
a torus knot source gets its nullity from one exact rational rank
(`cyclotomic`).  The remaining eigenvalue signs are certified by
`certify`: interval arithmetic in doubles, then exact congruences in
Python ints at rising precision until every sign resolves or a cap is hit.
Every form reaches `certify` by one path (`_enclosures`): an involution P
with P H P^T = conj(H) makes H congruent to a real symmetric matrix K of
the same size, whose integer slices are sums of H's nonzeros
(`_real_slices`, after A. Lee, "Centrohermitian and skew-centrohermitian
matrices", Linear Algebra Appl. 29, 1980).  The Seifert basis of a torus
braid carries one, its reversal with P V P^T = V^T (`seifert`).  Without
one, H = C0 - (C1 + C2) is real at d = 2, so the identity is one (K = 2H),
and at d > 2 the direct sum of H and conj(H) has one, the swap of its two
copies, and twice H's counts (`_doubled`).  K = R0 + cos(t) R1 + sin(t) R2,
t = 2*pi*a/d, and R2 alone couples K's two diagonal blocks; at d = 2,
sin(t) = 0 exactly, so the blocks are certified apart and their counts
added.  Each block is sum_s S_s w_s over its three integer slices, with
the weights w = (1, cos(t), sin(t)) at every d.  Both rungs enclose it by
one slice loop over its nonzeros and integer bounds on 2^bits w
(`_weight_bounds`), scattered into the dense midpoint and radius that the
rungs read: in doubles from the 80-bit bounds for the double rung, in
Python ints for each precision rung.  z is evaluated once per precision,
in Python integers, in `_root_bounds`, and exactly at d = 2.

The exact integer fast path for torus knots, Litherland's window count,
lives in `lattice`, which imports neither numpy nor this module; the one
function that picks a route, this one or that count, is `tristram_sigma`.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from math import gcd, inf, nextafter
from typing import NamedTuple

import numpy as np

from . import cyclotomic, lattice
from .certify import Inertia, MRMatrix, certified_inertia
from .core import TorusKnotParams, normalize
from .errors import DomainError, InternalCheckError
from .seifert import SeifertForm, seifert_matrix, torus_braid

# the kernel names perfbench reads here: the window count, and the O(pq)
# lattice enumeration it is tested against
sigma_d_counting = lattice.sigma_d_counting
_sigma_counting_brute = lattice.sigma_d_enumerated


class Slices(NamedTuple):
    """The three integer slices C_s of a form by their shared nonzero
    pattern: C_s[rows[k], cols[k]] = vals[s, k].  The positions are sorted
    row-major, each appears once, and no column of vals is all zero.  vals
    is held as `_integer` makes it."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def dense(self, n: int) -> np.ndarray:
        """The slices as one (n, n, 3) array, C_s = dense(n)[:, :, s]."""
        c = np.zeros((n, n, 3), dtype=self.vals.dtype)
        c[self.rows, self.cols] = self.vals.T
        return c


def _integer(v: np.ndarray) -> np.ndarray:
    """v's values as int64 when every one is below 2^60 in modulus, else as
    an object array of Python ints: the integer layers' one overflow rule,
    under which a sum of up to eight int64 values stays inside int64 and
    no layer adds more.  DomainError unless v has a signed or unsigned
    integer dtype or holds Python ints: both rungs' soundness arguments,
    and the exact nullity, assume integer slices."""
    if not (v.dtype.kind in "iu" or (v.dtype == object and all(
            type(x) is int for x in v.flat))):
        raise DomainError(f"coeffs of dtype {v.dtype}: need integer slices")
    top = max(int(v.max()), -int(v.min())) if v.size else 0
    return v.astype(np.int64 if top < 2 ** 60 else object, copy=False)


def _canonical(n: int, rows, cols, vals) -> Slices:
    """Slices of n x n matrices holding at each position the sum of the
    columns of vals given there; positions may repeat and come unsorted.
    The sums are exact: the values pass `_integer` before and after they
    are merged, and a position given more than eight times is summed in
    Python ints."""
    vals = _integer(vals)
    key = rows * n + cols
    if len(key) and not np.all(key[1:] > key[:-1]):
        order = np.argsort(key)
        key = key[order]
        head = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
        vals = np.take(vals, order, axis=1)
        if np.diff(head, append=len(key)).max() > 8:
            vals = vals.astype(object)
        vals = _integer(np.add.reduceat(vals, head, axis=1))
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
    in O(nnz).  Its values are summed exactly where positions repeat, and
    held as int64 below 2^60 in modulus, else as Python ints; any other
    dtype is rejected with DomainError (`_integer`).  H is Hermitian when
    C0 is symmetric and C2 = C1^T, as `build_form` makes it; `inertia`
    rejects any other form.  `source` carries (p, q) when the form came
    from a torus knot, enabling the arithmetic nullity certificate.
    `involution`, an index array P with P P = id, P C0 P^T = C0 and
    P C1 P^T = C2, makes P H P^T = conj(H), so that `inertia` certifies a
    congruent real symmetric matrix instead of H (see `_real_slices`).
    `build_form` passes on the Seifert form's reversal involution; a form
    without one, such as a sourceless form built from its slices, is
    reduced at d = 2 under the identity and at d > 2 as the direct sum of
    H and conj(H) (`_doubled`).
    """

    d: int
    dimension: int
    coeffs: object
    source: tuple = None
    involution: np.ndarray = None

    def __post_init__(self):
        lattice._require_prime(self.d)
        n, c = self.dimension, self.coeffs
        if isinstance(c, Slices):
            rows, cols, vals = (np.asarray(x) for x in c)
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
    evaluates to 2(V + V^T).  V's values pass `_integer` before they are
    negated.  The form keeps f's reversal involution, under which it is
    symmetric."""
    r, c, v = f.rows, f.cols, _integer(np.asarray(f.vals))
    zero = np.zeros_like(v)
    slices = Slices(np.concatenate([r, c]), np.concatenate([c, r]),
                    np.stack([np.concatenate([v, v]),
                              np.concatenate([-v, zero]),
                              np.concatenate([zero, -v])]))
    return HermitianForm(d, f.dimension, slices, source, f.involution)


@lru_cache(maxsize=None)
def _machin_pi(w: int):
    """(pi, e_pi): pi in fixed point at w bits from Machin's formula, and
    the bound on its error that `_root_bounds` derives; computed once per
    working precision, since it does not depend on d."""
    pi = e_pi = 0
    for x, m in ((5, 16), (239, -4)):
        k, y = 0, (1 << w) // x
        e_pi += abs(m)
        while y:
            pi += m * (y // (2 * k + 1))
            m, y, k = -m, y // (x * x), k + 1
            e_pi += abs(m)
    return pi, e_pi


@lru_cache(maxsize=None)
def _root_bounds(d: int, bits: int):
    """Integer enclosures ((c_lo, c_hi), (s_lo, s_hi)) of 2^bits cos(t) and
    2^bits sin(t), t = 2*pi*a/d, each at most 2 wide: the one place where z
    is evaluated, in Python integers, in fixed point at w = bits + g bits.

    With phi = pi (d - 2a)/d, cos(t) = -cos(phi), sin(t) = sin(phi) and
    0 <= phi <= pi/3.  Each integer X below stands for 2^w x, for a real x,
    within an error e_X written beside it:
      - pi = 16 atan(1/5) - 4 atan(1/239) (Machin), each atan(1/x) summed
        as sum_k (-1)^k [2^w / x^(2k+1)] / (2k+1), every term floored
        (error < 1), until 2^w / x^(2k+1) < 1: the alternating tail is
        then below its first term, < 1, so K terms err by less than K + 1;
      - phi as the floor of pi (d - 2a) / d: error (d - 2a) e_pi / d, plus
        1 for the floor;
      - cos and sin of the angle that phi's integer stands for exactly,
        from the terms u_n of its exponential series, u_0 = 2^w and u_n
        the floor of u_(n-1) phi / (2^w n) until one is 0.  As phi/n <= 1
        for n >= 2, each u_n falls short of its exact value by at most k,
        the number of floors of a nonzero product; the terms u_0 ... u_N,
        signed as in the cosine's and the sine's series, so sum to within
        N k, and each alternating tail is below its first term, at most
        k.  Both functions are 1-Lipschitz, so phi's error carries over.
    So e = e_phi + (N + 1) k bounds both sums' errors, and the enclosures
    are their floors and ceilings, minus and plus e, at 2^-g.  At d = 2
    phi = 0, and every error is 0: the bounds are exact.  N <= w + 2 and
    e_pi < 4w + 30, so the guard g = 2 bitlen(bits + 64) + 2 keeps 2e
    below 2^g, which bounds the width by 2."""
    g = 2 * (bits + 64).bit_length() + 2
    w = bits + g
    pi, e_pi = _machin_pi(w)
    odd = d - 2 * (d // 2)
    phi, r = divmod(pi * odd, d)
    e = -(-odd * e_pi // d) + (r != 0)
    u = 1 << w
    terms, k = [u], 0
    while u:
        x = u * phi
        u = (x >> w) // len(terms)
        terms.append(u)
        k += x != 0
    e += len(terms) * k
    c = sum(terms[0::4]) - sum(terms[2::4])
    s = sum(terms[1::4]) - sum(terms[3::4])
    return (((-c - e) >> g, -((c - e) >> g)),
            ((s - e) >> g, -((-s - e) >> g)))


@lru_cache(maxsize=None)
def _weight_bounds(d: int, bits: int):
    """Integers (mid, rad), three of each, with |2^bits w_s - mid_s| <= rad_s
    for the weights w = (1, cos(t), sin(t)) of the real matrix
    sum_s S_s w_s that `inertia` certifies, from `_root_bounds`; exact at
    d = 2, where they are (1, -1, 0)."""
    (c_lo, c_hi), (s_lo, s_hi) = _root_bounds(d, bits)
    c, s = (c_lo + c_hi) >> 1, (s_lo + s_hi) >> 1
    return (1 << bits, c, s), (0, c_hi - c, s_hi - s)


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


def _real_slices(coeffs: Slices, n: int, p, d: int) -> list:
    """K's diagonal blocks, as (size, slices (R0, R1, R2)), for the real
    symmetric n x n K = R0 + cos(t) R1 + sin(t) R2 = W* H W / 2 under an
    involution p with P H P^T = conj(H): [K] at d > 2, and at d = 2
    [K+, K-], its blocks on the u and the v rows, an empty one left out.

    P H P^T = conj(H) reads H[p[a], p[b]] = conj(H[a, b]).  W has the
    columns u_a = e_a + e_p[a] for a <= p[a] (2 e_a at a fixed point), then
    v_a = i (e_a - e_p[a]) for a < p[a]; its 2 x 2 blocks on each pair
    {a, p[a]} are invertible, so by Sylvester's law K has H's inertia.  With
    X^+ = X[a, b] + X[a, p[b]] and X^- = X[a, b] - X[a, p[b]],
    u* H u / 2 = (Re H)^+, v* H v / 2 = (Re H)^-, u* H v / 2 = -(Im H)^-
    and v* H u / 2 = (Im H)^+, where Re H = C0 + cos(t) (C1 + C2) and
    Im H = sin(t) (C1 - C2).  K's basis is ordered as the f fixed points,
    the a < p[a], then the v_a: K's diagonal blocks, the u and the v rows,
    hold R0 and R1, and its off-diagonal blocks R2 alone.  At d = 2,
    sin(t) = sin(pi) = 0 exactly (`_root_bounds`), so K = diag(K+, K-),
    whose counts add up to K's, and R2 is not built.  Only the rows
    a <= p[a] of the C_s are read: each nonzero X[a, b] is added into
    (X^+)[a, rep(b)], with weight 2 at a fixed point b, and, for b not
    fixed, into (X^-)[a, rep(b)] with the sign of e_b in v_b, rep(b) the
    lesser of b and p[b].  O(nnz log nnz) work on integers, each entry of
    K's slices a sum of at most four of C's (`_integer`)."""
    rows, cols, vals = coeffs
    idx = np.arange(n)
    pairs = idx[idx < p]
    f, m = n - 2 * len(pairs), n - len(pairs)
    u, v = np.zeros(n, np.int64), np.zeros(n, np.int64)
    u[idx == p] = np.arange(f)
    u[pairs] = u[p[pairs]] = np.arange(f, m)
    v[pairs] = v[p[pairs]] = np.arange(m, n)
    read = rows <= p[rows]
    a, b, y = rows[read], cols[read], np.compress(read, vals, axis=1)
    x0, x1, x2 = y[0], y[1] + y[2], y[1] - y[2]
    w = np.where(b == p[b], 2, 1)   # u_b's weight on e_b
    sign = np.where(b < p[b], 1, -1)   # v_b's sign on e_b, up to i
    va, vb = a < p[a], b != p[b]   # a v row, a v column
    z = np.zeros_like(x0)
    # (the entries kept, K's row, K's column, their parts of R0, R1, R2)
    uu = (np.ones_like(va), u[a], u[b], (w * x0, w * x1, z))
    vv = (va & vb, v[a], v[b], (sign * x0, sign * x1, z))
    if d == 2:
        blocks = ((0, m, [uu]), (m, n - m, [vv]))
    else:
        blocks = ((0, n, [uu, vv, (vb, u[a], v[b], (z, z, -sign * x2)),
                          (va, v[a], u[b], (z, z, w * x2))]),)
    return [(size, _canonical(
        size, np.concatenate([r[k] - lo for k, r, _, _ in parts]),
        np.concatenate([c[k] - lo for k, _, c, _ in parts]),
        np.concatenate([np.compress(k, x, axis=1) for k, _, _, x in parts],
                       axis=1))) for lo, size, parts in blocks if size]


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
    `certified_inertia`, and its exact nullity.  mp_fn(prec) gives
    (c, rad), n x n arrays of Python ints with |2^prec F - c| <= rad."""
    return (lambda: _float_enclosure(slices, n, d),
            lambda prec: _slice_sum(slices, n, *_weight_bounds(d, prec),
                                    object), n, nullity)


def _enclosures(h: HermitianForm):
    """(blocks, copies): the real symmetric matrices that `inertia`
    certifies for h, as `_block`s whose counts sum to copies times H's: the
    blocks of `_real_slices` under h's involution (`_checked_involution`),
    else at d = 2 under the identity, H being real, else under the swap of
    `_doubled(h)`, two copies of H.  A d = 2 block's nullity is that of its
    slices at d = 2 (R2 is zero); the one d > 2 block's is copies times H's."""
    p = _checked_involution(h)
    d, source, copies = h.d, h.source, 1
    if d > 2:
        nullity = _nullity(h.coeffs, h.dimension, d, source)
    if p is None and d == 2:
        p = np.arange(h.dimension)
    elif p is None:
        h, copies = _doubled(h), 2
        p = h.involution
    return [_block(s, size, d, copies * nullity if d > 2
                   else _nullity(s, size, d, source))
            for size, s in _real_slices(h.coeffs, h.dimension, p, d)], copies


def _nullity(slices: Slices, n: int, d: int, source) -> int:
    """The exact nullity of the n x n form of these slices at d: 0 for a
    torus knot `source`, else one exact rational rank (`cyclotomic`)."""
    if source is not None:
        p, q = source
        # z has prime order d; a root of the Alexander polynomial of T(p,q)
        # is a pq-th root of unity whose order divides neither p nor q, so
        # its order has prime factors from both p and q and is composite.
        # Hence H(z) is nonsingular.
        if gcd(p, q) != 1:
            raise InternalCheckError(
                f"nullity certificate needs coprime (p,q), got ({p},{q})")
        return 0
    return cyclotomic.hermitian_nullity_exact(slices, n, d)


def inertia(h: HermitianForm) -> Inertia:
    """Certified inertia (n_plus, n_zero, n_minus) of the form, the sum of
    its blocks' (`_enclosures`); DomainError, before any rung runs, unless
    it is Hermitian and its involution, if any, is a symmetry of it, or
    if the exact nullity of a form without a source would need a rational
    matrix past `cyclotomic.MAX_EXACT_DIM`."""
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
    lattice._require_prime(d)   # before building the Seifert matrix
    form = build_form(seifert_matrix(torus_braid(p, q)), d, source=(p, q))
    ine = inertia(form)
    if ine.n_zero != 0:
        raise InternalCheckError(
            f"H_{d}(T({p},{q})) is singular: nullity {ine.n_zero}")
    return ine.signature


def tristram_sigma(k: TorusKnotParams, d: int,
                   method: str = "hermitian") -> int:
    """sigma_d of a nontrivial torus knot (else DomainError): "hermitian"
    takes the certified route, "counting" `lattice`'s window count, any
    other method raises ValueError.  Both run through `lattice._routed`."""
    if k.is_trivial:
        raise DomainError(f"{k} is trivial")
    route = {"hermitian": _sigma_hermitian,
             "counting": lattice.sigma_d_counting}.get(method)
    if route is None:
        raise ValueError(f"unknown method {method!r}")
    return lattice._routed(k, d, route)


def prop35_bound_check(k: TorusKnotParams, d: int,
                       method: str = "counting") -> bool:
    """sigma_d <= -4 holds for every nontrivial torus knot except T(2,3);
    tristram_sigma raises InternalCheckError on a violation."""
    nk, _ = normalize(k)
    if nk.is_trivial or (nk.p, nk.q) == (2, 3):
        raise DomainError(f"{k} is outside the bound's domain")
    return tristram_sigma(k, d, method=method) <= -4
