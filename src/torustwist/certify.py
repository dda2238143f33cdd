"""Verified numeric linear algebra for certified inertia of real symmetric
forms.

Strategy: diagonalize H approximately, take the computed eigenvector
matrix Q as an exact matrix, and bound the exactly congruated matrix
M = Q^T H Q.  M is symmetric, so a connected component of k of its
Gershgorin row intervals [M_ii - r_i, M_ii + r_i] holds exactly k
eigenvalues of M.  Components strictly right of zero give
a eigenvalues certified positive, those strictly left give b certified
negative, and the components meeting zero must hold exactly the nullity z
of H, which is known exactly by other means; otherwise the attempt is
unresolved.

No invertibility check on Q is needed.  For any square Q,
n+(Q^T H Q) <= n+(H) and n-(Q^T H Q) <= n-(H): if M is positive definite
on a k-dimensional subspace V, then Qv != 0 for every nonzero v in V
(since v^T M v > 0), so H is positive definite on the k-dimensional QV.
Hence a <= n+(M) <= n+(H) and b <= n-(M) <= n-(H), while
a + b = n - z = n+(H) + n-(H); so a = n+(H) and b = n-(H).

The ladder runs on one matrix at a time, and its caller adds the counts
of a block-diagonal form's blocks: `tristram` certifies the two diagonal
blocks of a d = 2 form with an involution apart, so eigh and both
products below run per block, on about n/2 rows each.

The ladder has two kinds of rung.  The double rung runs LAPACK eigh on
the midpoint of H's enclosure H_mid +- rad_H and forms hq = fl(H_mid Q)
and m = fl(Q^T hq), its only n^3 products.  Under the standard model
|fl(A @ B) - A @ B| <= g |A| |B| entrywise, with g = `_gamma(n)` >=
2 (n+8)u/(1 - (n+8)u), u = 2^-53,

    |M - m| <= |Q|^T (g |H_mid| + rad_H) |Q| + g |Q|^T |hq|.

Gershgorin reads only this bound's row sums, so they are formed by
matrix-vector products in O(n^2): c = |Q| 1, v = (g |H_mid| + rad_H) c and
r = |Q|^T (g |hq| 1 + v), each stage rounded up by (1 + 4g) and an
underflow allowance.  Row i's interval is centred at m_ii with half-width
(sum_{j != i} |m_ij| + r_i)(1 + g), the diagonal left out of the sum
rather than subtracted from it, which could cancel the off-diagonal part.
The precision rungs form the same intervals with the same helper
(`_gershgorin_spread`), exactly and without the 1 + g, on integers.
Overestimating r only costs an occasional escalation, never soundness.
If it cannot separate the intervals, the mpmath rungs follow at 128, 256,
... bits up to a cap: mp.eigsy at that precision, then an exact integer
congruence (see `inertia_mp`) with no rounding model at all.  Each rung
takes H from its caller as an enclosure: an MRMatrix in doubles, and at
`prec` bits integer matrices c, rad with |2^prec H - c| <= rad entrywise,
built only when that rung runs.  Exhausting the cap raises, never guesses.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError, UndecidedSignError

_U = 2.0 ** -53
_TINY = 1e-300
# the highest mpmath precision, in bits, that certified_inertia tries
# before it raises UndecidedSignError; read at call time
PRECISION_CAP = 4096


@dataclass(frozen=True)
class Inertia:
    n_plus: int
    n_zero: int
    n_minus: int

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus


@dataclass
class MRMatrix:
    """Real symmetric interval matrix: entry (i,j) is the interval
    |x - mid_ij| <= rad_ij."""

    mid: np.ndarray
    rad: np.ndarray


def _gamma(k: int) -> float:
    t = (k + 8) * _U
    if not t < 0.01:
        raise InternalCheckError(f"dimension {k} too large for the "
                                 "rounding-error bound")
    return 2.0 * t / (1.0 - t)


def _up(x, g):
    """x, a float evaluation of sums of nonnegative products, rounded up."""
    return x * (1.0 + 4.0 * g) + 16.0 * _TINY


def _merge_and_count(lows, highs, nullity):
    """Gershgorin component counting on the real line.

    Each interval holds one eigenvalue; a maximal overlapping block of k
    intervals holds exactly k.  Blocks strictly right of zero count as
    positive, strictly left as negative.  Blocks containing zero must
    account for exactly `nullity` eigenvalues (the exactly-known kernel);
    otherwise the configuration is unresolved and None is returned.
    """
    n = len(lows)
    order = sorted(range(n), key=lambda i: (lows[i], highs[i]))
    n_plus = n_minus = n_zero_disks = 0
    i = 0
    while i < n:
        lo = lows[order[i]]
        hi = highs[order[i]]
        j = i + 1
        while j < n and lows[order[j]] <= hi:
            hi = max(hi, highs[order[j]])
            j += 1
        count = j - i
        if lo > 0.0:
            n_plus += count
        elif hi < 0.0:
            n_minus += count
        else:
            n_zero_disks += count
        i = j
    if n_zero_disks != nullity:
        return None
    return Inertia(n_plus, nullity, n_minus)


def _congruence(h: MRMatrix, q):
    """m = fl(Q^T fl(H_mid Q)) and r with sum_j |Q^T H Q - m|_ij <= r_i for
    every H in the enclosure h, by the chain in the module docstring."""
    g = _gamma(q.shape[0])
    hq = h.mid @ q
    m = q.T @ hq
    q_abs = np.abs(q)
    c = _up(q_abs.sum(axis=1), g)
    v = _up(g * (np.abs(h.mid) @ c) + h.rad @ c, g)
    w = _up(g * np.abs(hq).sum(axis=1) + v, g)
    return m, _up(w @ q_abs, g)


def _gershgorin_spread(m, r):
    """Half-widths of Gershgorin intervals centred at m_ii that hold the
    rows of every symmetric M with sum_j |M_ij - m_ij| <= r_i: exact for an
    object array of Python ints, else grown by 1 + g, which covers the
    floating row sums."""
    off = np.abs(m)
    np.fill_diagonal(off, 0)
    spread = off.sum(axis=1) + r
    return spread if m.dtype == object else spread * (1.0 + _gamma(len(r)))


def _gershgorin_count(m, r, nullity):
    """`_merge_and_count` on the Gershgorin intervals of `_gershgorin_spread`
    for m and r."""
    centers, spread = m.diagonal(), _gershgorin_spread(m, r)
    return _merge_and_count(list(centers - spread), list(centers + spread),
                            nullity)


def inertia_via_congruence(h: MRMatrix, nullity: int):
    """One double-precision certification attempt; None if unresolved."""
    n = h.mid.shape[0]
    if n == 0:
        return Inertia(0, 0, 0)
    try:
        _, q = np.linalg.eigh(h.mid)
    except np.linalg.LinAlgError:
        return None
    return _gershgorin_count(*_congruence(h, q), nullity)


# ---------------------------------------------------------------------------
# mpmath escalation path
# ---------------------------------------------------------------------------


def inertia_mp(enclosure_fn, n, prec, nullity):
    """Certification at `prec` bits: an mpmath eigenbasis, checked exactly.

    enclosure_fn(prec) must return n x n object arrays (c, rad) of Python
    ints with |2^prec H - c| <= rad entrywise.  mp.eigsy diagonalizes the
    midpoint 2^-prec c at `prec` bits; its eigenvector matrix, scaled by
    2^prec and rounded, is an integer matrix G.  With R = rad,
    M = G^T (2^prec H) G lies entrywise within G^T c G +- |G|^T R |G|.
    G^T c G is an integer matmul over Python ints; of the radius Gershgorin
    reads only the row sums |G|^T (R (|G| 1)), two integer matrix-vector
    products.  So the Gershgorin intervals of M are exact integers and no
    rounding model is involved.  Any integer G is allowed: G is the
    congruence itself, and by the argument in the module docstring it
    needs no invertibility check.  Returns None if unresolved.
    """
    from mpmath import mp
    from mpmath.libmp import mpf_shift, to_int

    c, rad = enclosure_fn(prec)
    with mp.workprec(prec):
        Hmid = mp.matrix([[mp.ldexp(x, -prec) for x in row]
                          for row in c.tolist()])
        try:
            _, Q = mp.eigsy(Hmid)
        except Exception:
            return None

    # Python ints in an object array: the matmuls below are exact
    g = np.array([to_int(mpf_shift(Q[i, j]._mpf_, prec), "n")
                  for i in range(n) for j in range(n)],
                 dtype=object).reshape(n, n)
    g_abs = np.abs(g)
    return _gershgorin_count(g.T @ (c @ g),
                             g_abs.T @ (rad @ g_abs.sum(axis=1)), nullity)


def certified_inertia(float_enclosure_fn, mp_enclosure_fn, n, nullity):
    """Run the ladder: double precision, then mpmath at 128, 256, ... bits
    up to PRECISION_CAP.

    float_enclosure_fn() -> MRMatrix; mp_enclosure_fn(prec) -> (c, rad),
    the integer enclosure of 2^prec H that `inertia_mp` reads, built only
    when a precision rung runs.  Raises UndecidedSignError when the cap is
    exhausted.
    """
    res = inertia_via_congruence(float_enclosure_fn(), nullity)
    if res is not None:
        return res
    cap = PRECISION_CAP
    prec = 128
    while prec <= cap:
        res = inertia_mp(mp_enclosure_fn, n, prec, nullity)
        if res is not None:
            return res
        prec *= 2
    raise UndecidedSignError(
        f"eigenvalue signs unresolved at precision cap {cap} bits",
        precision_bits=cap)
