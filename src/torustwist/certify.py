"""Verified numeric linear algebra for certified inertia of Hermitian forms.

Strategy: diagonalize approximately in floating point, then bound the exact
congruated matrix M = Q* H Q with midpoint-radius interval arithmetic.  Any
invertible Q preserves inertia under *-congruence, so once the Gershgorin
intervals of the enclosure of M separate cleanly from zero (up to an exactly
known nullity), the inertia of H is certified.  If double precision cannot
separate the intervals, the same construction is repeated in mpmath at
doubling precision up to a cap; exhausting the cap raises, never guesses.

Floating-point rigor follows the standard model: entrywise,
|fl(A @ B) - A @ B| <= gamma_k * |A| @ |B| with gamma_k = k*u/(1 - k*u),
u = 2^-53.  Generous slack factors are used throughout; radius
overestimation only costs an occasional escalation, never soundness.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError, UndecidedSignError

_U = 2.0 ** -53
_TINY = 1e-300


@dataclass(frozen=True)
class Inertia:
    n_plus: int
    n_zero: int
    n_minus: int

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus

    @property
    def dimension(self) -> int:
        return self.n_plus + self.n_zero + self.n_minus


@dataclass
class MRMatrix:
    """Complex interval matrix: entry (i,j) is the disk |z - mid_ij| <= rad_ij."""

    mid: np.ndarray
    rad: np.ndarray

    @staticmethod
    def exact(m) -> "MRMatrix":
        m = np.asarray(m, dtype=np.complex128)
        return MRMatrix(m, np.zeros(m.shape, dtype=np.float64))

    def dagger(self) -> "MRMatrix":
        return MRMatrix(self.mid.conj().T.copy(), self.rad.T.copy())


def _gamma(k: int) -> float:
    t = (k + 8) * _U
    if not t < 0.01:
        raise InternalCheckError(f"dimension {k} too large for the "
                                 "rounding-error bound")
    return 2.0 * t / (1.0 - t)


def mr_matmul(a: MRMatrix, b: MRMatrix) -> MRMatrix:
    k = a.mid.shape[1]
    g = _gamma(k)
    mid = a.mid @ b.mid
    am, bm = np.abs(a.mid), np.abs(b.mid)
    rad = am @ b.rad + a.rad @ (bm + b.rad) + g * (am @ bm)
    rad = rad * (1.0 + 4.0 * g) + 16.0 * _TINY
    return MRMatrix(mid, rad)


def sup_abs(a: MRMatrix) -> np.ndarray:
    """Entrywise upper bound on |entry| over the enclosure."""
    return np.abs(a.mid) * (1.0 + 8.0 * _U) + a.rad


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


def _gershgorin_inertia(m: MRMatrix, nullity):
    n = m.mid.shape[0]
    a = sup_abs(m)
    off = a.sum(axis=1) - a.diagonal()
    centers = m.mid.diagonal().real
    # the true diagonal is real (M is exactly Hermitian); its enclosure slop
    # is the disk radius, and the row sum itself gets an accumulation bound
    spread = (off + np.abs(m.mid.diagonal().imag)) * (1.0 + _gamma(n)) \
        + m.rad.diagonal() + 16.0 * _TINY
    return _merge_and_count(list(centers - spread), list(centers + spread), nullity)


def inertia_via_congruence(h: MRMatrix, nullity: int):
    """One double-precision certification attempt; None if unresolved."""
    n = h.mid.shape[0]
    if n == 0:
        return Inertia(0, 0, 0)
    try:
        _, q = np.linalg.eigh(h.mid)
    except np.linalg.LinAlgError:
        return None
    qm = MRMatrix.exact(q)
    qh = qm.dagger()
    s = mr_matmul(qh, qm)
    s.mid[np.diag_indices(n)] -= 1.0
    s.rad += 2.0 * _U * np.abs(s.mid) + _TINY
    if float(sup_abs(s).sum(axis=1).max()) * (1.0 + _gamma(n)) >= 1.0:
        return None  # Q not certifiably invertible
    m = mr_matmul(qh, mr_matmul(h, qm))
    return _gershgorin_inertia(m, nullity)


# ---------------------------------------------------------------------------
# mpmath escalation path
# ---------------------------------------------------------------------------


def _iv_outward(x):
    """Convert an mpmath interval to an outward-rounded float pair."""
    lo = math.nextafter(float(x.a), -math.inf)
    hi = math.nextafter(float(x.b), math.inf)
    return lo, hi


def inertia_mp(entry_interval_fn, n, prec, nullity):
    """Certification at `prec` bits via mpmath interval arithmetic.

    entry_interval_fn(i, j) must return the exact entry H[i,j] as a pair of
    mpmath.iv real intervals (re, im), evaluated inside the iv context that
    is active when it is called.  O(n^3) interval operations in pure Python,
    so this is the slow path of last resort.
    """
    from mpmath import iv, mp

    old_iv, old_mp = iv.prec, mp.prec
    iv.prec = prec
    mp.prec = prec
    try:
        H = [[entry_interval_fn(i, j) for j in range(n)] for i in range(n)]
        Hmid = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                re, im = H[i][j]
                Hmid[i, j] = mp.mpc(re.mid, im.mid)
        try:
            _, Q = mp.eighe(Hmid)
        except Exception:
            return None
        Qre = [[iv.mpf(Q[i, j].real) for j in range(n)] for i in range(n)]
        Qim = [[iv.mpf(Q[i, j].imag) for j in range(n)] for i in range(n)]

        def cmul(ar, ai, br, bi):
            return ar * br - ai * bi, ar * bi + ai * br

        # W = H Q, M = Q^* W; entries as (re, im) interval pairs
        W = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                sr = iv.mpf(0)
                si = iv.mpf(0)
                for k in range(n):
                    hr, hi_ = H[i][k]
                    r, im_ = cmul(hr, hi_, Qre[k][j], Qim[k][j])
                    sr += r
                    si += im_
                W[i][j] = (sr, si)
        lows, highs = [], []
        rowsum_hi = [0.0] * n
        centers = [None] * n
        for i in range(n):
            for j in range(n):
                sr = iv.mpf(0)
                si = iv.mpf(0)
                for k in range(n):
                    # conj(Q[k][i]) * W[k][j]
                    r, im_ = cmul(Qre[k][i], -Qim[k][i], W[k][j][0], W[k][j][1])
                    sr += r
                    si += im_
                if i == j:
                    centers[i] = (sr, si)
                else:
                    relo, rehi = _iv_outward(sr)
                    imlo, imhi = _iv_outward(si)
                    rowsum_hi[i] += math.hypot(max(abs(relo), abs(rehi)),
                                               max(abs(imlo), abs(imhi)))
        for i in range(n):
            relo, rehi = _iv_outward(centers[i][0])
            imlo, imhi = _iv_outward(centers[i][1])
            imslop = max(abs(imlo), abs(imhi))
            spread = (rowsum_hi[i] + imslop) * (1.0 + 64.0 * _U) + _TINY
            lows.append(relo - spread)
            highs.append(rehi + spread)
        return _merge_and_count(lows, highs, nullity)
    finally:
        iv.prec = old_iv
        mp.prec = old_mp


def certified_inertia(float_enclosure_fn, mp_entry_fn, n, nullity,
                      precision_cap=4096):
    """Run the ladder: double precision, then mpmath at 128, 256, ... bits.

    float_enclosure_fn() -> MRMatrix; mp_entry_fn(i, j) -> (re, im) iv pair.
    Raises UndecidedSignError when the cap is exhausted.
    """
    res = inertia_via_congruence(float_enclosure_fn(), nullity)
    if res is not None:
        return res
    prec = 128
    while prec <= precision_cap:
        res = inertia_mp(mp_entry_fn, n, prec, nullity)
        if res is not None:
            return res
        prec *= 2
    raise UndecidedSignError(
        f"eigenvalue signs unresolved at precision cap {precision_cap} bits",
        precision_bits=precision_cap)
