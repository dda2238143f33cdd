"""Exact nullity of a Hermitian form over the cyclotomic field Q(zeta_d).

A form H = C0 + z C1 + conj(z) C2 with integer slices C_s, prime d and
z = zeta^a, a = [d/2], acts Q(zeta_d)-linearly on Q(zeta_d)^n.  Over the
power basis 1, zeta, ..., zeta^{d-2}, multiplication by zeta is the
companion matrix Z of 1 + x + ... + x^{d-1}, so the same map on Q^{n(d-1)}
is sum_s kron(C_s, Z^e_s) with e = (0, a, d-a).  Every Q(zeta_d)-subspace
has Q-dimension d-1 times its own, so the nullity over Q(zeta_d) is the
rational nullity of that integer matrix divided by d-1.  Only small forms
come through here (forms without a torus knot source), so one exact
fraction-free elimination over Python integers is fine, up to a bound on
its size.
"""

import numpy as np

from .errors import DomainError, InternalCheckError

# The elimination takes O(N^3) steps on Python ints, N = n(d-1), whose
# entries grow with each pivot.  On forms of dimension n = 4 with entries
# of at most 3, one nullity took 0.10 s at N = 120 (d = 31), 1.3 s at
# N = 264 (d = 67) and 15.9 s at N = 504 (d = 127) (2-vCPU Intel Xeon,
# Python 3.11).  A larger N is rejected with DomainError before any array
# is built.
MAX_EXACT_DIM = 2 ** 8


def rational_rank(m) -> int:
    """Rank over Q of an integer matrix, by Bareiss fraction-free
    elimination: after k pivots every entry is a (k+1)-minor, so each
    division by the previous pivot is exact."""
    m = np.array(m, dtype=object)
    rows, cols = m.shape
    rank, prev = 0, 1
    for col in range(cols):
        if rank == rows:
            break
        nonzero = np.flatnonzero(m[rank:, col])
        if not nonzero.size:
            continue
        piv = rank + nonzero[0]
        m[[rank, piv]] = m[[piv, rank]]
        pv = m[rank, col]
        below = m[rank + 1:]
        below[:, col + 1:] = (below[:, col + 1:] * pv - np.outer(
            below[:, col], m[rank, col + 1:])) // prev
        prev = pv
        rank += 1
    return rank


def hermitian_nullity_exact(slices, n, d) -> int:
    """Exact nullity over Q(zeta_d), prime d, of the n x n form whose three
    integer slices C_s have the nonzeros `slices` (see tristram.Slices);
    DomainError when n(d-1) > MAX_EXACT_DIM.  Each nonzero (r, c) fills
    the (d-1) x (d-1) block (r, c) of the rational matrix."""
    if n * (d - 1) > MAX_EXACT_DIM:
        raise DomainError(f"exact nullity of a form of dimension {n} at "
                          f"d={d}: n(d-1) = {n * (d - 1)} exceeds "
                          f"MAX_EXACT_DIM = {MAX_EXACT_DIM}")
    rows, cols, vals = slices
    zeta = np.zeros((d - 1, d - 1), dtype=object)   # the companion matrix Z
    zeta[1:, :-1] = np.eye(d - 2, dtype=object)
    zeta[:, -1] = -1
    a = d // 2
    real = np.zeros((n, d - 1, n, d - 1), dtype=object)
    real[rows, :, cols, :] = sum(
        np.multiply.outer(vals[s].astype(object),
                          np.linalg.matrix_power(zeta, e))
        for s, e in enumerate((0, a, d - a)))
    real = real.reshape(n * (d - 1), n * (d - 1))
    nullity, rem = divmod(n * (d - 1) - rational_rank(real), d - 1)
    if rem:
        raise InternalCheckError(
            f"rational nullity of a form at d={d} is not a multiple of {d - 1}")
    return nullity
