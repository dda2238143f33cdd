"""Exact nullity of a Hermitian form over the cyclotomic field Q(zeta_d).

A form H = C0 + z C1 + conj(z) C2 with integer slices C_s, prime d and
z = zeta^a, a = [d/2], acts Q(zeta_d)-linearly on Q(zeta_d)^n.  Over the
power basis 1, zeta, ..., zeta^{d-2}, multiplication by zeta is the
companion matrix Z of 1 + x + ... + x^{d-1}, so the same map on Q^{n(d-1)}
is sum_s kron(C_s, Z^e_s) with e = (0, a, d-a).  Every Q(zeta_d)-subspace
has Q-dimension d-1 times its own, so the nullity over Q(zeta_d) is the
rational nullity of that integer matrix divided by d-1.  Only small forms
come through here (forms without a torus knot source), so one exact
fraction-free elimination over Python integers is fine.
"""

import numpy as np

from .errors import InternalCheckError


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


def hermitian_nullity_exact(coeffs, d) -> int:
    """Exact nullity over Q(zeta_d), prime d, of the form whose integer
    slices are coeffs[:, :, s] (see tristram.HermitianForm)."""
    n = coeffs.shape[0]
    zeta = np.zeros((d - 1, d - 1), dtype=object)   # the companion matrix Z
    zeta[1:, :-1] = np.eye(d - 2, dtype=object)
    zeta[:, -1] = -1
    a = d // 2
    real = sum(np.kron(coeffs[:, :, s].astype(object),
                       np.linalg.matrix_power(zeta, e))
               for s, e in zip(range(coeffs.shape[2]), (0, a, d - a)))
    nullity, rem = divmod(n * (d - 1) - rational_rank(real), d - 1)
    if rem:
        raise InternalCheckError(
            f"rational nullity of a form at d={d} is not a multiple of {d - 1}")
    return nullity
