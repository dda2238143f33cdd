"""Exact integer computation of sigma(T(p,q)) by lattice-point counting.

sigma(T(p,q)) = sigma_plus - sigma_minus, where sigma_plus counts pairs
(i,j), 0 < i < p, 0 < j < q, with i/p + j/q in (0, 1/2) or (3/2, 2), and
sigma_minus counts those in (1/2, 3/2).  For coprime p, q the boundary
values are never attained; the enumeration checks this.  The closed forms
below evaluate the same quantity with integer floor arithmetic only.

All comparisons use exact integer cross-multiplication, never floats.  The
O(p*q) enumeration (of any d-signature's window) is the permanent
ground-truth oracle of the test suite; the closed form is the fast path.
"""

from math import gcd

from .core import TorusKnotParams
from .errors import DomainError, InternalCheckError


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
