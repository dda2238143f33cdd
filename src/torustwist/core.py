"""Torus knot parameters, normalization, and full-strand twist arithmetic.

Conventions: T(p,q) requires gcd(|p|,|q|) = 1; T(p,q) = T(q,p) and T(p,-q)
is the mirror image of T(p,q).  Every signature-style invariant downstream
changes sign under mirroring, normalized so that sigma(T(2,3)) = -2.

An (n,w)-twist is -1/n surgery on an unknotted circle bounding a disk that
the knot meets w times in absolute linking number.  When the disk encircles
all p strands of T(p,q) (w = p), the twist acts on parameters as
q -> q + n*p; that full-strand case is the only one whose resulting knot
type is computed here.
"""

from dataclasses import dataclass
from math import gcd

from .errors import InvalidKnotError, UnsupportedTwistError


@dataclass(frozen=True, order=True)
class TorusKnotParams:
    p: int
    q: int

    def __post_init__(self):
        if self.p == 0 and self.q == 0:
            raise InvalidKnotError("T(0,0) is not a knot")
        if gcd(abs(self.p), abs(self.q)) != 1:
            raise InvalidKnotError(
                f"T({self.p},{self.q}): parameters are not coprime")

    @property
    def is_normalized(self) -> bool:
        return 0 < self.p <= self.q

    @property
    def is_trivial(self) -> bool:
        return min(abs(self.p), abs(self.q)) <= 1

    def __str__(self):
        return f"T({self.p},{self.q})"


@dataclass(frozen=True)
class TwistMove:
    """One (n, omega)-twist: -1/n surgery on a disk met omega times."""

    n: int
    omega: int

    def __post_init__(self):
        if self.n == 0:
            raise UnsupportedTwistError("a 0-twist is the identity")
        if self.omega < 0:
            raise UnsupportedTwistError("omega is an absolute linking number")

    @property
    def is_supported(self) -> bool:
        # -1/n surgery gives a summand, whose class has self-intersection
        # -n*omega^2, only for n = 1 (-CP^2), n = -1 (+CP^2) and even n
        # (S^2 x S^2, class (omega, -(n/2)omega))
        return abs(self.n) == 1 or self.n % 2 == 0

    def __str__(self):
        return f"(n={self.n}, w={self.omega})"


def normalize(k: TorusKnotParams):
    """Return the normal form (p', q') with 0 < p' <= q' and a mirror flag.

    Uses T(p,q) = T(q,p) and T(p,-q) = mirror of T(p,q).  Trivial knots are
    amphichiral, so they always carry mirror=False; the degenerate meridian
    parameters (0,+-1) and (+-1,0) normalize to T(1,1).  Idempotent.
    """
    p, q = k.p, k.q
    if p == 0 or q == 0:
        return TorusKnotParams(1, 1), False
    mirror = (p > 0) != (q > 0)
    a, b = abs(p), abs(q)
    if a > b:
        a, b = b, a
    if a <= 1:
        mirror = False
    return TorusKnotParams(a, b), mirror


def is_exceptional(k: TorusKnotParams) -> bool:
    """True iff q = +-1 (mod p); such knots arise from the unknot by a
    single full-strand twist.  Expects a normalized knot."""
    if not k.is_normalized:
        raise InvalidKnotError(f"{k} is not normalized")
    r = k.q % k.p
    return r == 1 % k.p or r == (k.p - 1) % k.p


def apply_full_strand_twist(k: TorusKnotParams, move: TwistMove) -> TorusKnotParams:
    """Apply an (n, p)-twist along a disk encircling all p strands:
    T(p,q) -> T(p, q + n*p).  Rejects moves with omega != |p|."""
    if move.omega != abs(k.p):
        raise UnsupportedTwistError(
            f"twist {move} on {k}: disk must encircle all {abs(k.p)} strands")
    return TorusKnotParams(k.p, k.q + move.n * k.p)
