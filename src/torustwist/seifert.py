"""Seifert matrices for closures of positive braid words.

The closure of a positive braid word on k strands bounds the fiber surface
made of k disks joined by one half-twisted band per letter.  When the
closure is a knot, first homology of that surface is free of rank
(#letters - k + 1), generated by one loop for each pair of consecutive
occurrences of the same generator.  In that basis the Seifert linking form
is integral, with entries fixed by the interleaving pattern of band pairs:

    V[e, e]  = -1
    V[e, e'] = +1  for e' the next pair of the same generator
    V[e, f]  = +1  if e = (a, b) on generator g, f = (c, d) on g+1
                   interleave as a < c < b < d
    V[f, e]  = -1  if they interleave as c < a < d < b

All other entries vanish (generators two or more apart, nested pairs,
disjoint pairs).  The sign conventions are pinned by requiring the closure
of s1^3 (the positive trefoil, T(2,3)) to yield exactly [[-1, 1], [0, -1]],
so that positive torus knots get negative signatures; the test suite
cross-checks signatures against lattice counts and Alexander determinants.

When reading the word backwards with each s_g replaced by s_{k-g} gives the
word back, as it does for the torus braid (s1 ... s_{k-1})^q, the same
substitution on positions, pos -> L-1-pos for a word of length L, maps the
basis to itself: (g, a, b) -> (k-g, L-1-b, L-1-a).  It reverses "next
pair" and swaps the two interleaving patterns together with the roles of
g and g+1, so each rule above holds with e and f exchanged: the induced
permutation P satisfies P V P^T = V^T.
"""

from dataclasses import dataclass

import numpy as np

from .core import TorusKnotParams
from .errors import DomainError, InternalCheckError, NotAKnotError


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple

    def __post_init__(self):
        if self.strands < 2:
            raise DomainError("a braid needs at least 2 strands")
        for x in self.letters:
            if not 1 <= x <= self.strands - 1:
                raise DomainError(f"letter {x} out of range 1..{self.strands - 1}")


def torus_braid(p: int, q: int) -> BraidWord:
    """The braid (s1 s2 ... s_{p-1})^q on p strands, whose closure is T(p,q)."""
    if not 2 <= p < q:
        raise DomainError(f"need 2 <= p < q, got ({p},{q})")
    TorusKnotParams(p, q)  # coprimality check
    return BraidWord(p, tuple((m % (p - 1)) + 1 for m in range((p - 1) * q)))


def closure_components(b: BraidWord) -> int:
    """Number of components of the braid closure (cycles of the underlying
    permutation)."""
    perm = list(range(b.strands))
    for g in b.letters:
        perm[g - 1], perm[g] = perm[g], perm[g - 1]
    seen = [False] * b.strands
    cycles = 0
    for s in range(b.strands):
        if not seen[s]:
            cycles += 1
            t = s
            while not seen[t]:
                seen[t] = True
                t = perm[t]
    return cycles


@dataclass(frozen=True, eq=False)
class SeifertForm:
    matrix: np.ndarray  # integer Seifert matrix V
    # the reversal involution as an index array, P e_i = e_involution[i],
    # with P V P^T = V^T; None when the word is not its own flipped reverse
    involution: np.ndarray = None

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def symmetrized(self) -> np.ndarray:
        return self.matrix + self.matrix.T


def seifert_matrix(b: BraidWord) -> SeifertForm:
    """Seifert matrix of the fiber surface of a positive braid knot closure."""
    if closure_components(b) != 1:
        raise NotAKnotError(
            f"closure has {closure_components(b)} components; need a knot")
    occ = {}
    for pos, g in enumerate(b.letters):
        occ.setdefault(g, []).append(pos)
    basis = []  # (generator, first position, second position)
    span = {}  # generator -> its slice of basis
    for g in sorted(occ):
        ps = occ[g]
        first = len(basis)
        basis.extend((g, ps[t], ps[t + 1]) for t in range(len(ps) - 1))
        span[g] = range(first, len(basis))
    n = len(basis)
    if n != len(b.letters) - b.strands + 1:
        raise InternalCheckError(
            f"fiber surface basis has {n} elements for {b}")
    start = {(g, a): idx for idx, (g, a, _) in enumerate(basis)}
    V = np.zeros((n, n), dtype=np.int64)
    for e, (g, a, bb) in enumerate(basis):
        V[e, e] = -1
        nxt = start.get((g, bb))
        if nxt is not None:
            V[e, nxt] = 1
        # only pairs on generator g+1 can interleave with e
        for f in span.get(g + 1, ()):
            _, c, d = basis[f]
            if a < c < bb < d:
                V[e, f] = 1
            elif c < a < d < bb:
                V[f, e] = -1
    involution = None
    last = len(b.letters) - 1
    if tuple(b.strands - g for g in reversed(b.letters)) == b.letters:
        involution = np.array([start[b.strands - g, last - bb]
                               for g, _, bb in basis])
    return SeifertForm(V, involution)


def genus_from_form(f: SeifertForm) -> int:
    """Genus of the fiber surface, half the first Betti number."""
    if f.dimension % 2 != 0:
        raise NotAKnotError("odd-rank form: the closure was not a knot")
    return f.dimension // 2


def format_matrix(f: SeifertForm) -> str:
    """Plain-text integer grid of V, for debugging."""
    w = max(len(str(int(x))) for x in f.matrix.flat) if f.dimension else 1
    return "\n".join(" ".join(f"{int(x):>{w}}" for x in row) for row in f.matrix)
