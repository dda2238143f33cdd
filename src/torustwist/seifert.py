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
    V[e, f]  = -1  if they interleave as c < a < d < b

All other entries vanish (generators two or more apart, nested pairs,
disjoint pairs).  So a loop e = (a, b) on g has at most two partners on
g+1, both read off the occurrences x of g+1 inside (a, b): the last such x
starts the loop f = (x, next) with a < x < b < next, and V[e, f] = +1 if x
has a successor; the first such x ends the loop f = (prev, x) with
prev < a < x < b, and V[e, f] = -1 if x has a predecessor.  Every other
loop on g+1 is nested in e, encloses it or misses it.  V has at most 4n
nonzeros, found by bisecting the positions of g+1, and is stored by them.
The sign conventions are pinned by requiring the closure of s1^3 (the
positive trefoil, T(2,3)) to yield exactly [[-1, 1], [0, -1]], so that
positive torus knots get negative signatures; the test suite cross-checks
signatures against lattice counts and Alexander determinants, and, on
braids that are not torus braids, |det(V^T - tV)| against the reduced
Burau representation.

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
    """The integer Seifert matrix V by its nonzeros, V[rows[k], cols[k]] =
    vals[k], sorted row-major with each position once."""

    dimension: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    # the reversal involution as an index array, P e_i = e_involution[i],
    # with P V P^T = V^T; None when the word is not its own flipped reverse
    involution: np.ndarray = None

    @property
    def matrix(self) -> np.ndarray:
        """V as a dense int64 matrix."""
        v = np.zeros((self.dimension, self.dimension), dtype=np.int64)
        v[self.rows, self.cols] = self.vals
        return v

    def symmetrized(self) -> np.ndarray:
        v = self.matrix
        return v + v.T


def seifert_matrix(b: BraidWord) -> SeifertForm:
    """Seifert matrix of the fiber surface of a positive braid knot closure,
    in O(n log n): each loop meets at most two loops of the next generator
    (see the module docstring)."""
    components = closure_components(b)
    if components != 1:
        raise NotAKnotError(
            f"closure has {components} components; need a knot")
    k, length = b.strands, len(b.letters)
    letters = np.array(b.letters, dtype=np.int64)
    # every occurrence by generator, then position, under the key
    # g * length + position; an occurrence starts a loop when the next one
    # is on the same generator, and loop[i] numbers the loop started at i
    pos = np.argsort(letters, kind="stable")
    gen = letters[pos]
    key = gen * length + pos
    starts = np.append(gen[1:] == gen[:-1], False)   # the last starts none
    loop = np.cumsum(starts) - starts
    first = np.flatnonzero(starts)
    n = len(first)
    if n != length - k + 1:
        raise InternalCheckError(
            f"fiber surface basis has {n} elements for {b}")
    e, g, a, bb = np.arange(n), gen[first], pos[first], pos[first + 1]
    # the next loop on g starts where e ends
    nxt = starts[first + 1]
    # the occurrences of g+1 inside e = (a, b) are key[lo:hi]
    lo = np.searchsorted(key, (g + 1) * length + a, side="right")
    hi = np.searchsorted(key, (g + 1) * length + bb, side="left")
    # the loop from the last of them interleaves as a < c < b < d, and
    # the loop into the first as c < a < d < b, when they exist
    last = (hi > lo) & starts[hi - 1]
    head = (hi > lo) & starts[lo - 1]
    rows = np.concatenate([e, e[nxt], e[last], e[head]])
    cols = np.concatenate([e, e[nxt] + 1, loop[hi[last] - 1],
                           loop[lo[head] - 1]])
    vals = np.repeat([-1, 1, 1, -1], [n, np.count_nonzero(nxt),
                                      np.count_nonzero(last),
                                      np.count_nonzero(head)])
    order = np.argsort(rows * n + cols)
    involution = None
    if tuple(k - x for x in reversed(b.letters)) == b.letters:
        # (g, a, b) -> (k-g, L-1-b, L-1-a), by the start of the image loop
        involution = loop[np.searchsorted(
            key, (k - g) * length + length - 1 - bb)]
    return SeifertForm(n, rows[order], cols[order], vals[order], involution)


def genus_from_form(f: SeifertForm) -> int:
    """Genus of the fiber surface, half the first Betti number."""
    if f.dimension % 2 != 0:
        raise NotAKnotError("odd-rank form: the closure was not a knot")
    return f.dimension // 2


def format_matrix(f: SeifertForm) -> str:
    """Plain-text integer grid of V, for debugging."""
    w = max(len(str(int(x))) for x in f.matrix.flat) if f.dimension else 1
    return "\n".join(" ".join(f"{int(x):>{w}}" for x in row) for row in f.matrix)
