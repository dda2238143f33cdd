import math
from fractions import Fraction

import numpy as np
import pytest

from torustwist import (BraidWord, DomainError, NotAKnotError, TorusKnotParams,
                        build_form, genus_from_form, inertia, seifert_matrix,
                        sigma_oracle, torus_braid, tristram_sigma)
from torustwist import tristram
from torustwist.seifert import closure_components, format_matrix


def coprime_range(pmax, qmax):
    return [(p, q) for p in range(2, pmax + 1) for q in range(p + 1, qmax + 1)
            if math.gcd(p, q) == 1]


def test_torus_braid_words():
    b = torus_braid(2, 3)
    assert b.strands == 2 and b.letters == (1, 1, 1)
    assert len(torus_braid(3, 4).letters) == 8
    assert len(torus_braid(5, 8).letters) == 32
    with pytest.raises(Exception):
        torus_braid(4, 6)


def test_trefoil_matrix_is_pinned():
    f = seifert_matrix(torus_braid(2, 3))
    assert f.matrix.tolist() == [[-1, 1], [0, -1]]


def test_dimensions():
    for p, q in coprime_range(7, 9):
        f = seifert_matrix(torus_braid(p, q))
        assert f.dimension == (p - 1) * (q - 1)
        assert round(abs(np.linalg.det(f.symmetrized()))) != 0


def test_multicomponent_closure_rejected():
    # closure of s1^2 on 2 strands is a 2-component link
    b = BraidWord(2, (1, 1))
    assert closure_components(b) == 2
    with pytest.raises(NotAKnotError):
        seifert_matrix(b)


@pytest.mark.parametrize("p, q, genus", [
    (2, 3, 1),
    (5, 8, 14),
    (5, 7, 12),
])
def test_genus(p, q, genus):
    assert genus_from_form(seifert_matrix(torus_braid(p, q))) == genus


def test_signature_matches_lattice_count():
    for p, q in coprime_range(8, 11):
        k = TorusKnotParams(p, q)
        assert tristram_sigma(k, 2) == sigma_oracle(k)


def _det_exact(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                for cc in range(c, n):
                    m[r][cc] -= f * m[c][cc]
    assert det.denominator == 1
    return int(det)


def test_alexander_determinant_pin():
    # det(V - t V^T) must agree with (t^{pq}-1)(t-1)/((t^p-1)(t^q-1))
    # up to sign at integer points; this pins the entry conventions.
    for p, q in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (3, 7)]:
        V = seifert_matrix(torus_braid(p, q)).matrix
        for t in (2, 3):
            got = _det_exact((V - t * V.T).tolist())
            num = (t ** (p * q) - 1) * (t - 1)
            den = (t ** p - 1) * (t ** q - 1)
            assert num % den == 0
            assert abs(got) == num // den, (p, q, t)


def test_format_matrix_grid():
    text = format_matrix(seifert_matrix(torus_braid(2, 3)))
    assert text.splitlines() == ["-1  1", " 0 -1"]


def _seifert_all_pairs(b):
    """The Seifert matrix by visiting every pair of basis loops (reference
    for the per-generator loop of seifert_matrix)."""
    occ = {}
    for pos, g in enumerate(b.letters):
        occ.setdefault(g, []).append(pos)
    basis = [(g, ps[t], ps[t + 1]) for g in sorted(occ)
             for ps in [occ[g]] for t in range(len(ps) - 1)]
    start = {(g, a): idx for idx, (g, a, _) in enumerate(basis)}
    n = len(basis)
    V = np.zeros((n, n), dtype=np.int64)
    for e, (g, a, bb) in enumerate(basis):
        V[e, e] = -1
        nxt = start.get((g, bb))
        if nxt is not None:
            V[e, nxt] = 1
        for f, (g2, c, d) in enumerate(basis):
            if g2 != g + 1:
                continue
            if a < c < bb < d:
                V[e, f] = 1
            elif c < a < d < bb:
                V[e, f] = -1
    return V


def _most_spanned(b):
    """The most occurrences of g+1 strictly inside one loop on g."""
    occ = {}
    for pos, g in enumerate(b.letters):
        occ.setdefault(g, []).append(pos)
    return max((sum(a < x < bb for x in occ.get(g + 1, ()))
                for g, ps in occ.items() for a, bb in zip(ps, ps[1:])),
               default=0)


def test_seifert_matrix_matches_the_all_pairs_loop():
    braids = [torus_braid(p, q) for p, q in coprime_range(15, 15)]
    # 10_139 and 10_152: positive 3-braid knots that are not torus knots
    braids += [BraidWord(3, (1, 1, 1, 1, 2, 1, 1, 1, 2, 2)),
               BraidWord(3, (1, 1, 1, 2, 2, 1, 1, 2, 2, 2))]
    # a loop on g that spans two or more occurrences of g+1, so that loops
    # on g+1 nest inside it and only the outermost two are its partners
    nested = [BraidWord(3, (1, 2, 2, 2, 1, 2)),
              BraidWord(3, (1, 2, 2, 2, 2, 1, 2, 1)),
              BraidWord(4, (1, 2, 3, 3, 3, 2, 2, 1, 2, 3, 1)),
              BraidWord(4, (1, 1, 2, 2, 2, 1, 3, 3, 3, 2, 3))]
    for b in nested:
        assert closure_components(b) == 1, b
        assert _most_spanned(b) >= 3, b
    braids += nested
    rng = np.random.default_rng(7)
    random_words = 0
    while random_words < 40:
        strands = int(rng.integers(3, 7))
        size = int(rng.integers(8, 40))
        b = BraidWord(strands, tuple(int(x) for x in
                                     rng.integers(1, strands, size=size)))
        if closure_components(b) == 1:
            braids.append(b)
            random_words += 1
    for b in braids:
        assert seifert_matrix(b).matrix.tolist() == \
            _seifert_all_pairs(b).tolist(), b


def test_torus_braids_carry_the_reversal_involution():
    # (g, a, b) -> (p - g, L-1-b, L-1-a) permutes the basis, and
    # P V P^T = V^T, that is V[P i, P j] = V[j, i]
    for p, q in coprime_range(40, 40):
        f = seifert_matrix(torus_braid(p, q))
        inv, n = f.involution, f.dimension
        assert sorted(inv.tolist()) == list(range(n)), (p, q)
        assert np.array_equal(inv[inv], np.arange(n)), (p, q)
        assert np.array_equal(f.matrix[inv][:, inv], f.matrix.T), (p, q)


def test_a_braid_without_the_symmetry_has_no_involution():
    # s1^3 s2 on 3 strands closes to the trefoil; read backwards with
    # s_g -> s_{3-g} it is s2 s1^3, another word
    f = seifert_matrix(BraidWord(3, (1, 1, 1, 2)))
    assert f.involution is None
    h = build_form(f, 3)
    assert h.involution is None
    # its d = 3 form is certified as the real reduced doubled form
    (block,), copies = tristram._enclosures(h)
    float_fn, _, n, _ = block
    assert float_fn().mid.dtype == np.float64 and copies == 2
    assert n == 2 * f.dimension
    # sigma_3 of the trefoil, with the nullity from exact elimination
    assert inertia(h).signature == -2


def _random_knot_words(seed, count, strands=(3, 7), letters=(8, 40)):
    """`count` seeded random positive braid words whose closure is a knot."""
    rng = np.random.default_rng(seed)
    words = []
    while len(words) < count:
        k = int(rng.integers(*strands))
        size = int(rng.integers(*letters))
        b = BraidWord(k, tuple(int(x) for x in rng.integers(1, k, size=size)))
        if closure_components(b) == 1:
            words.append(b)
    return words


def _burau_alexander(b, t):
    """Delta(t) = (1 - t)/(1 - t^k) det(I - psi(b)) at a complex t, with psi
    the reduced Burau representation of the k-strand braid b (Birman,
    "Braids, links and mapping class groups", 1974): the Alexander
    polynomial of b's closure, up to a unit +-t^m."""
    k = b.strands
    psi = np.eye(k - 1, dtype=complex)
    for g in b.letters:
        # s_g acts on the rows g-2, g-1, g of the k-1 reduced coordinates
        m = np.eye(k - 1, dtype=complex)
        m[g - 1, g - 1] = -t
        if g > 1:
            m[g - 2, g - 1] = t
        if g < k - 1:
            m[g, g - 1] = 1
        psi = psi @ m
    return (1 - t) / (1 - t ** k) * np.linalg.det(np.eye(k - 1) - psi)


def test_seifert_matrix_gives_the_burau_alexander_polynomial():
    # |det(V^T - t V)| = |Delta(t)| on the unit circle, where the unit +-t^m
    # has modulus 1, on random positive braid knots that are mostly not
    # torus knots; the first word is the smallest one an earlier rule for
    # the c < a < d < b interleaving got wrong
    words = [BraidWord(3, (1, 1, 2, 1, 1, 1, 2, 1))]
    words += _random_knot_words(seed=2024, count=300)
    points = [np.exp(1j * x) for x in (0.9, 1.7, 2.3)]
    for b in words:
        v = seifert_matrix(b).matrix
        for t in points:
            got = abs(np.linalg.det(v.T - t * v))
            want = abs(_burau_alexander(b, t))
            assert math.isclose(got, want, rel_tol=1e-7, abs_tol=1e-7), \
                (b, t, got, want)


def test_tristram_signatures_are_invariant_under_rotating_the_word():
    # a cyclic rotation of the word is a conjugate braid with the same
    # closure, though its Seifert basis and matrix differ
    rng = np.random.default_rng(5)
    for b in _random_knot_words(seed=31, count=40, strands=(3, 6),
                                letters=(8, 21)):
        size = len(b.letters)
        rotations = [BraidWord(b.strands, b.letters[r:] + b.letters[:r])
                     for r in (0, *rng.integers(1, size, size=2))]
        for d in (2, 3, 5):
            counts = {inertia(build_form(seifert_matrix(w), d))
                      for w in rotations}
            assert len(counts) == 1, (b, d, counts)
