import math

import pytest
from hypothesis import given, strategies as st

from torustwist import (InvalidKnotError, TorusKnotParams, TwistMove,
                        UnsupportedTwistError, apply_full_strand_twist,
                        is_exceptional, normalize)


def K(p, q):
    return TorusKnotParams(p, q)


def test_rejects_non_coprime():
    with pytest.raises(InvalidKnotError):
        K(4, 6)
    with pytest.raises(InvalidKnotError):
        K(0, 0)
    with pytest.raises(InvalidKnotError):
        K(0, 3)


@pytest.mark.parametrize("raw, normal, mirror", [
    ((5, -2), (2, 5), True),
    ((7, 3), (3, 7), False),
    ((1, 9), (1, 9), False),
    ((-3, -5), (3, 5), False),
    ((-2, 7), (2, 7), True),
    ((0, 1), (1, 1), False),
])
def test_normalize(raw, normal, mirror):
    nk, m = normalize(K(*raw))
    assert (nk.p, nk.q) == normal
    assert m == mirror


def test_normalize_trivial_flag():
    nk, _ = normalize(K(1, 9))
    assert nk.is_trivial
    assert not normalize(K(5, 7))[0].is_trivial


coprime_pairs = st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(
    lambda t: t != (0, 0) and math.gcd(abs(t[0]), abs(t[1])) == 1)


@given(coprime_pairs)
def test_normalize_idempotent(pair):
    nk, _ = normalize(K(*pair))
    assert nk.is_normalized
    again, m2 = normalize(nk)
    assert again == nk and m2 is False


@pytest.mark.parametrize("raw", [(1, 1), (1, 9), (5, 7), (7, 7 ** 5 + 1)])
def test_normalize_returns_a_normal_knot_itself(raw):
    k = K(*raw)
    assert normalize(k) == (k, False) and normalize(k)[0] is k


@pytest.mark.parametrize("p, q, expect", [
    (4, 7, True),
    (5, 7, False),
    (5, 8, False),
    (5, 9, True),
    (6, 11, True),
])
def test_exceptional(p, q, expect):
    assert is_exceptional(K(p, q)) is expect


@pytest.mark.parametrize("p", [2, 3])
def test_two_and_three_strand_always_exceptional(p):
    for q in range(p + 1, 40):
        if math.gcd(p, q) == 1:
            assert is_exceptional(K(p, q))


def test_exceptional_requires_normalized():
    with pytest.raises(InvalidKnotError):
        is_exceptional(K(5, -2))


def test_full_strand_twist_examples():
    assert apply_full_strand_twist(K(5, 8), TwistMove(-1, 5)) == K(5, 3)
    assert apply_full_strand_twist(K(5, 3), TwistMove(-1, 5)) == K(5, -2)
    for p in (2, 3, 5, 7):
        for k in (-3, -1, 1, 2):
            assert apply_full_strand_twist(K(p, 1), TwistMove(k, p)) == K(p, k * p + 1)


def test_full_strand_twist_rejects_partial_disk():
    with pytest.raises(UnsupportedTwistError):
        apply_full_strand_twist(K(5, 8), TwistMove(-1, 4))


@given(st.integers(2, 30), st.integers(-8, 8).filter(bool))
def test_full_strand_twist_inverts(p, n):
    import math
    q = next(q for q in range(p + 1, p + 40) if math.gcd(p, q) == 1)
    k = K(p, q)
    there = apply_full_strand_twist(k, TwistMove(n, p))
    back = apply_full_strand_twist(there, TwistMove(-n, p))
    assert back == k


def test_move_validation():
    with pytest.raises(UnsupportedTwistError):
        TwistMove(0, 5)
    with pytest.raises(UnsupportedTwistError):
        TwistMove(1, -1)
    assert not TwistMove(3, 5).is_supported
    assert TwistMove(-1, 5).is_supported
    assert TwistMove(4, 5).is_supported
