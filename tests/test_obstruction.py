import dataclasses
import json
import math
import pickle
import random

import pytest

from torustwist import (DomainError, TorusKnotParams, classify,
                        condition_iv_check, obstruction, survivors_p_plus_2,
                        survivors_p_plus_4, thom_bound_check)
from torustwist.errors import InternalCheckError
from torustwist.fourmanifold import KikuchiResult
from torustwist.obstruction import (NOT_IN_T, REASON_GENUS, REASON_KIKUCHI,
                                    REASON_PARITY, TRIVIAL_OR_EXCEPTIONAL,
                                    UNDECIDED, Elimination, Eliminations,
                                    certificate_to_dict, certificate_to_json,
                                    certificate_to_text, genus_cutoff)
from torustwist.tristram import prime_divisors


def K(p, q):
    return TorusKnotParams(p, q)


@pytest.mark.parametrize("p, q, w, expect", [
    (5, 7, 6, True),
    (5, 7, 7, False),
    (5, 8, 8, False),
])
def test_thom_bound(p, q, w, expect):
    assert thom_bound_check(p, q, w) is expect


def test_condition_iv_examples():
    assert condition_iv_check(5, 8, 6, 2) is False   # 18 not in {20, 22}
    assert condition_iv_check(5, 7, 6, 2) is True    # 18 = 2 - (-16)
    # even candidates for T(9,13) all fail at d=2: w^2 would be 112 or 116
    for w in range(2, 13, 2):
        assert condition_iv_check(9, 13, w, 2) is False
    with pytest.raises(DomainError):
        condition_iv_check(5, 7, 5, 2)


def test_condition_iv_accepts_every_exceptional_realization():
    # T(m, m+1) arises from the unknot by a twist with w = m or w = m + 1,
    # so condition (iv) must pass at every prime d | w.  This pins the sign
    # convention {-sigma_d, 2 - sigma_d}: the mirrored set
    # {-sigma_d, -2 - sigma_d} rejects about half of these cases.
    rejected = [(m, w, d) for m in range(2, 80) for w in (m, m + 1)
                for d in prime_divisors(w)
                if not condition_iv_check(m, m + 1, w, d)]
    assert rejected == []


@pytest.mark.parametrize("p, q, verdict", [
    (4, 7, TRIVIAL_OR_EXCEPTIONAL),
    (1, 9, TRIVIAL_OR_EXCEPTIONAL),
    (5, 8, NOT_IN_T),
    (9, 13, NOT_IN_T),
    (5, 7, UNDECIDED),
])
def test_classify_verdicts(p, q, verdict):
    assert classify(K(p, q)).verdict == verdict


def test_classify_t57_certificate():
    cert = classify(K(5, 7))
    assert [(s.n, s.omega) for s in cert.survivors] == [(1, 6)]
    reasons = {e.omega: e.reason for e in cert.eliminations}
    assert reasons[2] == "condition-iii"
    assert reasons[4] == "condition-iii"
    assert reasons[3].startswith("condition-iv")
    assert reasons[5].startswith("condition-iv")
    assert cert.sigma_inputs[2] == -16 and cert.sigma_inputs[3] == -16


def test_certificate_partitions_candidates():
    # (7, 16): (p-1)(q-1) = 90 = (w-1)(w-2) at w = 11, the genus cutoff
    for p, q in [(5, 7), (5, 8), (9, 13), (7, 11), (11, 15), (7, 16)]:
        cert = classify(K(p, q))
        seen = sorted([e.omega for e in cert.eliminations]
                      + [s.omega for s in cert.survivors])
        assert seen == list(range(2, q))
        genus = [e.omega for e in cert.eliminations if e.reason == REASON_GENUS]
        assert genus == list(range(genus_cutoff(p, q) + 1, q))
        assert cert.eliminations.tail == range(genus_cutoff(p, q) + 1, q)


def _shift_tail(by_start, by_stop):
    def mutate(explicit, tail):
        return explicit, range(tail.start + by_start, tail.stop + by_stop)
    return mutate


@pytest.mark.parametrize("mutate", [
    _shift_tail(1, 1), _shift_tail(-1, -1), _shift_tail(1, 0),
    _shift_tail(-1, 0),
    lambda explicit, tail: (explicit + explicit[-1:], tail),
], ids=["tail+1", "tail-1", "tail-start+1", "tail-start-1",
        "duplicated-explicit"])
def test_classify_rejects_a_broken_partition(monkeypatch, mutate):
    class Broken(Eliminations):
        def __init__(self, explicit, tail):
            super().__init__(*mutate(explicit, tail))

    assert classify(K(7, 3001)).verdict == NOT_IN_T
    monkeypatch.setattr(obstruction, "Eliminations", Broken)
    with pytest.raises(InternalCheckError):
        classify(K(7, 3001))


def _eliminations_certs():
    """Seeded certificates: mirrors, prime_cap, kikuchi and large-q cases."""
    rng = random.Random(606)
    pairs = [(1, 9), (4, 7), (5, 7), (-5, 8), (7, -5), (5, 8), (11, 15),
             (7, 16), (15, 19)]
    while len(pairs) < 20:
        p = rng.randint(5, 13)
        q = rng.randint(3000, 30000) * rng.choice((1, -1))
        if math.gcd(p, q) == 1:
            pairs.append((p, q))
    certs = [classify(K(p, q)) for p, q in pairs]
    certs += [classify(K(13, 97), prime_cap=3), classify(K(7, 3001), prime_cap=2)]
    return certs


def test_eliminations_behave_as_the_materialized_tuple():
    rng = random.Random(7)
    certs = _eliminations_certs()
    assert any(e.reason == REASON_KIKUCHI for c in certs for e in c.eliminations)
    for cert in certs:
        e = cert.eliminations
        ref = e.explicit + tuple(Elimination(w, REASON_GENUS) for w in e.tail)
        n, k = len(ref), len(e.explicit)
        assert isinstance(e, Eliminations)
        assert tuple(e) == ref and len(e) == n
        for i in {0, k - 1, k, n - 1, *rng.sample(range(n), min(n, 20))}:
            if 0 <= i < n:
                assert e[i] == ref[i] and e[i - n] == ref[i - n], i
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                e[i]
        for sl in (slice(None), slice(3, -3), slice(None, None, -1),
                   slice(k - 2, k + 2), slice(-5, None), slice(1, n, 7),
                   slice(n, 0, -3), slice(n + 5, None)):
            assert e[sl] == ref[sl], sl
        assert e == ref and ref == e and not e != ref
        assert e == Eliminations(ref) and Eliminations(ref) == e
        if n:
            assert e != ref[:-1] and ref[:-1] != e
        assert e != list(ref)
        assert hash(e) == hash(ref) and repr(e) == repr(ref)
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is Eliminations and back.tail == e.tail
        assert back == ref
        flat = dataclasses.replace(cert, eliminations=ref)
        assert flat.eliminations.explicit == ref and not flat.eliminations.tail
        assert repr(flat) == repr(cert) and flat == cert


def test_genus_cutoff_matches_a_linear_scan():
    exact = 0
    for p in range(5, 120):
        for q in range(p + 1, 121):
            w = 2
            while thom_bound_check(p, q, w + 1):
                w += 1
            assert genus_cutoff(p, q) == w, (p, q)
            exact += (w - 1) * (w - 2) == (p - 1) * (q - 1)
    assert exact == 288   # the bound holds with equality at the cutoff


def _json_oracle(cert, extra=None):
    return json.dumps({**certificate_to_dict(cert), **(extra or {})},
                      indent=2) + "\n"


def _renderer_certs():
    certs = [classify(K(p, q)) for p, q in
             [(1, 9), (4, 7), (-5, 8), (7, -5), (5, 8), (11, 15), (7, 20011)]]
    certs.append(classify(K(13, 97), prime_cap=3))
    assert not certs[0].eliminations and not certs[1].eliminations
    assert certs[2].mirror and certs[3].mirror
    assert any(e.reason == REASON_KIKUCHI for e in certs[5].eliminations)
    assert any(n.startswith("omega=") for n in certs[-1].notes)
    # characteristic-parity and reasons that need escaping, by hand
    certs.append(dataclasses.replace(certs[5], eliminations=(
        Elimination(3, REASON_PARITY), Elimination(5, 'quote " and \u00e9'),
        Elimination(7, REASON_PARITY))))
    # a genus-bound item in the explicit part, next to the tail; a tail
    # with no explicit part
    e = certs[6].eliminations
    certs.append(dataclasses.replace(certs[6], eliminations=Eliminations(
        e.explicit + e[len(e.explicit):len(e.explicit) + 1],
        e.tail[1:])))
    certs.append(dataclasses.replace(certs[4], eliminations=Eliminations(
        (), range(2, 9))))
    return certs


def test_certificate_json_matches_the_dict_oracle(assert_same_text):
    certs = _renderer_certs()
    for cert in certs:
        assert_same_text(certificate_to_json(cert), _json_oracle(cert))
    extra = {"sequence_ledger": {"sigma_m": -1, "xi": [1, 0, -1]}}
    assert_same_text(certificate_to_json(certs[4], extra),
                     _json_oracle(certs[4], extra))


def _text_oracle(cert):
    """certificate_to_text with one line per elimination, written here."""
    text = certificate_to_text(dataclasses.replace(cert, eliminations=()))
    if cert.verdict == TRIVIAL_OR_EXCEPTIONAL:
        return text
    lines = text.split("\n")
    at = lines.index("eliminated:") + 1
    lines[at:at] = [f"  omega={e.omega}: {e.reason}" for e in cert.eliminations]
    return "\n".join(lines)


def test_certificate_text_matches_a_per_item_rendering(assert_same_text):
    certs = _renderer_certs()
    assert any(c.eliminations.tail for c in certs)
    for cert in certs:
        assert_same_text(certificate_to_text(cert), _text_oracle(cert))


def test_an_even_template_root_is_an_internal_check_error(monkeypatch):
    # every built-in template forces an odd omega^2, so classify treats an
    # even one as a broken invariant rather than as an elimination reason
    assert any(t.applicable for t in classify(K(5, 8)).templates)
    monkeypatch.setattr(obstruction, "kikuchi_eliminate", lambda ledger:
                        KikuchiResult(True, omega_squared=36, admissible=(6,)))
    with pytest.raises(InternalCheckError):
        classify(K(5, 8))


def test_classify_deterministic():
    a = certificate_to_dict(classify(K(9, 13)))
    b = certificate_to_dict(classify(K(9, 13)))
    assert a == b


def test_templates_only_eliminate():
    # the 4-manifold stage may only shrink the survivor set
    for p, q in [(5, 7), (7, 9), (9, 13), (5, 8)]:
        with_t = {s.omega for s in classify(K(p, q), use_templates=True).survivors}
        without = {s.omega for s in classify(K(p, q), use_templates=False).survivors}
        assert with_t <= without


def test_survivors_p_plus_2():
    assert [(c.n, c.omega) for c in survivors_p_plus_2(5)] == [(1, 6)]
    assert [(c.n, c.omega) for c in survivors_p_plus_2(7)] == [(1, 8)]
    assert [(c.n, c.omega) for c in survivors_p_plus_2(9)] == [(1, 10)]


def test_survivors_p_plus_4_p15():
    assert [(c.n, c.omega) for c in survivors_p_plus_4(15)] == [(1, 17)]


def test_survivors_p_plus_4_small_cases_fully_obstructed():
    # at p=7 and p=13 the remaining candidate w=p+2 is divisible by 3 and
    # fails the divisibility constraint there (sigma_3 = -32 and -96), so
    # the whole knot is obstructed
    assert survivors_p_plus_4(7) == []
    assert classify(K(7, 11)).verdict == NOT_IN_T
    assert survivors_p_plus_4(13) == []


def test_mirror_input_notes():
    cert = classify(K(7, -5))
    assert cert.mirror
    assert cert.normalized == K(5, 7)
    assert any("mirror" in n for n in cert.notes)


def test_certificate_text_stable():
    text1 = certificate_to_text(classify(K(5, 7)))
    text2 = certificate_to_text(classify(K(5, 7)))
    assert text1 == text2
    assert "verdict: Undecided" in text1
    assert "(n=1, omega=6)" in text1


def test_even_candidates_all_fail_in_gap_families():
    # for q = p + r with p = 2nr +- 1 under the family bound, the two values
    # an even candidate would need for w^2 are never even squares, so every
    # even w is eliminated before the 4-manifold stage
    for n in (1, 2):
        for r in (4, 6, 8):
            p = 2 * n * r + 1
            cert = classify(K(p, p + r), use_templates=False)
            even_alive = [s.omega for s in cert.survivors if s.omega % 2 == 0]
            assert even_alive == [], (p, r)


def test_prime_cap_keeps_candidates():
    capped = classify(K(5, 8), prime_cap=2)
    full = classify(K(5, 8))
    assert full.verdict == NOT_IN_T
    # odd candidates whose primes were skipped must not be eliminated by
    # the divisibility stage; the kikuchi stage still runs
    assert {s.omega for s in capped.survivors} >= {s.omega for s in full.survivors}
