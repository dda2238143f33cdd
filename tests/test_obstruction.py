import dataclasses
import json
import math
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from torustwist import (DomainError, TorusKnotParams, classify,
                        condition_iv_check, obstruction, survivors_p_plus_2,
                        survivors_p_plus_4, thom_bound_check)
from torustwist.errors import InternalCheckError
from torustwist.fourmanifold import KikuchiResult
from torustwist.obstruction import (NOT_IN_T, REASON_GENUS, REASON_KIKUCHI,
                                    TRIVIAL_OR_EXCEPTIONAL, UNDECIDED,
                                    Elimination, Eliminations,
                                    certificate_to_dict, certificate_to_json,
                                    certificate_to_text, genus_cutoff)
from torustwist import tristram
from torustwist.tristram import (is_prime, prime_divisors,
                                 smallest_prime_factors)

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_condition_iv_check_matches_the_formula():
    # 2[d/2](d-[d/2])w^2/d^2 in {-sigma_d, 2 - sigma_d}, computed directly,
    # for each multiple w of d and every sigma_d in a window around the
    # values it can pass at, odd ones too
    for d in [d for d in range(2, 40) if is_prime(d)]:
        a = d // 2
        for w in range(-5 * d, 40 * d + 1, d):
            lhs = 2 * a * (d - a) * w * w // (d * d)
            for s in range(-lhs - 4, -lhs + 5):
                assert condition_iv_check(5, 7, w, d, sigma_value=s) is (
                    lhs in (-s, 2 - s)), (d, w, s)


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
    def mutate(reasons, tail):
        return reasons, range(tail.start + by_start, tail.stop + by_stop)
    return mutate


def _set_slot(reasons, w, reason):
    return reasons[:w] + (reason,) + reasons[w + 1:]


@pytest.mark.parametrize("mutate", [
    _shift_tail(1, 1), _shift_tail(-1, -1), _shift_tail(1, 0),
    _shift_tail(-1, 0),
    # the last slot duplicated: one slot too long
    lambda reasons, tail: (reasons + reasons[-1:], tail),
    # the first survivor's slot given a reason
    lambda reasons, tail: (_set_slot(reasons, reasons.index(None, 2),
                                     REASON_KIKUCHI), tail),
    # the first eliminated w's slot cleared
    lambda reasons, tail: (_set_slot(reasons, 2, None), tail),
    # w = 1, which is no candidate, given a reason
    lambda reasons, tail: (_set_slot(reasons, 1, REASON_GENUS), tail),
], ids=["tail+1", "tail-1", "tail-start+1", "tail-start-1",
        "duplicated-last-slot", "survivor-given-a-reason", "reason-cleared",
        "omega-1-given-a-reason"])
def test_classify_rejects_a_broken_partition(monkeypatch, mutate):
    class Broken(Eliminations):
        def __init__(self, reasons, tail):
            super().__init__(*mutate(reasons, tail))

    # a survivor, reasons below it and a genus tail above it
    cert = classify(K(7, 47))
    assert [s.omega for s in cert.survivors] == [18]
    assert cert.eliminations.reasons[2] and cert.eliminations.tail
    monkeypatch.setattr(obstruction, "Eliminations", Broken)
    with pytest.raises(InternalCheckError):
        classify(K(7, 47))


def test_a_broken_partition_exits_3_also_under_O():
    # the partition check is no bare assert: python -O keeps it, and the
    # CLI maps it to exit 3
    script = (
        "import sys\n"
        "from torustwist import cli, obstruction\n"
        "class Broken(obstruction.Eliminations):\n"
        "    def __init__(self, reasons, tail):\n"
        "        super().__init__(reasons[:2] + (None,) + reasons[3:],\n"
        "                         tail)\n"
        "obstruction.Eliminations = Broken\n"
        "sys.exit(cli.main(['classify', '-p', '7', '-q', '47']))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 3, res.stderr
    assert "candidate partition broken" in res.stderr and res.stdout == ""


def _eliminations_certs():
    """Seeded certificates: mirrors, kikuchi, large-q and gapped cases."""
    rng = random.Random(606)
    pairs = [(1, 9), (4, 7), (5, 7), (-5, 8), (7, -5), (5, 8), (11, 15),
             (7, 16), (15, 19)]
    while len(pairs) < 20:
        p = rng.randint(5, 13)
        q = rng.randint(3000, 30000) * rng.choice((1, -1))
        if math.gcd(p, q) == 1:
            pairs.append((p, q))
    certs = [classify(K(p, q)) for p, q in pairs]
    # reasons with gaps between their omegas, next to a tail
    for p, q in [(13, 97), (7, 3001)]:
        cert = classify(K(p, q))
        e = cert.eliminations
        certs.append(dataclasses.replace(cert, eliminations=Eliminations(
            tuple(r if w % 3 == 2 else None for w, r in enumerate(e.reasons)),
            e.tail)))
    return certs


def _slots(reasons):
    """An Eliminations.reasons tuple from a {w: reason} dict."""
    return tuple(map(reasons.get, range(max(reasons, default=-1) + 1)))


def test_eliminations_behave_as_the_materialized_tuple():
    certs = _eliminations_certs()
    assert any(e.reason == REASON_KIKUCHI for c in certs for e in c.eliminations)
    for cert in certs:
        e = cert.eliminations
        ref = tuple(Elimination(w, r) for w, r in enumerate(e.reasons)
                    if r is not None)
        ref += tuple(Elimination(w, REASON_GENUS) for w in e.tail)
        assert isinstance(e, Eliminations)
        assert tuple(e) == ref and len(e) == len(ref)
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is Eliminations and back.tail == e.tail
        assert tuple(back) == ref


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
    certs.append(dataclasses.replace(classify(K(13, 97)), notes=(
        "omega=11: a note that names one candidate",)))
    assert not certs[0].eliminations and not certs[1].eliminations
    assert certs[2].mirror and certs[3].mirror
    assert any(e.reason == REASON_KIKUCHI for e in certs[5].eliminations)
    assert any(n.startswith("omega=") for n in certs[-1].notes)
    # sigma_inputs in non-ascending insertion order with a two-digit key:
    # rendered in int order of d, not in str order
    certs.append(dataclasses.replace(certs[5], sigma_inputs={
        11: -60, 2: -10, 7: -40}))
    # a reason classify never emits and one that needs escaping, by hand
    certs.append(dataclasses.replace(certs[5], eliminations=Eliminations(
        _slots({3: "characteristic-parity", 5: 'quote " and \u00e9',
                7: "characteristic-parity"}))))
    # a genus-bound slot in reasons, next to the tail; a tail with no
    # reasons
    e = certs[6].eliminations
    assert len(e.reasons) == e.tail[0]
    certs.append(dataclasses.replace(certs[6], eliminations=Eliminations(
        e.reasons + (REASON_GENUS,), e.tail[1:])))
    certs.append(dataclasses.replace(certs[4], eliminations=Eliminations(
        (), range(2, 9))))
    # the genus tail is rendered in decimal blocks: every edge of a block,
    # each digit-width change, a tail inside one block, a one-w tail and
    # a tail from below 100 to past 1000
    tails = [range(lo, hi) for lo in (99, 100, 101)
             for hi in (100, 101, 199, 200, 201) if lo < hi]
    tails += [range(999, 1002), range(998, 1103), range(999, 1001),
              range(1000, 1001), range(9999, 10002), range(9899, 10102),
              range(10000, 10001), range(150, 181), range(150, 151),
              range(42, 1234)]
    certs += [dataclasses.replace(certs[4], eliminations=Eliminations((), t))
              for t in tails]
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
    text = certificate_to_text(dataclasses.replace(cert,
                                                   eliminations=Eliminations()))
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


@pytest.mark.parametrize("tail", [range(2, 3), range(99, 101), range(42, 1234),
                                  range(7, 1000003)])
def test_tail_parts_are_one_per_block(tail):
    # besides the partial blocks at the two ends, one part per block of
    # TAIL_BLOCK w, not one per w
    sep = ": sep\n"
    parts = obstruction._tail_parts(tail, sep)
    assert "".join(parts) == sep.join(map(str, tail))
    block = obstruction.TAIL_BLOCK
    assert len(parts) <= len(tail) // block + 2 * block


def test_max_q_memory_bound():
    # the peak bytes per candidate w that the MAX_Q comment states, at the
    # largest accepted knot whose certificate lists every w in [2, q - 1]
    k = K(7, obstruction.MAX_Q - 1)
    for render, bound in ((certificate_to_json, 100),
                          (certificate_to_text, 60)):
        tracemalloc.start()
        try:
            size = len(render(classify(k)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_omega = peak / (k.q - 2)
        assert size / (k.q - 2) < per_omega <= bound, (render.__name__,
                                                         per_omega)


def test_classify_memory_per_omega_below_the_cutoff():
    # a near-diagonal knot, whose genus cutoff is about q: below the
    # cutoff classify keeps one shared reason reference per w and builds no
    # item per w
    k = K(30001, 30011)
    top = genus_cutoff(k.p, k.q)
    assert top == 30006
    classify(K(101, 257))   # imports and caches outside the measurement
    tracemalloc.start()
    try:
        cert = classify(k)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.verdict == NOT_IN_T
    assert retained / top <= 40 and peak / top <= 64, (retained / top,
                                                        peak / top)


def test_an_even_template_root_is_an_internal_check_error(monkeypatch):
    # every built-in template forces an odd omega^2, so classify treats an
    # even one as a broken invariant rather than as an elimination reason
    assert any(t.applicable for t in classify(K(5, 8)).templates)
    monkeypatch.setattr(obstruction, "kikuchi_eliminate", lambda ledger:
                        KikuchiResult(True, omega_squared=36, admissible=(6,)))
    with pytest.raises(InternalCheckError):
        classify(K(5, 8))


def test_an_inapplicable_template_is_an_internal_check_error(monkeypatch,
                                                              capsys):
    # every built-in template is applicable by construction, so classify
    # treats an inapplicable one as a broken invariant, and the CLI exits 3
    from torustwist import cli
    monkeypatch.setattr(obstruction, "kikuchi_eliminate", lambda ledger:
                        KikuchiResult(False, reason="x"))
    with pytest.raises(InternalCheckError, match="inapplicable"):
        classify(K(5, 8))
    assert cli.main(["classify", "-p", "5", "-q", "8"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "inapplicable" in out.err


def test_classify_deterministic():
    a = certificate_to_dict(classify(K(9, 13)))
    b = certificate_to_dict(classify(K(9, 13)))
    assert a == b


def _per_omega_condition_iv(p, q, spf):
    """The reference for classify's condition-(iv) sieve: each w in
    [2, cutoff] on its own, condition (iii) first, then its prime
    divisors in ascending order through condition_iv_check, eliminated at
    the first that fails.  Returns the reasons by w, the w that pass, and
    the sigma_d read on the way."""
    sigma, reasons, alive = {}, {}, []
    for w in range(2, genus_cutoff(p, q) + 1):
        if w % 2 == 0 and w <= p:
            reasons[w] = "condition-iii"
            continue
        for d in prime_divisors(w, spf):
            if d not in sigma:
                sigma[d] = tristram.sigma_d(K(p, q), d)
            if not condition_iv_check(p, q, w, d, sigma_value=sigma[d]):
                reasons[w] = f"condition-iv(d={d})"
                break
        else:
            alive.append(w)
    return reasons, alive, sigma


def _sieve_oracle_knots():
    def plain(p, q):
        return math.gcd(p, q) == 1 and not obstruction.is_exceptional(K(p, q))

    knots = [(p, q) for p in range(5, 150) for q in range(p + 1, 151)
             if plain(p, q)]
    rng = random.Random(1207)
    seeded = []
    while len(seeded) < 40:
        p = rng.randint(5, 3000)
        q = rng.randint(p + 2, 3 * p)
        if plain(p, q):
            seeded.append((p, q))
    return knots + seeded


def test_condition_iv_sieve_matches_the_per_omega_loop():
    knots = _sieve_oracle_knots()
    spf = smallest_prime_factors(max(genus_cutoff(p, q) for p, q in knots) + 1)
    with_two = without_two = 0
    for p, q in knots:
        cert = classify(K(p, q))
        reasons, alive, sigma = _per_omega_condition_iv(p, q, spf)
        # the templates only remove odd w that passed condition (iv)
        slots = cert.eliminations.reasons
        kikuchi = [w for w, r in enumerate(slots) if r == REASON_KIKUCHI]
        assert {w: r for w, r in enumerate(slots)
                if r not in (None, REASON_KIKUCHI)} == reasons, (p, q)
        assert sorted(kikuchi + [s.omega for s in cert.survivors]) == alive
        assert cert.sigma_inputs == sigma, (p, q)
        # every odd prime up to the cutoff, and 2 iff an even w is above p
        top = genus_cutoff(p, q)
        odd = {d for d in range(3, top + 1) if is_prime(d)}
        two = top // 2 > p // 2
        assert set(sigma) == odd | ({2} if two else set()), (p, q)
        with_two += two
        without_two += not two
    assert with_two > 0 and without_two > 0


def test_classify_takes_its_primes_from_one_sieve(monkeypatch):
    # no per-d primality test on classify's path: its sigma_d sweep takes
    # the primes from its own sieve
    k = K(101, 257)
    want = certificate_to_json(classify(k))

    def refuse(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(tristram, "is_prime", refuse)
    assert certificate_to_json(classify(k)) == want


def test_templates_only_eliminate():
    # the 4-manifold stage may only remove odd candidates that every earlier
    # filter kept, read from the certificate alone
    seen = 0
    for p, q in [(5, 7), (7, 9), (9, 13), (5, 8), (7, 11), (11, 15),
                 (13, 17), (15, 19)]:
        cert = classify(K(p, q))
        applicable = [t for t in cert.templates if t.applicable]
        for w, reason in cert.eliminations:
            if reason != REASON_KIKUCHI:
                continue
            seen += 1
            assert w % 2 == 1 and w <= genus_cutoff(p, q), (p, q, w)
            assert any(w not in t.admissible for t in applicable), (p, q, w)
            assert not (w % 2 == 0 and w <= p)   # condition (iii)
            for d in prime_divisors(w):
                assert condition_iv_check(
                    p, q, w, d, sigma_value=cert.sigma_inputs[d]), (p, q, w, d)
    assert seen > 0


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
    # even w is eliminated before the 4-manifold stage (which removes only
    # odd w, so the final survivors show it)
    for n in (1, 2):
        for r in (4, 6, 8):
            p = 2 * n * r + 1
            cert = classify(K(p, p + r))
            even_alive = [s.omega for s in cert.survivors if s.omega % 2 == 0]
            assert even_alive == [], (p, r)
