"""Acceptance suite: one pass/fail line per criterion (run with -s to see
them); every expected value is exact and every runtime budget is asserted.
"""

import math
import time

from torustwist import (TorusKnotParams, classify, corollary_bound,
                        kikuchi_eliminate, ledger_from_sequence,
                        parse_sequence, prop35_bound_check, serialize_sequence,
                        sigma_2nr_closed, sigma_closed, sigma_oracle,
                        sigma_p_plus_4, sigma_p_plus_r, template_sequences,
                        tristram_sigma)
from torustwist.cli import _family_rows, render_scan_csv, scan_rows
from torustwist.errors import SequenceSemanticError


def K(p, q):
    return TorusKnotParams(p, q)


def coprime_pairs(pmax, qmax):
    return [(p, q) for p in range(2, pmax + 1) for q in range(p + 1, qmax + 1)
            if math.gcd(p, q) == 1]


def report(num, name, ok, t0, budget, detail=""):
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {num}: {name} ({elapsed:.2f}s / "
          f"budget {budget:.0f}s){extra}")
    assert ok, f"criterion {num}: {name}{extra}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_01_reference_values():
    t0 = time.time()
    ok = (sigma_oracle(K(1, 5)) == 0 and sigma_closed(K(1, 5)) == 0
          and sigma_oracle(K(3, 7)) == -8 and sigma_closed(K(3, 7)) == -8
          and sigma_oracle(K(5, 8)) == -20 and sigma_closed(K(5, 8)) == -20)
    for d in (2, 3, 5, 7, 11):
        ok = ok and tristram_sigma(K(2, 5), d) == -4
    report(1, "reference signature values", ok, t0, 1.0)


def test_criterion_02_oracle_equivalence_sweep():
    t0 = time.time()
    pairs = coprime_pairs(40, 40)
    ok = all(sigma_closed(K(p, q)) == sigma_oracle(K(p, q)) for p, q in pairs)
    report(2, f"closed form == enumeration on {len(pairs)} pairs", ok, t0, 30.0)


def test_criterion_03_closed_form_sweeps():
    t0 = time.time()
    ok = True
    for p in range(3, 40, 2):
        for r in range(2, p, 2):
            if math.gcd(p, r) == 1:
                ok = ok and sigma_p_plus_r(p, r) == sigma_closed(K(p, p + r))
    for n in range(1, 5):
        for r in range(2, 11, 2):
            for sign in (1, -1):
                p = 2 * n * r + sign
                ok = ok and sigma_2nr_closed(n, r, sign) == sigma_closed(K(p, p + r))
    for p in range(3, 100, 2):
        ok = ok and sigma_p_plus_4(p) == sigma_closed(K(p, p + 4))
    report(3, "specialized closed forms agree", ok, t0, 10.0)


def test_criterion_04_signature_bound():
    t0 = time.time()
    ok = all(sigma_closed(K(p, q)) <= corollary_bound(K(p, q))
             for p, q in coprime_pairs(40, 40))
    report(4, "sigma <= -2[p/2][q/2] on the sweep", ok, t0, 10.0)


def test_criterion_05_seifert_tristram_cross_validation():
    t0 = time.time()
    ok = True
    for p, q in coprime_pairs(11, 11):
        k = K(p, q)
        ok = ok and tristram_sigma(k, 2, method="hermitian") == sigma_oracle(k)
        if (p, q) != (2, 3):
            for d in (2, 3, 5, 7):
                ok = ok and prop35_bound_check(k, d, method="hermitian")
    report(5, "certified Hermitian signatures match the oracle", ok, t0, 120.0)


def _family_knots():
    knots = [(p, p + 4) for p in (9, 11, 17, 19, 25, 27, 33, 35)]
    knots += [(p, q) for (_, p, q) in _family_rows("thm1.5", 3)]
    knots.append((5, 8))
    return sorted(set(knots))


def test_criterion_06_family_reproduction():
    t0 = time.time()
    bad = [(p, q, classify(K(p, q)).verdict) for p, q in _family_knots()
           if classify(K(p, q)).verdict != "NotInT"]
    report(6, f"{len(_family_knots())} family knots all NotInT", not bad,
           t0, 600.0, detail=str(bad) if bad else "")


def test_criterion_07_survivor_reproduction():
    t0 = time.time()
    failures = []

    def expect(p, q, want):
        cert = classify(K(p, q))
        got = [(s.n, s.omega) for s in cert.survivors]
        if got != want:
            failures.append(f"T({p},{q}): expected {want}, got {got}")
        return cert

    expect(5, 7, [(1, 6)])
    for p in (5, 7, 9):
        expect(p, p + 2, [(1, p + 1)])
    # Gap 4, p = 5, 7 (mod 8): the characteristic-sphere template leaves
    # exactly w = p + 2.  That is only a necessary condition: when 3 | p + 2
    # the divisibility test at d = 3 also rules w = p + 2 out, because
    # 2*1*2/9 * w^2 is neither -sigma_3 nor 2 - sigma_3 (see
    # obstruction.condition_iv_check for the derivation).
    gap4 = {7: ([], -32), 13: ([], -96), 15: ([(1, 17)], None)}
    for p, (want, sigma_3) in gap4.items():
        w = p + 2
        cert = expect(p, p + 4, want)
        tpl = cert.templates[0]
        if tpl.admissible != (w,) or tpl.omega_squared != w * w:
            failures.append(f"T({p},{p + 4}): template leaves "
                            f"{tpl.admissible} (w^2 = {tpl.omega_squared})")
        if sigma_3 is None:
            continue
        reasons = [e.reason for e in cert.eliminations if e.omega == w]
        hermitian = tristram_sigma(K(p, p + 4), 3, method="hermitian")
        lhs = 2 * 1 * 2 * w * w // 9
        if (reasons != ["condition-iv(d=3)"]
                or cert.sigma_inputs.get(3) != sigma_3
                or hermitian != sigma_3
                or lhs in (-sigma_3, 2 - sigma_3)):
            failures.append(f"T({p},{p + 4}): w={w} eliminated by {reasons}, "
                            f"sigma_3 = {cert.sigma_inputs.get(3)} "
                            f"(hermitian {hermitian}), want {sigma_3}")
    report(7, "survivor sets match the stated families", not failures, t0,
           60.0, detail="; ".join(failures))


def test_criterion_08_kikuchi_ledgers():
    t0 = time.time()
    ok = True
    res = kikuchi_eliminate(ledger_from_sequence(template_sequences(K(5, 8))[0]))
    ok = ok and res.applicable and res.omega_squared == 41 and res.admissible == ()
    for n in range(1, 4):
        for r in (4, 6, 8):
            p = 2 * n * r + 1
            seq = template_sequences(K(p, p + r))[0]
            res = kikuchi_eliminate(ledger_from_sequence(seq))
            ok = ok and res.omega_squared == p * p + 2 * n * r * r
    for n in range(1, 101):
        p = 8 * n + 3
        res = kikuchi_eliminate(ledger_from_sequence(
            template_sequences(K(p, p + 4))[0]))
        need = p * p + 32 * n + 8
        ok = (ok and res.omega_squared == need and res.admissible == ()
              and (8 * n + 4) ** 2 < need < (8 * n + 5) ** 2)
    report(8, "characteristic-sphere equations and non-squares", ok, t0, 30.0)


def test_criterion_09_sequence_dsl():
    t0 = time.time()
    from pathlib import Path
    path = Path(__file__).parent / "data" / "t58_untwist.seq"
    text = path.read_text()
    seq = parse_sequence(text)
    ok = serialize_sequence(seq) == text
    led = ledger_from_sequence(seq)
    ok = ok and led.sigma_m == 1 and led.xi_constant == 42
    corrupted = text.replace("T(5,3)", "T(5,4)")
    try:
        parse_sequence(corrupted)
        ok = False
    except SequenceSemanticError as e:
        ok = ok and e.line == 2
    report(9, "sequence file round-trip and validation", ok, t0, 5.0)


def test_criterion_10_scan_determinism():
    t0 = time.time()
    serial = render_scan_csv(scan_rows((2, 12), (3, 20), jobs=1))
    parallel = render_scan_csv(scan_rows((2, 12), (3, 20), jobs=8))
    report(10, "scan output independent of parallelism", serial == parallel,
           t0, 120.0)
