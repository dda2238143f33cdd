import math
from collections import Counter
from pathlib import Path

import pytest

from torustwist import (SequenceSemanticError, SequenceSyntaxError,
                        TorusKnotParams, TwistMove, characteristic_check,
                        gilmer_viro_check, kikuchi_eliminate,
                        ledger_from_sequence, parse_sequence,
                        serialize_sequence, template_sequences,
                        tristram_sigma)
from torustwist.fourmanifold import (MINUS_CP2, PLUS_CP2, S2XS2, IdentifyStep,
                                     LinCoef, Summand, TwistSequence,
                                     TwistStep, validate_sequence)

DATA = Path(__file__).parent / "data"


def K(p, q):
    return TorusKnotParams(p, q)


def t58_sequence():
    return parse_sequence((DATA / "t58_untwist.seq").read_text())


# ---------------------------------------------------------------------------
# ledgers
# ---------------------------------------------------------------------------


def test_ledger_even_gap_instance():
    # q = p + r with p = 2nr+1, at p=9, r=4, n=1
    seq = template_sequences(K(9, 13))[0]
    led = ledger_from_sequence(seq, symbolic_omega=True)
    assert led.sigma_m == 0
    assert (led.b2_plus, led.b2_minus) == (2, 2)
    assert led.xi_self_intersection == (81 + 2 * 1 * 16, 0, -1)  # -w^2 + p^2 + 2nr^2


def test_ledger_t58():
    led = ledger_from_sequence(t58_sequence(), symbolic_omega=True)
    assert led.sigma_m == 1
    assert (led.b2_plus, led.b2_minus) == (3, 2)
    assert led.xi_self_intersection == (25 + 25 - 8, 0, -1)


def test_ledger_empty_sequence():
    seq = TwistSequence(K(1, 1), ())
    led = ledger_from_sequence(seq, symbolic_omega=False)
    assert led.sigma_m == 0
    assert (led.b2_plus, led.b2_minus) == (0, 0)
    assert led.xi_self_intersection == (0, 0, 0)


def test_ledger_requires_closure():
    seq = TwistSequence(K(5, 8), (TwistStep(TwistMove(-1, 5), K(5, 3)),))
    with pytest.raises(SequenceSemanticError):
        ledger_from_sequence(seq, symbolic_omega=True)
    with pytest.raises(SequenceSemanticError):
        ledger_from_sequence(t58_sequence(), symbolic_omega=False)


def test_ledger_additive_over_concatenation():
    from torustwist import FourManifoldLedger
    l1 = ledger_from_sequence(t58_sequence())
    l2 = ledger_from_sequence(template_sequences(K(9, 13))[0])
    both = FourManifoldLedger(l1.summands + l2.summands)
    assert both.sigma_m == l1.sigma_m + l2.sigma_m
    assert both.b2_plus == l1.b2_plus + l2.b2_plus
    assert both.b2_minus == l1.b2_minus + l2.b2_minus
    assert both.xi_self_intersection == tuple(
        a + b for a, b in zip(l1.xi_self_intersection, l2.xi_self_intersection))


# ---------------------------------------------------------------------------
# characteristic / kikuchi / gilmer-viro
# ---------------------------------------------------------------------------


def test_characteristic_parity():
    led = ledger_from_sequence(template_sequences(K(9, 13))[0])
    assert characteristic_check(led, "odd")
    assert not characteristic_check(led, "even")
    t58 = ledger_from_sequence(t58_sequence())
    assert characteristic_check(t58, "odd")


def test_kikuchi_t58():
    res = kikuchi_eliminate(ledger_from_sequence(t58_sequence()))
    assert res.applicable
    assert res.omega_squared == 41
    assert res.admissible == ()


def test_kikuchi_even_gap():
    res = kikuchi_eliminate(ledger_from_sequence(template_sequences(K(9, 13))[0]))
    assert res.applicable and res.omega_squared == 113 and res.admissible == ()


def test_kikuchi_gap4_family_never_squares():
    # p = 8n+3: required w^2 = p^2 + 32n + 8 sits strictly between
    # (8n+4)^2 and (8n+5)^2
    for n in range(1, 101):
        p = 8 * n + 3
        seq = template_sequences(K(p, p + 4))[0]
        res = kikuchi_eliminate(ledger_from_sequence(seq))
        assert res.applicable
        assert res.omega_squared == p * p + 32 * n + 8
        assert (8 * n + 4) ** 2 < res.omega_squared < (8 * n + 5) ** 2
        assert res.admissible == ()


def test_every_template_forces_an_odd_omega_squared():
    # the parity argument of template_sequences' docstring, on every
    # applicable template of a box that holds all three families
    families = Counter()
    for p in range(5, 400):
        for q in range(p + 2, 2 * p + 3):
            if math.gcd(p, q) != 1:
                continue
            for seq in template_sequences(K(p, q)):
                res = kikuchi_eliminate(ledger_from_sequence(seq))
                if res.applicable:
                    assert res.omega_squared % 2 == 1, (p, q, seq.label)
                    families[seq.label.split()[0]] += 1
    assert families == {"even-gap": 954, "double-step": 396, "gap4": 98}


def test_kikuchi_inapplicable_when_b2_large():
    summands = tuple(Summand(PLUS_CP2, (LinCoef(0, 1),)) for _ in range(4)) \
        + (Summand(MINUS_CP2, (LinCoef(1, 0),)),)
    from torustwist import FourManifoldLedger
    res = kikuchi_eliminate(FourManifoldLedger(summands))
    assert not res.applicable
    assert "b2" in res.reason


def test_gilmer_viro_reduces_to_divisibility_condition():
    # single -CP^2 with class w: the inequality is exactly the two-valued
    # divisibility constraint
    from torustwist import condition_iv_check
    for (p, q, w, d) in [(5, 8, 6, 2), (5, 7, 6, 2), (5, 7, 6, 3), (9, 13, 10, 2)]:
        s = tristram_sigma(K(p, q), d, method="counting")
        led = Summand(MINUS_CP2, (LinCoef(0, w),))
        assert gilmer_viro_check(led, 0, d, s, w) == \
            condition_iv_check(p, q, w, d, sigma_value=s)


def test_gilmer_viro_slice_disk_case():
    # zero class in punctured -CP^2, genus 0: |1 - (sd(K-) - sd(K+))| <= 1
    led = Summand(MINUS_CP2, (LinCoef(0, 0),))
    for d in (2, 3, 5):
        diff = tristram_sigma(K(2, 3), d) - tristram_sigma(K(2, 5), d)
        assert gilmer_viro_check(led, 0, d, diff, 0)


def test_gilmer_viro_large_genus_always_true():
    led = Summand(MINUS_CP2, (LinCoef(0, 6),))
    assert gilmer_viro_check(led, 100, 2, -20, 6)


def test_gilmer_viro_divisibility_guard():
    led = Summand(MINUS_CP2, (LinCoef(0, 5),))
    with pytest.raises(ValueError):
        gilmer_viro_check(led, 0, 2, -4, 5)


# ---------------------------------------------------------------------------
# sequence DSL
# ---------------------------------------------------------------------------


def test_roundtrip_is_byte_identical():
    text = (DATA / "t58_untwist.seq").read_text()
    seq = parse_sequence(text)
    assert serialize_sequence(seq) == text
    assert parse_sequence(serialize_sequence(seq)) == seq


def test_parse_tolerates_whitespace_and_comments():
    text = ("# chain for T(5,8)\n"
            "start   T( 5 , 8 )\n"
            "twist n = -1  w = 5  ->  T(5,3)\n\n"
            "twist n=-1 w=5 -> T(5,-2)\n"
            "identify T(2,-5)   # mirror identification\n"
            "twist n=2 w=2 -> T(2,-1)\n"
            "end unknot\n")
    assert parse_sequence(text) == t58_sequence()


def test_parse_rejects_wrong_arithmetic_with_line():
    text = ("start T(5,8)\n"
            "twist n=-1 w=5 -> T(5,4)\n"
            "end unknot\n")
    with pytest.raises(SequenceSemanticError) as err:
        parse_sequence(text)
    assert err.value.line == 2
    assert "T(5,3)" in str(err.value)


def test_parse_rejects_bad_identify():
    text = ("start T(5,8)\n"
            "twist n=-1 w=5 -> T(5,3)\n"
            "identify T(3,7)\n"
            "end unknot\n")
    with pytest.raises(SequenceSemanticError) as err:
        parse_sequence(text)
    assert err.value.line == 3
    assert "T(3,5)" in str(err.value)


def test_parse_rejects_odd_multitwist():
    text = ("start T(5,8)\n"
            "twist n=-3 w=5 -> T(5,-7)\n"
            "end unknot\n")
    with pytest.raises(SequenceSemanticError):
        parse_sequence(text)


def test_parse_rejects_partial_strand_step():
    text = ("start T(5,8)\n"
            "twist n=-1 w=3 -> T(5,3)\n"
            "end unknot\n")
    with pytest.raises(SequenceSemanticError) as err:
        parse_sequence(text)
    assert "full-strand" in str(err.value)


def test_parse_rejects_open_end():
    text = ("start T(5,8)\n"
            "twist n=-1 w=5 -> T(5,3)\n"
            "end unknot\n")
    with pytest.raises(SequenceSemanticError) as err:
        parse_sequence(text)
    assert "unknot" in str(err.value)


def test_parse_syntax_errors():
    with pytest.raises(SequenceSyntaxError):
        parse_sequence("")
    with pytest.raises(SequenceSyntaxError):
        parse_sequence("start T(5,8)\nwobble T(1,2)\nend unknot\n")
    with pytest.raises(SequenceSyntaxError):
        parse_sequence("start T(5,8)\n")
    err = None
    try:
        parse_sequence("start T(5,8)\ntwist n=-1 w=5 -> T(5;3)\nend unknot\n")
    except SequenceSyntaxError as e:
        err = e
    assert err is not None and err.line == 2


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------


def test_template_selection():
    assert template_sequences(K(9, 13))[0].label == "even-gap r=4 n=1"
    assert template_sequences(K(11, 15))[0].label == "gap4 p=8n+3 n=1"
    assert template_sequences(K(13, 17))[0].label == "gap4 p=8n+5 n=1"
    assert template_sequences(K(5, 8))[0].label == "double-step n=2"
    assert template_sequences(K(5, 7))[0].label == "even-gap r=2 n=1"
    assert template_sequences(K(5, 13)) == []  # odd gap, no chain


def test_templates_validate_and_close():
    import math
    cases = []
    for p in range(5, 40, 2):
        for q in range(p + 2, p + 22):
            if math.gcd(p, q) == 1 and not K(p, q).is_trivial:
                from torustwist import is_exceptional
                if not is_exceptional(K(p, q)):
                    cases.append(K(p, q))
    for k in cases:
        for seq in template_sequences(k):
            validate_sequence(seq)  # raises on any broken step
            assert seq.final.is_trivial


def test_t58_template_matches_golden_sequence():
    seq = template_sequences(K(5, 8))[0]
    assert serialize_sequence(seq) == (DATA / "t58_untwist.seq").read_text()
