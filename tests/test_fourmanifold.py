import math
from collections import Counter
from pathlib import Path

import pytest

from torustwist import (FourManifoldLedger, SequenceSemanticError,
                        SequenceSyntaxError, TorusKnotParams, TwistMove,
                        UnsupportedTwistError, characteristic_check,
                        gilmer_viro_check, kikuchi_eliminate,
                        ledger_from_sequence, parse_sequence,
                        serialize_sequence, template_sequences,
                        tristram_sigma)
from torustwist.fourmanifold import (IdentifyStep, TwistSequence, TwistStep,
                                     validate_sequence)

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
    led = ledger_from_sequence(seq)
    assert led.sigma_m == 0
    assert (led.b2_plus, led.b2_minus) == (2, 2)
    assert led.xi_constant == 81 + 2 * 1 * 16  # xi.xi = -w^2 + p^2 + 2nr^2


def test_ledger_t58():
    led = ledger_from_sequence(t58_sequence())
    assert led.sigma_m == 1
    assert (led.b2_plus, led.b2_minus) == (3, 2)
    assert led.xi_constant == 25 + 25 - 8


def test_ledger_empty_sequence():
    # only the hypothesized (1, w)-move: one -CP^2 carrying w, which the
    # ledger adds without storing it
    seq = TwistSequence(K(1, 1), ())
    led = ledger_from_sequence(seq)
    assert led.moves == ()
    assert led.sigma_m == -1
    assert (led.b2_plus, led.b2_minus) == (0, 1)
    assert led.xi_constant == 0


def _summand_oracle(move):
    """sigma, (b2^+, b2^-) and self-intersection of move's summand, read
    from the per-kind table: -CP^2 (n = 1) carries v, +CP^2 (n = -1)
    carries v, S^2 x S^2 (even n) carries (v, -(n/2)v)."""
    v = move.omega
    if move.n == 1:
        return -1, (0, 1), -v * v
    if move.n == -1:
        return 1, (1, 0), v * v
    a, b = v, -(move.n // 2) * v
    return 0, (1, 1), 2 * a * b


def test_ledger_one_rule_matches_the_per_kind_table():
    # each supported (n, v)-move alone, and all of them in one ledger,
    # against the table; the ledger adds the leading (1, w)-move: -1 to
    # sigma(M), +1 to b2^- and nothing to C
    moves = [TwistMove(n, v) for n in range(-8, 9) for v in range(21)
             if n != 0 and TwistMove(n, v).is_supported]
    assert len(moves) == 10 * 21
    total = [-1, 0, 1, 0]
    for move in moves:
        sigma, (plus, minus), xi = _summand_oracle(move)
        led = FourManifoldLedger((move,))
        assert (led.sigma_m, led.b2_plus, led.b2_minus, led.xi_constant) \
            == (sigma - 1, plus, minus + 1, xi), move
        for i, x in enumerate((sigma, plus, minus, xi)):
            total[i] += x
    led = FourManifoldLedger(tuple(moves))
    assert [led.sigma_m, led.b2_plus, led.b2_minus, led.xi_constant] == total


def test_ledger_rejects_an_unsupported_move():
    with pytest.raises(UnsupportedTwistError, match="no homological summand"):
        FourManifoldLedger((TwistMove(3, 5),))
    with pytest.raises(UnsupportedTwistError):
        FourManifoldLedger((TwistMove(-1, 5), TwistMove(-5, 1)))


def test_ledger_requires_closure():
    seq = TwistSequence(K(5, 8), (TwistStep(TwistMove(-1, 5), K(5, 3)),))
    with pytest.raises(SequenceSemanticError):
        ledger_from_sequence(seq)


def test_ledger_rejects_an_unsupported_move_by_validation():
    # an odd twist count beyond 1 has no summand; validation rejects it,
    # with its message, before the ledger is built
    move = TwistMove(3, 5)
    assert not move.is_supported
    seq = TwistSequence(K(5, 8), (TwistStep(move, K(5, 83)),))
    with pytest.raises(SequenceSemanticError, match="no homological summand"):
        ledger_from_sequence(seq)


def test_ledger_additive_over_concatenation():
    # the chains' moves add; the leading (1, w)-move, -1 to sigma(M) and
    # +1 to b2^-, is counted once
    l1 = ledger_from_sequence(t58_sequence())
    l2 = ledger_from_sequence(template_sequences(K(9, 13))[0])
    both = FourManifoldLedger(l1.moves + l2.moves)
    assert len(both.moves) == len(l1.moves) + len(l2.moves) == 5
    assert both.sigma_m == l1.sigma_m + l2.sigma_m + 1
    assert both.b2_plus == l1.b2_plus + l2.b2_plus
    assert both.b2_minus == l1.b2_minus + l2.b2_minus - 1
    assert both.xi_constant == l1.xi_constant + l2.xi_constant


# ---------------------------------------------------------------------------
# characteristic / kikuchi / gilmer-viro
# ---------------------------------------------------------------------------


def test_characteristic_parity():
    led = ledger_from_sequence(template_sequences(K(9, 13))[0])
    assert characteristic_check(led)
    t58 = ledger_from_sequence(t58_sequence())
    assert characteristic_check(t58)
    # odd v on every CP^2, even v on every S^2 x S^2; the leading move's
    # odd w alone is characteristic
    assert characteristic_check(FourManifoldLedger(()))
    # -CP^2 with v = 2, +CP^2 with v = 4, S^2 x S^2 with odd v = 3
    for move in (TwistMove(1, 2), TwistMove(-1, 4), TwistMove(2, 3)):
        assert not characteristic_check(FourManifoldLedger((move,)))
    # +CP^2 with v = 3, S^2 x S^2 with class (2, -6)
    assert characteristic_check(FourManifoldLedger(
        (TwistMove(-1, 3), TwistMove(6, 2))))


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
    # on every template of a box that holds all three families: the ledger
    # matches the closed form of template_sequences' docstring, read from
    # the chain's label alone, and forces an odd omega^2
    families = Counter()
    for p in range(5, 400):
        for q in range(p + 2, 2 * p + 3):
            if math.gcd(p, q) != 1:
                continue
            for seq in template_sequences(K(p, q)):
                family, *params = seq.label.split()
                n = int(params[-1].removeprefix("n="))
                if family == "even-gap":
                    r = int(params[0].removeprefix("r="))
                    want = (p * p + 2 * n * r * r, 0)
                elif family == "gap4":
                    want = (p * p + 32 * n + (p % 8) ** 2, 1)
                else:
                    want = (2 * p * p - 4 * n, 1)
                led = ledger_from_sequence(seq)
                assert (led.xi_constant, led.sigma_m) == want, (p, q, seq.label)
                res = kikuchi_eliminate(led)
                assert res.applicable, (p, q, seq.label)
                assert res.omega_squared % 2 == 1, (p, q, seq.label)
                families[family] += 1
    assert families == {"even-gap": 954, "double-step": 396, "gap4": 98}


def test_kikuchi_inapplicable_when_b2_large():
    moves = tuple(TwistMove(-1, 1) for _ in range(4))  # four +CP^2
    res = kikuchi_eliminate(FourManifoldLedger(moves))
    assert not res.applicable
    assert "b2" in res.reason


def test_kikuchi_inapplicable_when_not_characteristic():
    # an S^2 x S^2 move with odd v: its class (v, -v) is not even
    res = kikuchi_eliminate(FourManifoldLedger((TwistMove(2, 3),)))
    assert not res.applicable
    assert "characteristic" in res.reason


def test_kikuchi_negative_omega_squared_admits_nothing():
    # a -CP^2 move with v = 3: C - sigma(M) = -9 + 2 < 0, so no w^2 fits
    res = kikuchi_eliminate(FourManifoldLedger((TwistMove(1, 3),)))
    assert res.applicable
    assert res.omega_squared == -7 and res.admissible == ()


def test_gilmer_viro_reduces_to_divisibility_condition():
    # the bare (1, w)-move, a single -CP^2 with class w: the inequality is
    # exactly the two-valued divisibility constraint
    from torustwist import condition_iv_check
    led = FourManifoldLedger(())
    for (p, q, w, d) in [(5, 8, 6, 2), (5, 7, 6, 2), (5, 7, 6, 3), (9, 13, 10, 2)]:
        s = tristram_sigma(K(p, q), d, method="counting")
        assert gilmer_viro_check(led, 0, d, s, w) == \
            condition_iv_check(p, q, w, d, sigma_value=s)


def test_gilmer_viro_slice_disk_case():
    # zero class in punctured -CP^2, genus 0: |1 - (sd(K-) - sd(K+))| <= 1
    led = FourManifoldLedger(())
    for d in (2, 3, 5):
        diff = tristram_sigma(K(2, 3), d) - tristram_sigma(K(2, 5), d)
        assert gilmer_viro_check(led, 0, d, diff, 0)


def test_gilmer_viro_large_genus_always_true():
    assert gilmer_viro_check(FourManifoldLedger(()), 100, 2, -20, 6)


def test_gilmer_viro_divisibility_guard():
    with pytest.raises(ValueError):
        gilmer_viro_check(FourManifoldLedger(()), 0, 2, -4, 5)


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


@pytest.mark.parametrize("text, error, line, message", [
    ("# no start\ntwist n=-1 w=5 -> T(5,3)\nend unknot\n",
     SequenceSyntaxError, 2, "must begin with 'start"),
    ((DATA / "t58_untwist.seq").read_text() + "identify T(1,2)\n",
     SequenceSyntaxError, 7, "content after 'end unknot'"),
    ("start T(5,8)\ntwist n=0 w=5 -> T(5,8)\nend unknot\n",
     SequenceSemanticError, 2, "0-twist"),
    ("start T(5,8)\ntwist n=-1 w=5 -> T(2,4)\nend unknot\n",
     SequenceSemanticError, 2, "not coprime"),
], ids=["no-start", "after-end", "zero-twist", "not-coprime"])
def test_parse_errors_name_their_line(text, error, line, message):
    with pytest.raises(error) as err:
        parse_sequence(text)
    assert err.value.line == line
    assert f"line {line}" in str(err.value) and message in str(err.value)


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
            validate_sequence(seq)  # raises on any broken step or no closure


def test_t58_template_matches_golden_sequence():
    seq = template_sequences(K(5, 8))[0]
    assert serialize_sequence(seq) == (DATA / "t58_untwist.seq").read_text()
