"""Twist-sequence ledgers: 4-manifold bookkeeping for chains of twists.

A sequence of twists starting and ending at the unknot glues, move by move,
into a closed 4-manifold containing a sphere built from two disks and one
annulus per move.  An (n, v)-move is -1/n surgery on a disk met v times;
it contributes a punctured -CP^2 (n = 1) or +CP^2 (n = -1) whose annulus
carries v times the generator, or for even n a punctured S^2 x S^2 with
class (v, -(n/2)v) against the standard hyperbolic generators.  One rule
covers all three: the class has self-intersection -n*v^2.  The ledger
accumulates the signature, b2^+, b2^-, and the self-intersection
xi.xi = -w^2 + C of the total class, where the hypothesized first move's
w enters only through -w^2 and the chain's own moves give the integer
C = -sum(n*v^2).

When b2^+ <= 3, b2^- <= 3 and the class is characteristic (odd v on every
CP^2, even v on every S^2 x S^2), a characteristic sphere forces
xi.xi = sigma(M); solving that for w eliminates odd candidates wholesale.
The Gilmer-Viro inequality check is the open-manifold counterpart used for
single moves.

Sequences are exchanged in a line-oriented text format:

    start T(p,q)
    twist n=<int> w=<int> -> T(p,q)
    identify T(p,q)
    end unknot

with '#' comments and free whitespace inside lines.  Serialization is
canonical and byte-stable.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .core import (TorusKnotParams, TwistMove, apply_full_strand_twist,
                   is_exceptional, normalize)
from .errors import (InvalidKnotError, SequenceSemanticError,
                     SequenceSyntaxError, UnsupportedTwistError)

_UNSUPPORTED = ("twist {}: odd twist counts beyond 1 carry no homological "
                "summand")


@dataclass(frozen=True)
class FourManifoldLedger:
    """The closed 4-manifold of an untwisting chain led by the hypothesized
    (1, w)-move from the unknot.  moves holds the chain's own TwistMoves,
    each supported; the leading move, a punctured -CP^2 carrying w, is not
    stored.  The properties add it: -1 to sigma(M), +1 to b2^-, and -w^2 to
    xi.xi, so xi.xi = -w^2 + xi_constant."""

    moves: tuple

    def __post_init__(self):
        for move in self.moves:
            if not move.is_supported:
                raise UnsupportedTwistError(_UNSUPPORTED.format(move))

    @property
    def sigma_m(self) -> int:
        """-1 per -CP^2 (n = 1), +1 per +CP^2 (n = -1), 0 per S^2 x S^2."""
        return -1 - sum(m.n for m in self.moves if abs(m.n) == 1)

    @property
    def b2_plus(self) -> int:
        """1 per +CP^2 and per S^2 x S^2."""
        return sum(m.n != 1 for m in self.moves)

    @property
    def b2_minus(self) -> int:
        """1 per -CP^2, the leading move's too, and per S^2 x S^2."""
        return 1 + sum(m.n != -1 for m in self.moves)

    @property
    def xi_constant(self) -> int:
        """C in xi.xi = -w^2 + C: each (n, v)-move adds -n*v^2."""
        return -sum(m.n * m.omega * m.omega for m in self.moves)


@dataclass(frozen=True)
class TwistStep:
    move: TwistMove
    result: TorusKnotParams


@dataclass(frozen=True)
class IdentifyStep:
    params: TorusKnotParams


@dataclass(frozen=True)
class TwistSequence:
    start: TorusKnotParams
    steps: tuple
    label: str = field(default="", compare=False)

    @property
    def moves(self):
        return tuple(s.move for s in self.steps if isinstance(s, TwistStep))


def _first_step_error(seq: TwistSequence):
    """(step_index, message) for the first invalid step, or None."""
    cur = seq.start
    for idx, step in enumerate(seq.steps):
        if isinstance(step, TwistStep):
            move = step.move
            if not move.is_supported:
                return idx, _UNSUPPORTED.format(move)
            if move.omega != abs(cur.p):
                return idx, (f"twist {move} on {cur}: only full-strand steps "
                             f"(w = {abs(cur.p)}) can be validated")
            expected = apply_full_strand_twist(cur, move)
            if step.result != expected:
                return idx, (f"twist {move} on {cur}: expected {expected}, "
                             f"got {step.result}")
            cur = step.result
        else:
            want = normalize(cur)
            got = normalize(step.params)
            if want != got:
                return idx, (f"identify {step.params}: {cur} normalizes to "
                             f"{want[0]}"
                             f"{' (mirror)' if want[1] else ''}, not to "
                             f"{got[0]}{' (mirror)' if got[1] else ''}")
            cur = step.params
    if not cur.is_trivial:
        return len(seq.steps), f"sequence ends at {cur}, not at the unknot"
    return None


def validate_sequence(seq: TwistSequence):
    """Raise SequenceSemanticError on the first invalid step."""
    err = _first_step_error(seq)
    if err:
        raise SequenceSemanticError(err[1])


def ledger_from_sequence(seq: TwistSequence) -> FourManifoldLedger:
    """Validate seq and take the 4-manifold ledger of its moves, led by the
    hypothesized (1, w)-move from the unknot to seq.start."""
    validate_sequence(seq)
    return FourManifoldLedger(seq.moves)


def characteristic_check(ledger: FourManifoldLedger) -> bool:
    """Characteristic condition for the accumulated class at odd w: odd v
    on every +-CP^2 (n, v)-move, even v on every S^2 x S^2 move, whose
    class (v, -(n/2)v) is even exactly when v is.  The leading move's
    coefficient is w itself, odd by hypothesis."""
    return all(m.omega % 2 == (abs(m.n) == 1) for m in ledger.moves)


@dataclass(frozen=True)
class KikuchiResult:
    applicable: bool
    reason: str = ""
    omega_squared: int = None  # required value of w^2 when applicable
    admissible: tuple = ()


def kikuchi_eliminate(ledger: FourManifoldLedger) -> KikuchiResult:
    """Solve the characteristic-sphere constraint xi.xi = sigma(M) for w;
    returns the admissible positive integers (usually none).

    Applies only to closed manifolds with b2^+ <= 3 and b2^- <= 3 whose
    class is characteristic for odd w; anything else is reported as
    inapplicable rather than silently treated as an elimination.
    """
    if ledger.b2_plus > 3 or ledger.b2_minus > 3:
        return KikuchiResult(False, reason=(
            f"b2+={ledger.b2_plus}, b2-={ledger.b2_minus} exceed 3"))
    if not characteristic_check(ledger):
        return KikuchiResult(False, reason="class not characteristic for odd w")
    need = ledger.xi_constant - ledger.sigma_m
    if need < 0:
        return KikuchiResult(True, omega_squared=need, admissible=())
    r = isqrt(need)
    admissible = (r,) if r * r == need and r > 0 else ()
    return KikuchiResult(True, omega_squared=need, admissible=admissible)


def gilmer_viro_check(ledger: FourManifoldLedger, genus: int, d: int,
                      sigma_d: int, omega: int) -> bool:
    """Exact rational evaluation of the bounded-genus obstruction

        | 2[d/2](d-[d/2])/d^2 * xi.xi - sigma(M) - sigma_d | <= dim H2 + 2g

    at w = omega, for a class divisible by the prime d: d must divide
    omega (the leading move's coefficient) and each (n, v)-move's v, since
    d | v implies d | (n/2)v.  dim H2 is taken with Z_d coefficients,
    which for these summands equals b2^+ + b2^-.  FourManifoldLedger(())
    is the single (1, w)-move.
    """
    for c in (omega, *(m.omega for m in ledger.moves)):
        if c % d != 0:
            raise ValueError(f"class coefficient {c} is not divisible by d={d}")
    xi2 = ledger.xi_constant - omega * omega
    a = d // 2
    lhs = abs(Fraction(2 * a * (d - a) * xi2, d * d) - ledger.sigma_m - sigma_d)
    dim_h2 = ledger.b2_plus + ledger.b2_minus
    return lhs <= dim_h2 + 2 * genus


# ---------------------------------------------------------------------------
# sequence DSL
# ---------------------------------------------------------------------------

_KNOT_RE = re.compile(r"T\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")
_START_RE = re.compile(r"start\s+(.*)")
_TWIST_RE = re.compile(r"twist\s+n\s*=\s*(-?\d+)\s+w\s*=\s*(\d+)\s*->\s*(.*)")
_IDENT_RE = re.compile(r"identify\s+(.*)")
_END_RE = re.compile(r"end\s+unknot")


def _parse_knot(text, line):
    m = _KNOT_RE.fullmatch(text.strip())
    if not m:
        raise SequenceSyntaxError(f"expected T(p,q), got {text.strip()!r}",
                                  line, column=1)
    try:
        return TorusKnotParams(int(m.group(1)), int(m.group(2)))
    except InvalidKnotError as e:
        raise SequenceSemanticError(str(e), line)


def parse_sequence(text: str) -> TwistSequence:
    """Parse and validate a twist-sequence document."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body))
    if not lines:
        raise SequenceSyntaxError("empty sequence", 1)

    lineno, body = lines[0]
    m = _START_RE.fullmatch(body)
    if not m:
        raise SequenceSyntaxError("sequence must begin with 'start T(p,q)'",
                                  lineno)
    start = _parse_knot(m.group(1), lineno)

    steps = []
    step_lines = []
    saw_end = False
    for lineno, body in lines[1:]:
        if saw_end:
            raise SequenceSyntaxError("content after 'end unknot'", lineno)
        if _END_RE.fullmatch(body):
            saw_end = True
            continue
        m = _TWIST_RE.fullmatch(body)
        if m:
            try:
                move = TwistMove(int(m.group(1)), int(m.group(2)))
            except UnsupportedTwistError as e:
                raise SequenceSemanticError(str(e), lineno)
            steps.append(TwistStep(move, _parse_knot(m.group(3), lineno)))
            step_lines.append(lineno)
            continue
        m = _IDENT_RE.fullmatch(body)
        if m:
            steps.append(IdentifyStep(_parse_knot(m.group(1), lineno)))
            step_lines.append(lineno)
            continue
        kw = body.split()[0]
        raise SequenceSyntaxError(f"unrecognized directive {kw!r}", lineno)
    if not saw_end:
        raise SequenceSyntaxError("missing final 'end unknot'",
                                  lines[-1][0])

    seq = TwistSequence(start, tuple(steps))
    err = _first_step_error(seq)
    if err:
        idx, msg = err
        line = step_lines[idx] if idx < len(step_lines) else lines[-1][0]
        raise SequenceSemanticError(msg, line)
    return seq


def serialize_sequence(seq: TwistSequence) -> str:
    """Canonical text form; parse_sequence(serialize_sequence(s)) == s."""
    out = [f"start {seq.start}"]
    for step in seq.steps:
        if isinstance(step, TwistStep):
            out.append(f"twist n={step.move.n} w={step.move.omega} -> "
                       f"{step.result}")
        else:
            out.append(f"identify {step.params}")
    out.append("end unknot")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# built-in proof templates
# ---------------------------------------------------------------------------


def _twist(cur, n, omega):
    move = TwistMove(n, omega)
    return TwistStep(move, apply_full_strand_twist(cur, move))


def template_sequences(k: TorusKnotParams):
    """Built-in untwisting chains for a normalized non-exceptional T(p,q).

    Emits at most one of:
      * even-gap: q = p + r with even r and p = 2nr +- 1, reducing through
        T(r, p) to T(r, +-1);
      * gap4 (p = 8n+3): through T(4, p) and T(4,3) = T(3,4) to T(3,1);
      * gap4 (p = 8n+5): through T(4, p) and T(4,5) = T(5,4) to T(5,-1);
      * double-step: q = 2p +- 2, two full-strand reductions to T(p, +-2),
        then an even twist on two strands to T(2, +-1).
    Returns an empty list when no chain applies.

    Each chain forces an odd omega^2 = C - sigma(M), where xi.xi = -w^2 + C:
      * even-gap: +CP^2 (p) and S^2 x S^2 (r, nr) give C = p^2 + 2nr^2 and
        sigma(M) = 0, and p = 2nr +- 1 is odd;
      * gap4: +CP^2 (p), S^2 x S^2 (4, 4n) and +CP^2 (t), t = 3 or 5, give
        C = p^2 + 32n + t^2 and sigma(M) = 1, with p and t odd;
      * double-step: +CP^2 (p) twice and S^2 x S^2 (2, -n) give
        C = 2p^2 - 4n and sigma(M) = 1.
    So an admissible w is never even; classify checks this.  The chains
    are not validated here: ledger_from_sequence validates each one.
    """
    if not k.is_normalized or k.is_trivial or is_exceptional(k):
        return []
    p, q = k.p, k.q
    out = []

    r = q - p
    if r >= 2 and r % 2 == 0:
        n = None
        if (p - 1) % (2 * r) == 0 and (p - 1) // (2 * r) >= 1:
            n = (p - 1) // (2 * r)
        elif (p + 1) % (2 * r) == 0 and (p + 1) // (2 * r) >= 1:
            n = (p + 1) // (2 * r)
        if n is not None:
            s1 = _twist(k, -1, p)                      # -> T(p, r)
            ident = IdentifyStep(TorusKnotParams(r, p))
            s2 = _twist(ident.params, -2 * n, r)       # -> T(r, +-1)
            out.append(TwistSequence(k, (s1, ident, s2),
                                     label=f"even-gap r={r} n={n}"))

    if r == 4 and p % 8 in (3, 5) and not out:
        n = (p - (p % 8)) // 8
        if n >= 1:
            s1 = _twist(k, -1, p)                      # -> T(p, 4)
            i1 = IdentifyStep(TorusKnotParams(4, p))
            s2 = _twist(i1.params, -2 * n, 4)          # -> T(4, p-8n)
            tail = s2.result.q                         # 3 or 5
            i2 = IdentifyStep(TorusKnotParams(tail, 4))
            s3 = _twist(i2.params, -1, tail)           # -> T(tail, 4-tail)
            out.append(TwistSequence(k, (s1, i1, s2, i2, s3),
                                     label=f"gap4 p=8n+{p % 8} n={n}"))

    if abs(q - 2 * p) == 2 and p >= 5 and not out:
        s1 = _twist(k, -1, p)                          # -> T(p, q-p)
        s2 = _twist(s1.result, -1, p)                  # -> T(p, +-2)
        two_q = -p if s2.result.q < 0 else p
        ident = IdentifyStep(TorusKnotParams(2, two_q))
        # choose the even twist count that lands on T(2, +-1)
        target = ident.params.q
        cands = [(1 - target) // 2, (-1 - target) // 2]
        n_even = next(n for n in cands if n % 2 == 0)
        s3 = _twist(ident.params, n_even, 2)
        out.append(TwistSequence(k, (s1, s2, ident, s3),
                                 label=f"double-step n={n_even}"))
    return out
