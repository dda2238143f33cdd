"""Twist-sequence ledgers: 4-manifold bookkeeping for chains of twists.

A sequence of twists starting and ending at the unknot glues, move by move,
into a closed 4-manifold containing a sphere built from two disks and one
annulus per move.  Each (+-1, w)-move contributes a punctured -(+-1)CP^2
whose annulus carries homology class w times the generator; each (2n, w)-
move contributes a punctured S^2 x S^2 with class (w, -n*w) against the
standard hyperbolic generators.  The ledger accumulates the signature,
b2^+, b2^-, and the self-intersection of the total class, with the
hypothesized first move's w kept symbolic.

When b2^+ <= 3, b2^- <= 3 and the class is characteristic (all CP^2
coefficients odd, all S^2 x S^2 coefficients even), a characteristic sphere
forces xi.xi = sigma(M); solving that for the symbolic w eliminates odd
candidates wholesale.  The Gilmer-Viro inequality check is the open-manifold
counterpart used for single moves.

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

from .core import TorusKnotParams, TwistMove, apply_full_strand_twist, normalize
from .errors import (InvalidKnotError, SequenceSemanticError,
                     SequenceSyntaxError, UnsupportedTwistError)

MINUS_CP2 = "minusCP2"
PLUS_CP2 = "plusCP2"
S2XS2 = "S2xS2"


@dataclass(frozen=True)
class LinCoef:
    """Integer-linear expression m*w + c in the symbolic twist width w."""

    m: int
    c: int

    def at(self, w: int) -> int:
        return self.m * w + self.c

    def parity(self, omega_parity: str) -> int:
        bit = 1 if omega_parity == "odd" else 0
        return (self.m * bit + self.c) % 2

    def __str__(self):
        if self.m == 0:
            return str(self.c)
        head = "w" if self.m == 1 else f"{self.m}w"
        return head if self.c == 0 else f"{head}{self.c:+d}"


@dataclass(frozen=True)
class Summand:
    kind: str
    coeffs: tuple  # one LinCoef for +-CP^2, a pair for S^2 x S^2

    @property
    def sigma(self) -> int:
        return {MINUS_CP2: -1, PLUS_CP2: 1, S2XS2: 0}[self.kind]

    @property
    def b2(self):
        return {MINUS_CP2: (0, 1), PLUS_CP2: (1, 0), S2XS2: (1, 1)}[self.kind]

    def self_intersection(self):
        """Self-intersection of the carried class as (c0, c1, c2) in powers
        of w: -a^2 on -CP^2, +a^2 on +CP^2, 2bc on S^2 x S^2."""
        if self.kind == S2XS2:
            a, b = self.coeffs
            s = 2
        else:
            a = b = self.coeffs[0]
            s = -1 if self.kind == MINUS_CP2 else 1
        return (s * a.c * b.c, s * (a.m * b.c + a.c * b.m), s * a.m * b.m)


@dataclass(frozen=True)
class FourManifoldLedger:
    summands: tuple

    @property
    def sigma_m(self) -> int:
        return sum(s.sigma for s in self.summands)

    @property
    def b2_plus(self) -> int:
        return sum(s.b2[0] for s in self.summands)

    @property
    def b2_minus(self) -> int:
        return sum(s.b2[1] for s in self.summands)

    @property
    def xi_self_intersection(self):
        """(c0, c1, c2): xi.xi = c0 + c1*w + c2*w^2."""
        c0 = c1 = c2 = 0
        for s in self.summands:
            a, b, c = s.self_intersection()
            c0 += a
            c1 += b
            c2 += c
        return (c0, c1, c2)

    def all_coefficients(self):
        for s in self.summands:
            yield from ((s.kind, c) for c in s.coeffs)


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
    def final(self) -> TorusKnotParams:
        if not self.steps:
            return self.start
        last = self.steps[-1]
        return last.result if isinstance(last, TwistStep) else last.params

    @property
    def moves(self):
        return tuple(s.move for s in self.steps if isinstance(s, TwistStep))


def _step_errors(seq: TwistSequence):
    """Yield (step_index, message) for every invalid step."""
    cur = seq.start
    for idx, step in enumerate(seq.steps):
        if isinstance(step, TwistStep):
            move = step.move
            if abs(move.n) != 1 and move.n % 2 != 0:
                yield idx, (f"twist {move}: odd twist counts beyond 1 carry "
                            "no homological summand")
                return
            if move.omega != abs(cur.p):
                yield idx, (f"twist {move} on {cur}: only full-strand steps "
                            f"(w = {abs(cur.p)}) can be validated")
                return
            expected = apply_full_strand_twist(cur, move)
            if step.result != expected:
                yield idx, (f"twist {move} on {cur}: expected {expected}, "
                            f"got {step.result}")
                return
            cur = step.result
        else:
            want = normalize(cur)
            got = normalize(step.params)
            if want != got:
                yield idx, (f"identify {step.params}: {cur} normalizes to "
                            f"{want[0]}"
                            f"{' (mirror)' if want[1] else ''}, not to "
                            f"{got[0]}{' (mirror)' if got[1] else ''}")
                return
            cur = step.params
    if not cur.is_trivial:
        yield len(seq.steps), f"sequence ends at {cur}, not at the unknot"


def validate_sequence(seq: TwistSequence):
    """Raise SequenceSemanticError on the first invalid step."""
    for _, msg in _step_errors(seq):
        raise SequenceSemanticError(msg)


def ledger_from_sequence(seq: TwistSequence, symbolic_omega: bool = True
                         ) -> FourManifoldLedger:
    """Accumulate the 4-manifold ledger of a validated sequence.

    With symbolic_omega the hypothesized (1, w)-move from the unknot to
    seq.start is prepended with w symbolic; otherwise the sequence itself
    must start at the unknot.
    """
    validate_sequence(seq)
    if not symbolic_omega and not seq.start.is_trivial:
        raise SequenceSemanticError(
            f"sequence starts at {seq.start}, not at the unknot")
    summands = []
    if symbolic_omega:
        summands.append(Summand(MINUS_CP2, (LinCoef(1, 0),)))
    for move in seq.moves:
        if abs(move.n) == 1:
            kind = MINUS_CP2 if move.n == 1 else PLUS_CP2
            summands.append(Summand(kind, (LinCoef(0, move.omega),)))
        elif move.n % 2 == 0:
            half = move.n // 2
            summands.append(Summand(S2XS2, (LinCoef(0, move.omega),
                                            LinCoef(0, -half * move.omega))))
        else:
            raise UnsupportedTwistError(f"move {move} has no summand")
    return FourManifoldLedger(tuple(summands))


def characteristic_check(ledger: FourManifoldLedger, omega_parity: str) -> bool:
    """Characteristic condition for the accumulated class: odd coefficients
    on every +-CP^2 generator, even pairs on every S^2 x S^2."""
    if omega_parity not in ("odd", "even"):
        raise ValueError("omega_parity must be 'odd' or 'even'")
    for kind, coef in ledger.all_coefficients():
        want = 1 if kind in (MINUS_CP2, PLUS_CP2) else 0
        if coef.parity(omega_parity) != want:
            return False
    return True


@dataclass(frozen=True)
class KikuchiResult:
    applicable: bool
    reason: str = ""
    omega_squared: int = None  # required value of w^2 when applicable
    admissible: tuple = ()


def kikuchi_eliminate(ledger: FourManifoldLedger) -> KikuchiResult:
    """Solve the characteristic-sphere constraint xi.xi = sigma(M) for the
    symbolic w; returns the admissible positive integers (usually none).

    Applies only to closed manifolds with b2^+ <= 3 and b2^- <= 3 whose
    class is characteristic for odd w; anything else is reported as
    inapplicable rather than silently treated as an elimination.
    """
    if ledger.b2_plus > 3 or ledger.b2_minus > 3:
        return KikuchiResult(False, reason=(
            f"b2+={ledger.b2_plus}, b2-={ledger.b2_minus} exceed 3"))
    if not characteristic_check(ledger, "odd"):
        return KikuchiResult(False, reason="class not characteristic for odd w")
    c0, c1, c2 = ledger.xi_self_intersection
    if (c1, c2) != (0, -1):
        raise ValueError(f"ledger xi.xi = ({c0},{c1},{c2}) is not -w^2 + C")
    need = c0 - ledger.sigma_m
    if need < 0:
        return KikuchiResult(True, omega_squared=need, admissible=())
    r = isqrt(need)
    admissible = (r,) if r * r == need and r > 0 else ()
    return KikuchiResult(True, omega_squared=need, admissible=admissible)


def gilmer_viro_check(ledger, genus: int, d: int, sigma_d: int, omega: int) -> bool:
    """Exact rational evaluation of the bounded-genus obstruction

        | 2[d/2](d-[d/2])/d^2 * xi.xi - sigma(M) - sigma_d | <= dim H2 + 2g

    for a class divisible by the prime d.  dim H2 is taken with Z_d
    coefficients, which for these summands equals b2^+ + b2^-.
    """
    if isinstance(ledger, Summand):
        ledger = FourManifoldLedger((ledger,))
    for _, coef in ledger.all_coefficients():
        if coef.at(omega) % d != 0:
            raise ValueError(
                f"class coefficient {coef.at(omega)} is not divisible by d={d}")
    c0, c1, c2 = ledger.xi_self_intersection
    xi2 = c0 + c1 * omega + c2 * omega * omega
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
    for idx, msg in _step_errors(seq):
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
    So an admissible w is never even; classify checks this.
    """
    from .core import is_exceptional

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

    for seq in out:
        validate_sequence(seq)
    return out
