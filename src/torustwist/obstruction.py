"""Candidate filter and top-level classifier for single-twist untying.

A non-exceptional T(p,q) with 0 < p < q that arises from the unknot by one
(n, w)-twist must have n = 1, and w is constrained by:

  * genus bound: (w-1)(w-2) <= (p-1)(q-1), which forces w < q;
  * parity bound: even w satisfy w > p;
  * divisibility: for every prime d | w,
        2[d/2](d-[d/2])/d^2 * w^2 = -sigma_d(T(p,q)) or 2 - sigma_d(T(p,q));
  * for odd w, the characteristic-sphere constraint of any applicable
    untwisting chain (see fourmanifold.kikuchi_eliminate).

The classifier accounts for every w in [2, q-1] (w <= 1 cannot change the
knot type) and emits a machine-checkable certificate.  The genus bound
keeps exactly the w up to a cutoff of about sqrt(pq), so the other filters
run, in the order above, only below it, and every w above it is a
genus-bound elimination, kept in the certificate as one range.
Exceptional and trivial knots are in the single-twist class by
construction and are reported as such; for everything else the verdict is
NotInT when no candidate survives, otherwise Undecided with the surviving
candidates listed.  Membership is never claimed for a non-exceptional
knot.
"""

import json
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, cycle, islice, repeat
from json.encoder import encode_basestring_ascii
from math import isqrt
from typing import NamedTuple

from .core import TorusKnotParams, is_exceptional, normalize
from .errors import DomainError, InternalCheckError
from .fourmanifold import (kikuchi_eliminate, ledger_from_sequence,
                           serialize_sequence, template_sequences)
from .lattice import (PRIME_TABLE, PRIME_TABLE_BOUND, _require_prime,
                      prime_divisors, primes_upto, sigma_d, sigma_d_sweep)

SCHEMA = "torustwist-certificate/1"
# the schema's name for the one sigma_d route, the counting kernel; every
# certificate carries it
SIGMA_METHOD = "auto"

TRIVIAL_OR_EXCEPTIONAL = "TrivialOrExceptional"
NOT_IN_T = "NotInT"
UNDECIDED = "Undecided"

REASON_GENUS = "genus-bound"
REASON_III = "condition-iii"
REASON_KIKUCHI = "kikuchi-no-square"

# The largest normalized q that classify accepts.  classify keeps no item
# per omega (Eliminations: a pattern, its few exceptions and the genus tail
# as a range), but a rendered certificate lists every candidate omega in
# [2, q - 1]: the tracemalloc peak of classify + certificate_to_json is
# about 95 bytes per omega (100 MB for T(7, 2^20 - 1), twice the 47 bytes
# per omega of the text it returns), and with certificate_to_text about 57,
# so one certificate stays near 100 MB at most (test_max_q_memory_bound
# holds them to 100 and 60); a larger q is rejected with DomainError (CLI
# exit code 2) before anything is allocated.
MAX_Q = 2 ** 20


def check_max_q(k: TorusKnotParams, nk: TorusKnotParams):
    """Raise DomainError if k's normal form nk has q above MAX_Q."""
    if nk.q > MAX_Q:
        raise DomainError(f"{k}: normalized q = {nk.q} exceeds MAX_Q = {MAX_Q}")


# the reason of condition (iv) at each prime of lattice.PRIME_TABLE, built
# once at import, so that every certificate shares one string per prime
_REASON_IV = {d: f"condition-iv(d={d})" for d in PRIME_TABLE}


def reason_iv(d: int) -> str:
    """The reason of an elimination by condition (iv) at the prime d: the
    shared string of _REASON_IV, or a new one above the prime table."""
    return _REASON_IV.get(d) or f"condition-iv(d={d})"


def _smallest_factor_reasons(top: int) -> list:
    """The list indexed by w <= top whose slot holds reason_iv of the
    smallest prime factor of w, or None for w < 2: the primes d <= top, in
    descending order, each write their reason over all their multiples, so
    the smallest prime factor of each w writes last."""
    reasons = [None] * (top + 1)
    for d in reversed(PRIME_TABLE if top <= PRIME_TABLE_BOUND
                      else primes_upto(top)):
        reasons[d::d] = [reason_iv(d)] * (top // d)
    return reasons


# the smallest-factor reasons up to PRIME_TABLE_BOUND, built once at import:
# Eliminations.reasons starts the slots of any genus cutoff within the bound
# from a slice of it, and the renderers pre-render it (_PATTERN_TEXTS)
_SMALLEST_FACTOR_REASONS = tuple(_smallest_factor_reasons(PRIME_TABLE_BOUND))


@dataclass(frozen=True)
class CandidateTwist:
    n: int
    omega: int


class Elimination(NamedTuple):
    omega: int
    reason: str


@dataclass(frozen=True)
class Eliminations:
    """A certificate's eliminations, with no item stored per w.  Every w in
    [2, top], top the genus cutoff, follows one pattern: REASON_III for an
    even w <= p, and otherwise the condition (iv) reason of its smallest
    prime factor (the shared string of _REASON_IV within the prime table).
    `exceptions` is the ascending tuple of (w, reason) pairs for the w whose
    reason is not the pattern's, with None for a survivor.  Then one
    genus-bound item for each w in `tail`, kept as range(top + 1, q).
    Iteration and len (so truth) are those of the tuple of
    Elimination(w, reason) items, in ascending w.
    """

    top: int = 1
    p: int = 0
    exceptions: tuple = ()
    tail: range = range(0)

    def reasons(self) -> list:
        """The slots indexed by w <= top: w's reason, or None for w < 2 and
        for survivors.  O(top), with a sieve up to a top above the table."""
        top = self.top
        reasons = (list(_SMALLEST_FACTOR_REASONS[:top + 1])
                   if top <= PRIME_TABLE_BOUND
                   else _smallest_factor_reasons(top))
        reasons[2:self.p + 1:2] = [REASON_III] * (min(self.p, top) // 2)
        for w, r in self.exceptions:
            reasons[w] = r
        return reasons

    def __len__(self):
        return (self.top - 1 + len(self.tail)
                - sum(r is None for _, r in self.exceptions))

    def __iter__(self):
        # the slots that hold a reason, then the tail; tuple.__new__ builds
        # the items without a Python-level __new__ call each
        reasons = self.reasons()
        return map(tuple.__new__, repeat(Elimination), chain(
            compress(enumerate(reasons), reasons),
            zip(self.tail, repeat(REASON_GENUS))))


@dataclass(frozen=True)
class TemplateReport:
    """One built-in chain's ledger and the w it admits.  classify raises
    InternalCheckError on an inapplicable chain, so every report is of an
    applicable one."""
    label: str
    sequence: str
    sigma_m: int
    b2_plus: int
    b2_minus: int
    xi_constant: int          # xi.xi = -w^2 + xi_constant
    omega_squared: int        # the w^2 the chain requires
    admissible: tuple


@dataclass
class ObstructionCertificate:
    knot: TorusKnotParams
    normalized: TorusKnotParams
    mirror: bool
    trivial: bool
    exceptional: bool
    verdict: str
    eliminations: Eliminations = Eliminations()
    survivors: tuple = ()
    sigma_inputs: dict = field(default_factory=dict)
    templates: tuple = ()
    notes: tuple = ()


def thom_bound_check(p: int, q: int, omega: int) -> bool:
    """True iff (w-1)(w-2) <= (p-1)(q-1), the genus bound a single-twist
    candidate must satisfy."""
    if not 0 < p < q:
        raise DomainError(f"need 0 < p < q, got ({p},{q})")
    return (omega - 1) * (omega - 2) <= (p - 1) * (q - 1)


def genus_cutoff(p: int, q: int) -> int:
    """The largest w with (w-1)(w-2) <= (p-1)(q-1).  (w-1)(w-2) grows with
    w >= 2, so the genus bound keeps exactly the w in [2, cutoff]."""
    top = (3 + isqrt(1 + 4 * (p - 1) * (q - 1))) // 2
    if not thom_bound_check(p, q, top) or thom_bound_check(p, q, top + 1):
        raise InternalCheckError(f"genus cutoff {top} is off for ({p},{q})")
    return top


def condition_iv_multipliers(d: int, sigma_value: int) -> list:
    """The k >= 0, ascending, for which w = dk passes condition (iv) at the
    prime d, given sigma_d: with w = dk the exact integer
    2[d/2](d-[d/2])w^2/d^2 is 2[d/2](d-[d/2])k^2, so k^2 is one of
    -sigma_d and 2 - sigma_d divided by 2[d/2](d-[d/2]).  There are at
    most two such k, so every other multiple of d fails."""
    a = d // 2
    c = 2 * a * (d - a)
    out = []
    for lhs in (-sigma_value, 2 - sigma_value):
        if lhs >= 0 and lhs % c == 0:
            k = isqrt(lhs // c)
            if k * k * c == lhs:
                out.append(k)
    return out


def condition_iv_check(p: int, q: int, omega: int, d: int,
                       sigma_value: int = None) -> bool:
    """Divisibility constraint at the prime d | w: the exact integer
    2[d/2](d-[d/2])w^2/d^2 must equal -sigma_d or 2 - sigma_d.  DomainError
    unless d is a prime dividing omega, also when sigma_value is given.

    Derivation (condition (iv) is the Gilmer-Viro inequality, Gilmer,
    "Configurations of surfaces in 4-manifolds", Trans. AMS 1981):

      * n = 1 is -1 surgery on the twisting circle c, so its trace is a
        punctured -CP^2 with sigma = -1 and dim H2 = 1.  The unknot's disk
        plus the product annulus is a genus-0 disk in it bounded by
        T(p,q), in the class xi = w * gamma (lk(K, c) = w, gamma.gamma = -1),
        so xi.xi = -w^2.
      * Positive torus knots have negative signature (sigma_d < 0 for
        nontrivial T(p,q), 0 < p < q); sigma_d is read in that orientation.
      * Gilmer-Viro at a prime d | xi, with L = 2[d/2](d-[d/2])w^2/d^2:
            | -L - (-1) - sigma_d | <= dim H2 + 2g = 1,
        i.e. L lies in {-sigma_d, 1 - sigma_d, 2 - sigma_d}.  L and sigma_d
        are both even, so L is in the two-valued set {-sigma_d, 2 - sigma_d}.

    Under the other sign and orientation choices the check still needs
    |L| within 2 of |sigma_d|.  This convention is the one every known
    realization satisfies: T(m, m+1) arises from a twist with w = m or
    m + 1, and passes at every prime d | w (pinned by the test suite),
    while the set {-sigma_d, -2 - sigma_d} rejects 132 of the 263 cases
    with 2 <= m < 80.
    """
    _require_prime(d)
    if omega % d != 0:
        raise DomainError(f"d={d} does not divide omega={omega}")
    if sigma_value is None:
        sigma_value = sigma_d(TorusKnotParams(p, q), d)
    return abs(omega) // d in condition_iv_multipliers(d, sigma_value)


def classify(k: TorusKnotParams) -> ObstructionCertificate:
    """Decide TrivialOrExceptional / NotInT / Undecided for one knot.

    Every sigma_d comes from one lattice.sigma_d_sweep over the primes up
    to the genus cutoff: the integer window count at each, which the test
    suite cross-validates against the certified Hermitian route; the
    certificate records it as sigma_method SIGMA_METHOD.
    """
    nk, mirror = normalize(k)
    check_max_q(k, nk)
    notes = []
    if mirror:
        notes.append("input is the mirror of the normalized knot; the "
                     "analysis applies to the normalized form")
    trivial = nk.is_trivial
    exceptional = False if trivial else is_exceptional(nk)
    base = dict(knot=k, normalized=nk, mirror=mirror, trivial=trivial,
                exceptional=exceptional)
    if trivial or exceptional:
        notes.append("a full-strand twist on the unknot realizes this knot")
        return ObstructionCertificate(verdict=TRIVIAL_OR_EXCEPTIONAL,
                                      notes=tuple(notes), **base)

    p, q = nk.p, nk.q
    if p < 5 or q < p + 2:
        raise InternalCheckError(f"{nk} is neither trivial nor exceptional "
                                 f"but has p < 5 or q < p + 2")
    if thom_bound_check(p, q, q):
        raise InternalCheckError(f"genus bound fails to exclude w=q for {nk}")

    # Condition (iv) for every w in [2, top] at once.  A w is eliminated at
    # the smallest prime d | w that fails, and at each d at most two
    # multiples of d pass (condition_iv_multipliers), so nearly every w
    # follows the pattern of Eliminations.  Only a w that passes at its
    # smallest prime factor, odd or above p (so not condition (iii)'s), is
    # an exception: the reason of its smallest prime factor at which it
    # fails, or None if it passes at all of them.  The multiples w = dk,
    # k <= n = [top/d], have 2a(d-a)k^2 <= 2a(d-a)n^2, a = [d/2], so when
    # -sigma_d exceeds that bound none passes: most primes are settled by
    # that one comparison, without solving for k.  sigma_inputs holds
    # sigma_d for every prime d that divides some w checked: each odd prime
    # d <= top (at w = d), and 2 only if some even w lies above p, since
    # condition (iii) alone eliminates the even w <= p.
    top = genus_cutoff(p, q)
    sigma_inputs = sigma_d_sweep(nk, top, 2 if top // 2 > p // 2 else 3)
    passing = {}   # w -> the primes d | w at which w passes
    for d, s in sigma_inputs.items():
        a, n = d // 2, top // d
        if -s <= 2 * a * (d - a) * n * n:
            for k in condition_iv_multipliers(d, s):
                if 0 < k <= n:
                    passing.setdefault(d * k, []).append(d)
    exceptions = {}   # w -> its reason, or None for a survivor
    for w, passed in passing.items():
        if w % 2 or w > p:
            divisors = prime_divisors(w)
            if divisors[0] in passed:
                exceptions[w] = next((reason_iv(d) for d in divisors
                                      if d not in passed), None)
    alive = sorted(w for w, r in exceptions.items() if r is None)

    template_reports = []
    for seq in template_sequences(nk):
        ledger = ledger_from_sequence(seq)
        res = kikuchi_eliminate(ledger)
        # Every built-in chain is applicable and forces an odd omega^2 (see
        # template_sequences): b2^+ <= 3 and b2^- = 2 in all three
        # families, every +-CP^2 move has odd v (p or t), and every even
        # move has even v (r, 4 or 2).
        if not res.applicable:
            raise InternalCheckError(
                f"template {seq.label} for {nk} is inapplicable: {res.reason}")
        if res.omega_squared % 2 == 0:
            raise InternalCheckError(
                f"template {seq.label} for {nk} forces an even "
                f"omega^2 = {res.omega_squared}")
        template_reports.append(TemplateReport(
            label=seq.label, sequence=serialize_sequence(seq),
            sigma_m=ledger.sigma_m, b2_plus=ledger.b2_plus,
            b2_minus=ledger.b2_minus,
            xi_constant=ledger.xi_constant, omega_squared=res.omega_squared,
            admissible=res.admissible))
        allowed = set(res.admissible)
        for w in alive:
            if w % 2 == 1 and w not in allowed:
                exceptions[w] = REASON_KIKUCHI
        alive = [w for w in alive if exceptions[w] is None]

    eliminations = Eliminations(top, p, tuple(sorted(exceptions.items())),
                                range(top + 1, q))
    survivors = tuple(CandidateTwist(1, w) for w in alive)
    # every w in [2, q-1] once, read from the certificate: the pattern in
    # [2, top] but for ascending exceptions there, none its pattern reason,
    # whose None are the survivors; and (top, q) as the genus tail
    e = eliminations
    ws = [w for w, _ in e.exceptions]
    if ((e.top, e.p, e.tail) != (top, p, range(top + 1, q))
            or ws != sorted(set(ws)) or any(not 2 <= w <= top for w in ws)
            or any(r == (REASON_III if w % 2 == 0 and w <= p
                         else reason_iv(prime_divisors(w)[0]))
                   for w, r in e.exceptions)
            or [w for w, r in e.exceptions if r is None] != alive):
        raise InternalCheckError(f"candidate partition broken for {nk}")
    verdict = NOT_IN_T if not survivors else UNDECIDED
    return ObstructionCertificate(
        verdict=verdict, eliminations=eliminations,
        survivors=survivors, sigma_inputs=sigma_inputs,
        templates=tuple(template_reports), notes=tuple(notes), **base)


def survivors_p_plus_2(p: int):
    """Surviving candidates for T(p, p+2), odd p >= 5."""
    if p < 5 or p % 2 == 0:
        raise DomainError(f"p={p}: need odd p >= 5")
    return list(classify(TorusKnotParams(p, p + 2)).survivors)


def survivors_p_plus_4(p: int):
    """Surviving candidates for T(p, p+4), odd p = 5,7 (mod 8), p >= 7."""
    if p < 7 or p % 8 not in (5, 7):
        raise DomainError(f"p={p}: need p = 5 or 7 (mod 8), p >= 7")
    return list(classify(TorusKnotParams(p, p + 4)).survivors)


# ---------------------------------------------------------------------------
# certificate serialization
# ---------------------------------------------------------------------------


# every w is rendered from decimal blocks of TAIL_BLOCK consecutive w (a
# power of ten) that share their leading digits
TAIL_BLOCK = 100
_BLOCK_DIGITS = len(str(TAIL_BLOCK - 1))
# the low digits of each w in a block, built once: zero-padded after the
# first block, and str(r) in the first, whose leading digits are "" (the
# ones that need no padding are the same strings)
_LOW_PADDED = [f"{r:0{_BLOCK_DIGITS}d}" for r in range(TAIL_BLOCK)]
_LOW_FIRST = [low if low[0] != "0" else str(r)
              for r, low in enumerate(_LOW_PADDED)]


# The text that follows an eliminated w, up to the next w, in the text and
# the JSON rendering; the last one of a list loses its lead-in to a next w.
_TEXT_LEAD = "  omega="
_JSON_LEAD = ",\n    [\n      "


def _text_label(reason: str) -> str:
    return f": {reason}\n{_TEXT_LEAD}"


def _json_label(reason: str) -> str:
    # the string encoder that json.dumps(str) itself calls
    return f",\n      {encode_basestring_ascii(reason)}\n    ]{_JSON_LEAD}"


# the head fields' fixed strings, encoded once
_JSON_SCHEMA = encode_basestring_ascii(SCHEMA)
_JSON_SIGMA_METHOD = encode_basestring_ascii(SIGMA_METHOD)
# each renderer's fixed pieces of one whole block of the genus tail, built
# once: "", then every zero-padded r < TAIL_BLOCK followed by the label of
# the genus bound
_BLOCK_PIECES = {label: ["", *(f"{low}{label(REASON_GENUS)}"
                               for low in _LOW_PADDED)]
                 for label in (_text_label, _json_label)}
# each renderer's label of every reason classify writes below a cutoff
# within the prime table, built once, keyed like _BLOCK_PIECES
_LABELS = {label: {r: label(r) for r in (REASON_III, REASON_KIKUCHI,
                                         *_REASON_IV.values())}
           for label in (_text_label, _json_label)}


def _slot_parts(reasons, label, start: int = 0) -> list:
    """Every w >= start whose slot in `reasons` holds a reason, ascending,
    each followed by label(reason), as a list of parts for the caller's
    join.

    A w in block c = w // TAIL_BLOCK is str(c) ("" for c = 0) followed by
    its low digits (_LOW_FIRST in block 0, _LOW_PADDED after it), so each
    such w takes three shared parts: its block's leading digits, its low
    digits and its reason's label.  The labels come from _LABELS; only a
    reason missing there (condition (iv) above the prime table) has its
    label built, once per distinct reason.  compress picks the parts out
    of streams indexed by w from the start of start's block, so no string
    is built per w.
    """
    base = start - start % TAIL_BLOCK
    slots = [*repeat(None, start - base), *islice(reasons, start, None)]
    labels = _LABELS[label]
    try:
        slot_labels = list(map(labels.__getitem__, filter(None, slots)))
    except KeyError:
        labels = {r: labels.get(r) or label(r) for r in set(slots) if r}
        slot_labels = list(map(labels.__getitem__, filter(None, slots)))
    blocks = [*map(str, range(base // TAIL_BLOCK,
                              len(reasons) // TAIL_BLOCK + 1))]
    low = _LOW_PADDED
    if not base:
        blocks[0], low = "", _LOW_FIRST
    parts = [None] * (3 * len(slot_labels))
    parts[0::3] = compress(chain.from_iterable(
        map(repeat, blocks, repeat(TAIL_BLOCK))), slots)
    parts[1::3] = compress(chain(low, cycle(_LOW_PADDED)), slots)
    parts[2::3] = slot_labels
    return parts


def _pattern_tables() -> tuple:
    """The Eliminations pattern up to PRIME_TABLE_BOUND as two slot lists,
    split at p: the smallest-factor reasons, and the same with REASON_III
    on every even w.  Returns, for each, the prefix sums of its reason
    lengths (entry w sums the slots 2..w-1); and for each renderer's label,
    len(label("")) and the _slot_parts text of each list."""
    even = Eliminations(PRIME_TABLE_BOUND, PRIME_TABLE_BOUND).reasons()
    patterns = (_SMALLEST_FACTOR_REASONS, even)
    sums = tuple(array("q", [0, 0, *accumulate(map(len, r[2:]), initial=0)])
                 for r in patterns)
    texts = {label: (len(label("")),
                     *("".join(_slot_parts(r, label)) for r in patterns))
             for label in (_text_label, _json_label)}
    return sums, texts


_PATTERN_SUMS, _PATTERN_TEXTS = _pattern_tables()


def _offset(sums, w: int, fixed: int) -> int:
    """Where w starts in a pattern's text, w >= 2: the digits of 2..w-1, in
    closed form, their reasons (sums[w]), and the fixed part of each of
    their labels, label(r) = fixed + r for every reason of the patterns."""
    digits = len(str(w - 1))
    return (w * digits - (10 ** digits - 1) // 9 - 1 + sums[w]
            + (w - 2) * fixed)


def _explicit_parts(elims: Eliminations, label) -> list:
    """Every w <= elims.top that holds a reason, ascending, each followed
    by label(reason), as a list of parts for the caller's join.

    Up to PRIME_TABLE_BOUND, every stretch of slots between two exceptions
    follows the pattern, split at p: one slice of the renderer's
    pre-rendered text of the list with REASON_III below the split, then
    one of the list without it (_PATTERN_TEXTS), each cut at _offset.  An
    exception there is written on its own, and nearly every certificate
    has none.  The slots above the bound are built by elims.reasons() and
    written by _slot_parts.
    """
    top = elims.top
    within = min(top, PRIME_TABLE_BOUND)
    # the pattern's slots below cut are those of the list with (iii)
    cut = max(min(elims.p, within) + 1, 2)
    first_sums, even_sums = _PATTERN_SUMS
    fixed, first_text, even_text = _PATTERN_TEXTS[label]
    labels = _LABELS[label]
    parts = []
    lo = 2   # the first slot not yet written
    for w, r in chain([e for e in elims.exceptions if e[0] <= within],
                      [(within + 1, None)]):
        mid = min(max(lo, cut), w)
        if lo < mid:
            parts.append(even_text[_offset(even_sums, lo, fixed):
                                   _offset(even_sums, mid, fixed)])
        if mid < w:
            parts.append(first_text[_offset(first_sums, mid, fixed):
                                    _offset(first_sums, w, fixed)])
        if r is not None:
            parts.append(f"{w}{labels.get(r) or label(r)}")
        lo = w + 1
    if top > within:
        parts += _slot_parts(elims.reasons(), label, within + 1)
    return parts


def _add_eliminations(out: list, elims: Eliminations, label, lead: str):
    """Append to out every w of elims, ascending, each followed by
    label(reason), and strip the lead-in to a next w off the last part.
    elims is nonempty, and the caller has written the first w's lead-in.

    The slots below the genus cutoff come from _explicit_parts.  Every w of
    the genus tail in [B*c, B*c + B - 1], B = TAIL_BLOCK and c >= 1, is
    str(c) followed by its zero-padded low digits, as there; but every tail
    w has the same label, so the text of a whole block is one str(c).join
    of the label's fixed pieces (_BLOCK_PIECES), one part per block instead
    of three per w.  Only the w at the two ends of the tail that fill no
    whole block are written one by one.
    """
    out += _explicit_parts(elims, label)
    start, stop = elims.tail.start, elims.tail.stop
    sep = label(REASON_GENUS)
    # the whole blocks are c in [first, last), none if the tail has none;
    # the tail starts above the genus cutoff, at w >= 3, so first >= 1
    first = -(-start // TAIL_BLOCK)
    last = max(stop // TAIL_BLOCK, first)
    out += [f"{w}{sep}" for w in range(start, min(first * TAIL_BLOCK, stop))]
    out += map(str.join, map(str, range(first, last)),
               repeat(_BLOCK_PIECES[label]))
    out += [f"{w}{sep}" for w in range(last * TAIL_BLOCK, stop)]
    out[-1] = out[-1].removesuffix(lead)


def certificate_to_text(cert: ObstructionCertificate) -> str:
    """Stable plain-text rendering (fixed field order, golden-file safe)."""
    out = [f"{SCHEMA}\n",
           f"knot: {cert.knot}\n",
           f"normalized: {cert.normalized}\n",
           f"mirror: {str(cert.mirror).lower()}\n",
           f"trivial: {str(cert.trivial).lower()}\n",
           f"exceptional: {str(cert.exceptional).lower()}\n",
           f"sigma-method: {SIGMA_METHOD}\n",
           f"verdict: {cert.verdict}\n"]
    if cert.verdict != TRIVIAL_OR_EXCEPTIONAL:
        q = cert.normalized.q
        out.append(f"candidates: omega in [2,{q - 1}] with n=1 "
                   "(omega <= 1 cannot change the knot type)\n")
        out.append("eliminated:\n")
        if cert.eliminations:
            out.append(_TEXT_LEAD)
            _add_eliminations(out, cert.eliminations, _text_label, _TEXT_LEAD)
        out.append("survivors:\n")
        out.extend(f"  (n={s.n}, omega={s.omega})\n" for s in cert.survivors)
        out.append("sigma-inputs:\n")
        knot = str(cert.normalized)
        out.extend(f"  sigma_{d}({knot}) = {v}\n"
                   for d, v in sorted(cert.sigma_inputs.items()))
        out.append("templates:\n")
        for t in cert.templates:
            adm = ",".join(str(a) for a in t.admissible) or "none"
            out.append(f"  {t.label}: sigma(M)={t.sigma_m} "
                       f"b2+={t.b2_plus} b2-={t.b2_minus} "
                       f"xi.xi=-omega^2+{t.xi_constant}; "
                       f"omega^2 = {t.omega_squared}; admissible: {adm}\n")
    out.extend(f"note: {n}\n" for n in cert.notes)
    # one join, so that the O(q) tail text is copied once
    return "".join(out)


def _fields_after_lists(cert: ObstructionCertificate) -> dict:
    """The certificate's JSON fields after "sigma_inputs".  Every template
    in a certificate is applicable, with no note (see TemplateReport)."""
    return {
        "templates": [{
            "label": t.label, "sigma_m": t.sigma_m, "b2_plus": t.b2_plus,
            "b2_minus": t.b2_minus, "xi_constant": t.xi_constant,
            "applicable": True, "omega_squared": t.omega_squared,
            "admissible": list(t.admissible), "note": "",
            "sequence": t.sequence,
        } for t in cert.templates],
        "notes": list(cert.notes),
    }


def certificate_to_dict(cert: ObstructionCertificate) -> dict:
    """The certificate as plain JSON data; json.dumps of it with indent=2 is
    the reference that certificate_to_json is tested against."""
    return {"schema": SCHEMA,
            "knot": [cert.knot.p, cert.knot.q],
            "normalized": [cert.normalized.p, cert.normalized.q],
            "mirror": cert.mirror,
            "trivial": cert.trivial,
            "exceptional": cert.exceptional,
            "sigma_method": SIGMA_METHOD,
            "verdict": cert.verdict,
            "eliminations": [[e.omega, e.reason] for e in cert.eliminations],
            "survivors": [[s.n, s.omega] for s in cert.survivors],
            "sigma_inputs": {str(d): v for d, v in
                             sorted(cert.sigma_inputs.items())},
            **_fields_after_lists(cert)}


def _json_block(items: list, brackets: str) -> str:
    """A JSON array or object ("[]" or "{}") one level into the
    certificate, as json.dumps(indent=2) writes it, from its items' text."""
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n  {brackets[1]}"


def certificate_to_json(cert: ObstructionCertificate, extra: dict = None) -> str:
    """json.dumps(certificate_to_dict(cert) | extra, indent=2) + "\n".

    indent=2 runs the pure Python encoder, so only the trailing fields
    (templates, notes and extra's) go through json.dumps, as one object
    spliced in.  The head fields are written from one template, and the
    survivors and the sigma_inputs object from one template per item.  The
    eliminations list every w in [2, q-1], written by _add_eliminations
    from decimal blocks with no string built per w, each distinct reason
    encoded once by the string encoder that json.dumps(str) itself calls.
    """
    k, nk = cert.knot, cert.normalized
    out = [f'{{\n  "schema": {_JSON_SCHEMA},\n'
           f'  "knot": [\n    {k.p},\n    {k.q}\n  ],\n'
           f'  "normalized": [\n    {nk.p},\n    {nk.q}\n  ],\n'
           f'  "mirror": {str(cert.mirror).lower()},\n'
           f'  "trivial": {str(cert.trivial).lower()},\n'
           f'  "exceptional": {str(cert.exceptional).lower()},\n'
           f'  "sigma_method": {_JSON_SIGMA_METHOD},\n'
           f'  "verdict": {encode_basestring_ascii(cert.verdict)},\n'
           '  "eliminations": ']
    if cert.eliminations:
        out.append("[\n    [\n      ")
        _add_eliminations(out, cert.eliminations, _json_label, _JSON_LEAD)
        out.append("\n  ]")
    else:
        out.append("[]")
    out += [',\n  "survivors": ',
            _json_block([f"    [\n      {s.n},\n      {s.omega}\n    ]"
                         for s in cert.survivors], "[]"),
            ',\n  "sigma_inputs": ',
            _json_block([f'    "{d}": {v}' for d, v in
                         sorted(cert.sigma_inputs.items())], "{}")]
    fields = _fields_after_lists(cert)
    if extra:
        fields.update(extra)
    # the trailing object without its "{\n", spliced after sigma_inputs
    out += [",\n", json.dumps(fields, indent=2)[2:], "\n"]
    # one join, so that the O(q) tail text is copied once
    return "".join(out)
