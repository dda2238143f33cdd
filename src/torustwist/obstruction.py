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
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from math import isqrt
from operator import not_
from typing import NamedTuple

from .core import TorusKnotParams, is_exceptional, normalize
from .errors import DomainError, InternalCheckError
from .fourmanifold import (kikuchi_eliminate, ledger_from_sequence,
                           serialize_sequence, template_sequences)
# classify does not call prime_divisors; it is imported so that
# perfbench/spans.py, which traces obstruction.prime_divisors by name, finds it
from .tristram import prime_divisors, sigma_d, sigma_d_sweep  # noqa: F401

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

# The largest normalized q that classify accepts.  classify keeps the genus
# tail as a range, but a rendered certificate lists every candidate omega
# in [2, q - 1]: the tracemalloc peak of classify + certificate_to_json is
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


def reason_iv(d: int) -> str:
    return f"condition-iv(d={d})"


@dataclass(frozen=True)
class CandidateTwist:
    n: int
    omega: int


class Elimination(NamedTuple):
    omega: int
    reason: str


@dataclass(frozen=True)
class Eliminations:
    """A certificate's eliminations: classify's sieve list `reasons`, a
    tuple indexed by w <= genus cutoff whose slot holds the reason w is
    eliminated (a shared string, so one reference per w), or None for w < 2
    and for survivors; then one genus-bound item for each w in `tail`, kept
    as range(cutoff + 1, q) instead of as O(q) items.  Iteration and len
    are those of the tuple of Elimination(w, reason) items, in ascending w.
    """

    reasons: tuple = ()
    tail: range = range(0)

    def explicit(self):
        """The (w, reason) pairs of the slots that hold a reason."""
        return compress(enumerate(self.reasons), self.reasons)

    def __len__(self):
        return len(self.reasons) - self.reasons.count(None) + len(self.tail)

    def __iter__(self):
        # tuple.__new__ builds the items without a Python-level __new__
        # call each
        return map(tuple.__new__, repeat(Elimination), chain(
            self.explicit(), zip(self.tail, repeat(REASON_GENUS))))


@dataclass(frozen=True)
class TemplateReport:
    label: str
    sequence: str
    sigma_m: int
    b2_plus: int
    b2_minus: int
    xi_constant: int          # xi.xi = -w^2 + xi_constant
    applicable: bool
    omega_squared: int = None  # required w^2 when applicable
    admissible: tuple = ()
    note: str = ""


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
    2[d/2](d-[d/2])w^2/d^2 must equal -sigma_d or 2 - sigma_d.

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
    if omega % d != 0:
        raise DomainError(f"d={d} does not divide omega={omega}")
    if sigma_value is None:
        sigma_value = sigma_d(TorusKnotParams(p, q), d)
    return abs(omega) // d in condition_iv_multipliers(d, sigma_value)


def classify(k: TorusKnotParams) -> ObstructionCertificate:
    """Decide TrivialOrExceptional / NotInT / Undecided for one knot.

    Every sigma_d comes from one tristram.sigma_d_sweep over the primes up
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

    # Condition (iv) for every w in [2, top] at once, as a sieve over the
    # primes d <= top.  A w is eliminated at the smallest prime d | w that
    # fails, and at each d at most two multiples of d pass; so the primes
    # run in descending order, each marks all its multiples as failing and
    # gives the passing ones their earlier mark back, and the smallest
    # failing d writes last.  sigma_inputs holds sigma_d for every prime d
    # that divides some w checked: each odd prime d <= top (at w = d), and
    # 2 only if some even w lies above p, since condition (iii) alone
    # eliminates the even w <= p.
    top = genus_cutoff(p, q)
    sigma_inputs = sigma_d_sweep(nk, top, 2 if top // 2 > p // 2 else 3)
    reasons = [None] * (top + 1)
    for d in reversed(sigma_inputs):
        kept = [(d * k, reasons[d * k])
                for k in condition_iv_multipliers(d, sigma_inputs[d])
                if 0 < d * k <= top]
        reasons[d::d] = [reason_iv(d)] * (top // d)
        for w, r in kept:
            reasons[w] = r
    # condition (iii): even w <= p (< top), whatever condition (iv) says
    reasons[2:p + 1:2] = [REASON_III] * (p // 2)
    alive = [w for w in range(2, top + 1) if reasons[w] is None]

    template_reports = []
    for seq in template_sequences(nk):
        ledger = ledger_from_sequence(seq)
        res = kikuchi_eliminate(ledger)
        template_reports.append(TemplateReport(
            label=seq.label, sequence=serialize_sequence(seq),
            sigma_m=ledger.sigma_m, b2_plus=ledger.b2_plus,
            b2_minus=ledger.b2_minus,
            xi_constant=ledger.xi_constant,
            applicable=res.applicable, omega_squared=res.omega_squared,
            admissible=res.admissible, note=res.reason))
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
        allowed = set(res.admissible)
        for w in alive:
            if w % 2 == 1 and w not in allowed:
                reasons[w] = REASON_KIKUCHI
        alive = [w for w in alive if reasons[w] is None]

    eliminations = Eliminations(tuple(reasons), range(top + 1, q))
    survivors = tuple(CandidateTwist(1, w) for w in alive)
    # every w in [2, q-1] once, read from the certificate: a reason or a
    # survivor in [2, top] (none for w < 2), and (top, q) as the genus tail
    slots = eliminations.reasons
    empty = list(compress(range(top + 1), map(not_, slots)))
    if (len(slots) != top + 1 or empty != [0, 1, *alive]
            or eliminations.tail != range(top + 1, q)):
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


# the genus tail is rendered in blocks of TAIL_BLOCK consecutive w (a power
# of ten) that share their leading digits
TAIL_BLOCK = 100
_BLOCK_DIGITS = len(str(TAIL_BLOCK - 1))


def _tail_parts(tail: range, sep: str) -> list:
    """sep.join(map(str, tail)) as a list of parts, for the caller's join.

    Every w in [B*c, B*c + B - 1], B = TAIL_BLOCK and c >= 1, is str(c)
    followed by the zero-padded w - B*c, so the text of such a block, each
    w followed by sep, is one str(c).join of fixed pieces; only the w at
    the two ends of tail that fill no whole block are written one by one.
    """
    lo, hi = tail.start, tail.stop - 1   # the last w takes no sep
    if tail.step != 1 or hi < lo:
        raise InternalCheckError(f"genus tail {tail} is not a nonempty run")
    # the whole blocks are c in [first, last); the block of hi is not whole
    # for this purpose, since hi takes no sep
    first = max(-(-lo // TAIL_BLOCK), 1)
    last = hi // TAIL_BLOCK
    if first >= last:
        return [*(f"{w}{sep}" for w in range(lo, hi)), str(hi)]
    pieces = ["", *(f"{r:0{_BLOCK_DIGITS}d}{sep}" for r in range(TAIL_BLOCK))]
    return [*(f"{w}{sep}" for w in range(lo, first * TAIL_BLOCK)),
            *map(str.join, map(str, range(first, last)), repeat(pieces)),
            *(f"{w}{sep}" for w in range(last * TAIL_BLOCK, hi)), str(hi)]


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
        elims = cert.eliminations
        out.extend(f"  omega={w}: {r}\n" for w, r in elims.explicit())
        if elims.tail:
            out.append("  omega=")
            out += _tail_parts(elims.tail, f": {REASON_GENUS}\n  omega=")
            out.append(f": {REASON_GENUS}\n")
        out.append("survivors:\n")
        out.extend(f"  (n={s.n}, omega={s.omega})\n" for s in cert.survivors)
        out.append("sigma-inputs:\n")
        out.extend(f"  sigma_{d}({cert.normalized}) = {v}\n"
                   for d, v in sorted(cert.sigma_inputs.items()))
        out.append("templates:\n")
        for t in cert.templates:
            adm = ",".join(str(a) for a in t.admissible) or "none"
            if t.applicable:
                detail = f"omega^2 = {t.omega_squared}; admissible: {adm}"
            else:
                detail = f"inapplicable ({t.note})"
            out.append(f"  {t.label}: sigma(M)={t.sigma_m} "
                       f"b2+={t.b2_plus} b2-={t.b2_minus} "
                       f"xi.xi=-omega^2+{t.xi_constant}; {detail}\n")
    out.extend(f"note: {n}\n" for n in cert.notes)
    # one join, so that the O(q) tail text is copied once
    return "".join(out)


def _fields_around_lists(cert: ObstructionCertificate):
    """The certificate's JSON fields before "eliminations" and after
    "sigma_inputs"."""
    head = {
        "schema": SCHEMA,
        "knot": [cert.knot.p, cert.knot.q],
        "normalized": [cert.normalized.p, cert.normalized.q],
        "mirror": cert.mirror,
        "trivial": cert.trivial,
        "exceptional": cert.exceptional,
        "sigma_method": SIGMA_METHOD,
        "verdict": cert.verdict,
    }
    tail = {
        "templates": [{
            "label": t.label, "sigma_m": t.sigma_m, "b2_plus": t.b2_plus,
            "b2_minus": t.b2_minus, "xi_constant": t.xi_constant,
            "applicable": t.applicable, "omega_squared": t.omega_squared,
            "admissible": list(t.admissible), "note": t.note,
            "sequence": t.sequence,
        } for t in cert.templates],
        "notes": list(cert.notes),
    }
    return head, tail


def certificate_to_dict(cert: ObstructionCertificate) -> dict:
    """The certificate as plain JSON data; json.dumps of it with indent=2 is
    the reference that certificate_to_json is tested against."""
    head, tail = _fields_around_lists(cert)
    return {**head,
            "eliminations": [[e.omega, e.reason] for e in cert.eliminations],
            "survivors": [[s.n, s.omega] for s in cert.survivors],
            "sigma_inputs": {str(d): v for d, v in
                             sorted(cert.sigma_inputs.items())},
            **tail}


def _json_block(items: list, brackets: str) -> str:
    """A JSON array or object ("[]" or "{}") one level into the
    certificate, as json.dumps(indent=2) writes it, from its items' text."""
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n  {brackets[1]}"


def certificate_to_json(cert: ObstructionCertificate, extra: dict = None) -> str:
    """json.dumps(certificate_to_dict(cert) | extra, indent=2) + "\n".

    indent=2 runs the pure Python encoder, so the integer lists and the
    sigma_inputs object are written from one template per item instead.
    The eliminations list every w in [2, q-1]: each distinct reason is
    encoded once by the string encoder that json.dumps(str) itself calls,
    and the genus tail is written in decimal blocks (_tail_parts).
    """
    head, tail = _fields_around_lists(cert)
    if extra:
        tail.update(extra)
    elims = cert.eliminations
    encoded = {r: encode_basestring_ascii(r) for r in
               {*filter(None, elims.reasons), REASON_GENUS}}
    genus = encoded[REASON_GENUS]
    array = [",\n".join([f"    [\n      {w},\n      {encoded[r]}\n    ]"
                         for w, r in elims.explicit()])]
    if elims.tail:
        # the text between two tail w: the end of one item, the start of
        # the next
        sep = f",\n      {genus}\n    ],\n    [\n      "
        array += [",\n" if array[0] else "", "    [\n      ",
                  *_tail_parts(elims.tail, sep), f",\n      {genus}\n    ]"]
    survivors = _json_block([f"    [\n      {s.n},\n      {s.omega}\n    ]"
                             for s in cert.survivors], "[]")
    sigma_inputs = _json_block([f'    "{d}": {v}' for d, v in
                                sorted(cert.sigma_inputs.items())], "{}")
    # splice the lists between the two objects (drop head's "\n}" and
    # tail's "{\n") in one join, so that the O(q) tail text is copied once
    return "".join([json.dumps(head, indent=2)[:-2], ',\n  "eliminations": ',
                    "[\n" if elims else "[", *array, "\n  ]" if elims else "]",
                    ',\n  "survivors": ', survivors,
                    ',\n  "sigma_inputs": ', sigma_inputs,
                    ",\n", json.dumps(tail, indent=2)[2:], "\n"])
