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
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from math import isqrt
from operator import attrgetter
from typing import NamedTuple

from .core import TorusKnotParams, is_exceptional, normalize
from .errors import DomainError, InternalCheckError, UndecidedSignError
from .fourmanifold import (kikuchi_eliminate, ledger_from_sequence,
                           serialize_sequence, template_sequences)
from .tristram import prime_divisors, sigma_d, smallest_prime_factors

SCHEMA = "torustwist-certificate/1"

TRIVIAL_OR_EXCEPTIONAL = "TrivialOrExceptional"
NOT_IN_T = "NotInT"
UNDECIDED = "Undecided"

REASON_GENUS = "genus-bound"
REASON_III = "condition-iii"
REASON_KIKUCHI = "kikuchi-no-square"
# never emitted: no template forces an even omega^2 (see template_sequences)
REASON_PARITY = "characteristic-parity"

# The largest normalized q that classify accepts.  classify keeps the genus
# tail as a range, but a rendered certificate lists every candidate omega
# in [2, q - 1]: the tracemalloc peak of classify + certificate_to_json is
# about 110 bytes per omega (116 MB for T(7, 2^20 - 1)), and with
# certificate_to_text about 90, so one certificate stays near 120 MB at
# most; a larger q is rejected with DomainError (CLI exit code 2) before
# anything is allocated.
MAX_Q = 2 ** 20


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
class Eliminations(Sequence):
    """A certificate's eliminations: the `explicit` items, then one
    genus-bound item for each w in the range `tail`.

    Every w above the genus cutoff is a genus-bound elimination, so
    classify keeps that part of [2, q-1] as range(cutoff + 1, q) instead of
    as O(q) items.  Iteration, len, indexing, slicing (to a tuple), ==,
    hash and repr are those of the tuple explicit + tail items.
    """

    explicit: tuple = ()
    tail: range = range(0)

    def __len__(self):
        return len(self.explicit) + len(self.tail)

    def __iter__(self):
        # tuple.__new__ builds the tail's items without a Python-level
        # __new__ call each
        return chain(self.explicit, map(tuple.__new__, repeat(Elimination),
                                        zip(self.tail, repeat(REASON_GENUS))))

    def __getitem__(self, index):
        # range does the tuple's index checks and slice arithmetic
        at = range(len(self))[index]
        if isinstance(at, range):
            return tuple(map(self.__getitem__, at))
        k = len(self.explicit)
        if at < k:
            return self.explicit[at]
        return Elimination(self.tail[at - k], REASON_GENUS)

    def __eq__(self, other):
        if not isinstance(other, (tuple, Eliminations)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


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
    sigma_method: str
    eliminations: Eliminations = ()
    survivors: tuple = ()
    sigma_inputs: dict = field(default_factory=dict)
    templates: tuple = ()
    notes: tuple = ()

    def __post_init__(self):
        # a plain tuple of items is the all-explicit form
        if not isinstance(self.eliminations, Eliminations):
            self.eliminations = Eliminations(tuple(self.eliminations))


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


def condition_iv_check(p: int, q: int, omega: int, d: int,
                       sigma_value: int = None, method: str = "auto") -> bool:
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
    a = d // 2
    num = 2 * a * (d - a) * omega * omega
    if num % (d * d) != 0:
        raise InternalCheckError(f"d^2={d * d} does not divide {num}")
    lhs = num // (d * d)
    if sigma_value is None:
        sigma_value = sigma_d(TorusKnotParams(p, q), d, method=method)
    return lhs == -sigma_value or lhs == 2 - sigma_value


def classify(k: TorusKnotParams, sigma_method: str = "auto",
             precision_cap: int = None, prime_cap: int = None,
             use_templates: bool = True) -> ObstructionCertificate:
    """Decide TrivialOrExceptional / NotInT / Undecided for one knot.

    sigma_method "auto" uses the integer counting fast path for the
    d-signatures (cross-validated against the certified Hermitian route by
    the test suite); "hermitian" forces the certified route.  prime_cap, if
    set, skips divisibility checks at primes above the cap: affected
    candidates are kept as survivors, never eliminated, so the verdict stays
    sound.
    """
    nk, mirror = normalize(k)
    if nk.q > MAX_Q:
        raise DomainError(f"{k}: normalized q = {nk.q} exceeds MAX_Q = {MAX_Q}")
    notes = []
    if mirror:
        notes.append("input is the mirror of the normalized knot; the "
                     "analysis applies to the normalized form")
    trivial = nk.is_trivial
    exceptional = False if trivial else is_exceptional(nk)
    base = dict(knot=k, normalized=nk, mirror=mirror, trivial=trivial,
                exceptional=exceptional, sigma_method=sigma_method)
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

    sigma_inputs = {}

    def sd(d):
        if d not in sigma_inputs:
            sigma_inputs[d] = sigma_d(nk, d, method=sigma_method,
                                      precision_cap=precision_cap)
        return sigma_inputs[d]

    top = genus_cutoff(p, q)
    spf = smallest_prime_factors(top + 1)
    reasons = {}
    alive = []
    for w in range(2, top + 1):
        if w % 2 == 0 and w <= p:
            reasons[w] = REASON_III
            continue
        failed = None
        capped = False
        for d in prime_divisors(w, spf):
            if prime_cap is not None and d > prime_cap:
                capped = True
                continue
            try:
                ok = condition_iv_check(p, q, w, d, sigma_value=sd(d))
            except UndecidedSignError:
                notes.append(f"sigma_{d}({nk}) undecided at the precision "
                             f"cap; omega={w} kept as a survivor")
                capped = True
                continue
            if not ok:
                failed = d
                break
        if failed is not None:
            reasons[w] = reason_iv(failed)
        else:
            if capped:
                notes.append(f"omega={w}: some prime divisors exceeded the "
                             f"prime cap and were not checked")
            alive.append(w)

    template_reports = []
    if use_templates:
        for seq in template_sequences(nk):
            ledger = ledger_from_sequence(seq, symbolic_omega=True)
            res = kikuchi_eliminate(ledger)
            template_reports.append(TemplateReport(
                label=seq.label, sequence=serialize_sequence(seq),
                sigma_m=ledger.sigma_m, b2_plus=ledger.b2_plus,
                b2_minus=ledger.b2_minus,
                xi_constant=ledger.xi_self_intersection[0],
                applicable=res.applicable, omega_squared=res.omega_squared,
                admissible=res.admissible, note=res.reason))
            if not res.applicable:
                continue
            if res.omega_squared % 2 == 0:
                raise InternalCheckError(
                    f"template {seq.label} for {nk} forces an even "
                    f"omega^2 = {res.omega_squared}")
            allowed = set(res.admissible)
            for w in [w for w in alive if w % 2 == 1]:
                if w not in allowed:
                    reasons[w] = REASON_KIKUCHI
                    alive.remove(w)

    eliminations = Eliminations(
        tuple(Elimination(w, reasons[w]) for w in sorted(reasons)),
        range(top + 1, q))
    survivors = tuple(CandidateTwist(1, w) for w in alive)
    omegas = sorted([*map(attrgetter("omega"), eliminations.explicit),
                     *map(attrgetter("omega"), survivors)])
    # every w in [2, q-1] once: [2, top] explicitly or as a survivor, and
    # (top, q) as the genus tail
    if (omegas != list(range(2, top + 1))
            or eliminations.tail != range(top + 1, q)):
        raise InternalCheckError(f"candidate partition broken for {nk}")
    verdict = NOT_IN_T if not survivors else UNDECIDED
    return ObstructionCertificate(
        verdict=verdict, eliminations=eliminations,
        survivors=survivors, sigma_inputs=sigma_inputs,
        templates=tuple(template_reports), notes=tuple(notes), **base)


def survivors_p_plus_2(p: int, sigma_method: str = "auto"):
    """Surviving candidates for T(p, p+2), odd p >= 5."""
    if p < 5 or p % 2 == 0:
        raise DomainError(f"p={p}: need odd p >= 5")
    return list(classify(TorusKnotParams(p, p + 2),
                         sigma_method=sigma_method).survivors)


def survivors_p_plus_4(p: int, sigma_method: str = "auto"):
    """Surviving candidates for T(p, p+4), odd p = 5,7 (mod 8), p >= 7."""
    if p < 7 or p % 8 not in (5, 7):
        raise DomainError(f"p={p}: need p = 5 or 7 (mod 8), p >= 7")
    return list(classify(TorusKnotParams(p, p + 4),
                         sigma_method=sigma_method).survivors)


# ---------------------------------------------------------------------------
# certificate serialization
# ---------------------------------------------------------------------------


def certificate_to_text(cert: ObstructionCertificate) -> str:
    """Stable plain-text rendering (fixed field order, golden-file safe)."""
    out = [SCHEMA,
           f"knot: {cert.knot}",
           f"normalized: {cert.normalized}",
           f"mirror: {str(cert.mirror).lower()}",
           f"trivial: {str(cert.trivial).lower()}",
           f"exceptional: {str(cert.exceptional).lower()}",
           f"sigma-method: {cert.sigma_method}",
           f"verdict: {cert.verdict}"]
    if cert.verdict != TRIVIAL_OR_EXCEPTIONAL:
        q = cert.normalized.q
        out.append(f"candidates: omega in [2,{q - 1}] with n=1 "
                   "(omega <= 1 cannot change the knot type)")
        out.append("eliminated:")
        elims = cert.eliminations
        out.extend(f"  omega={w}: {r}" for w, r in elims.explicit)
        if elims.tail:
            sep = f": {REASON_GENUS}\n  omega="
            out.append(f"  omega={sep.join(map(str, elims.tail))}: "
                       f"{REASON_GENUS}")
        out.append("survivors:")
        out.extend(f"  (n={s.n}, omega={s.omega})" for s in cert.survivors)
        out.append("sigma-inputs:")
        out.extend(f"  sigma_{d}({cert.normalized}) = {v}"
                   for d, v in sorted(cert.sigma_inputs.items()))
        out.append("templates:")
        for t in cert.templates:
            adm = ",".join(str(a) for a in t.admissible) or "none"
            if t.applicable:
                detail = f"omega^2 = {t.omega_squared}; admissible: {adm}"
            else:
                detail = f"inapplicable ({t.note})"
            out.append(f"  {t.label}: sigma(M)={t.sigma_m} "
                       f"b2+={t.b2_plus} b2-={t.b2_minus} "
                       f"xi.xi=-omega^2+{t.xi_constant}; {detail}")
    for n in cert.notes:
        out.append(f"note: {n}")
    return "\n".join(out) + "\n"


def _fields_around_eliminations(cert: ObstructionCertificate):
    """The certificate's JSON fields before and after "eliminations"."""
    head = {
        "schema": SCHEMA,
        "knot": [cert.knot.p, cert.knot.q],
        "normalized": [cert.normalized.p, cert.normalized.q],
        "mirror": cert.mirror,
        "trivial": cert.trivial,
        "exceptional": cert.exceptional,
        "sigma_method": cert.sigma_method,
        "verdict": cert.verdict,
    }
    tail = {
        "survivors": [[s.n, s.omega] for s in cert.survivors],
        "sigma_inputs": {str(d): v for d, v in sorted(cert.sigma_inputs.items())},
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
    head, tail = _fields_around_eliminations(cert)
    return {**head,
            "eliminations": [[e.omega, e.reason] for e in cert.eliminations],
            **tail}


def certificate_to_json(cert: ObstructionCertificate, extra: dict = None) -> str:
    """json.dumps(certificate_to_dict(cert) | extra, indent=2) + "\n".

    The eliminations list every w in [2, q-1], and indent=2 runs the pure
    Python encoder, so that array is written from one template per
    explicit item instead, with each distinct reason encoded once, and the
    genus tail from one join of its w.
    """
    head, tail = _fields_around_eliminations(cert)
    if extra:
        tail.update(extra)
    elims = cert.eliminations
    encoded = {r: json.dumps(r) for r in
               {*map(attrgetter("reason"), elims.explicit), REASON_GENUS}}
    genus = encoded[REASON_GENUS]
    array = [",\n".join([f"    [\n      {w},\n      {encoded[r]}\n    ]"
                         for w, r in elims.explicit])]
    if elims.tail:
        # the text between two tail w: the end of one item, the start of
        # the next
        sep = f",\n      {genus}\n    ],\n    [\n      "
        array += [",\n" if elims.explicit else "", "    [\n      ",
                  sep.join(map(str, elims.tail)), f",\n      {genus}\n    ]"]
    # splice the array between the two objects (drop head's "\n}" and
    # tail's "{\n") in one join, so that the O(q) tail text is copied once
    return "".join([json.dumps(head, indent=2)[:-2], ',\n  "eliminations": ',
                    "[\n" if elims else "[", *array, "\n  ]" if elims else "]",
                    ",\n", json.dumps(tail, indent=2)[2:], "\n"])
