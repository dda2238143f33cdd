"""Signature invariants of torus knots and certified single-twist
obstructions.

The library computes the knot signature of T(p,q) three independent ways
(lattice-point enumeration, integer floor-sum closed forms, Seifert matrix
of the positive torus braid), extends it to certified Tristram d-signatures
at prime-indexed evaluation points, and combines those with 4-manifold
twist-sequence ledgers to certify that given torus knots cannot be produced
from the unknot by a single twist.
"""

import importlib

from .core import (TorusKnotParams, TwistMove, apply_full_strand_twist,
                   is_exceptional, normalize)
from .errors import (DomainError, InternalCheckError, InvalidKnotError,
                     NotAKnotError, SequenceSemanticError, SequenceSyntaxError,
                     UndecidedSignError, UnsupportedTwistError)
from .fourmanifold import (FourManifoldLedger, KikuchiResult, TwistSequence,
                           characteristic_check, gilmer_viro_check,
                           kikuchi_eliminate, ledger_from_sequence,
                           parse_sequence, serialize_sequence,
                           template_sequences)
from .lattice import (corollary_bound, sigma_2nr_closed, sigma_closed, sigma_d,
                      sigma_d_counting, sigma_d_sweep, sigma_oracle,
                      sigma_p_plus_4, sigma_p_plus_r)
from .obstruction import (CandidateTwist, ObstructionCertificate,
                          certificate_to_json, certificate_to_text, classify,
                          condition_iv_check, survivors_p_plus_2,
                          survivors_p_plus_4, thom_bound_check)

# the names whose modules need numpy, by module: loaded on first use, so
# that importing the package, and classify, tables and scan, load no numpy
_LAZY = {name: module for module, names in (
    ("certify", ("Inertia",)),
    ("seifert", ("BraidWord", "SeifertForm", "genus_from_form",
                 "seifert_matrix", "torus_braid")),
    ("tristram", ("HermitianForm", "build_form", "inertia",
                  "prop35_bound_check", "tristram_sigma")),
) for name in names}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        module = importlib.import_module(f".{_LAZY[name]}", __name__)
    except ModuleNotFoundError as e:
        # without numpy the certified route is out of reach, which is a
        # bad request (CLI exit 2), not a crash; anything else is a crash
        if e.name != "numpy":
            raise
        raise DomainError(f"{name} needs numpy, which is not "
                          "installed") from e
    return getattr(module, name)


__version__ = "0.1.0"

__all__ = [
    "TorusKnotParams", "TwistMove", "normalize", "is_exceptional",
    "apply_full_strand_twist",
    "sigma_oracle", "sigma_closed", "sigma_p_plus_r", "sigma_2nr_closed",
    "sigma_p_plus_4", "corollary_bound",
    "BraidWord", "SeifertForm", "torus_braid", "seifert_matrix",
    "genus_from_form",
    "HermitianForm", "Inertia", "build_form", "inertia", "tristram_sigma",
    "sigma_d", "sigma_d_counting", "sigma_d_sweep", "prop35_bound_check",
    "FourManifoldLedger", "TwistSequence", "KikuchiResult",
    "ledger_from_sequence", "characteristic_check", "kikuchi_eliminate",
    "gilmer_viro_check", "parse_sequence", "serialize_sequence",
    "template_sequences",
    "CandidateTwist", "ObstructionCertificate", "classify",
    "thom_bound_check", "condition_iv_check", "survivors_p_plus_2",
    "survivors_p_plus_4", "certificate_to_text", "certificate_to_json",
    "InvalidKnotError", "UnsupportedTwistError", "NotAKnotError",
    "DomainError", "UndecidedSignError", "InternalCheckError",
    "SequenceSyntaxError", "SequenceSemanticError",
]
