"""The twist-sequence file format.

Untwisting chains are plain text, one move per line, validated move by
move: full-strand twists must match the parameter arithmetic
q -> q + n*p, identifications must agree after normalization, and the
chain must land on the unknot.  Serialization is canonical, so files
round-trip byte for byte.
"""

from pathlib import Path

from torustwist import (SequenceSemanticError, ledger_from_sequence,
                        parse_sequence, serialize_sequence)

path = Path(__file__).parent / "t58_untwist.seq"
text = path.read_text()
print(text)

seq = parse_sequence(text)
assert serialize_sequence(seq) == text
print(f"parsed {len(seq.steps)} steps; round-trip is byte-identical")

led = ledger_from_sequence(seq)
print(f"ledger with the hypothesized (1,w)-move prepended: "
      f"sigma(M)={led.sigma_m}, b2+={led.b2_plus}, b2-={led.b2_minus}, "
      f"xi.xi = -w^2 + {led.xi_constant}")

print()
print("A wrong step is rejected with the offending line:")
try:
    parse_sequence(text.replace("T(5,3)", "T(5,4)"))
except SequenceSemanticError as e:
    print(f"  {e}")
