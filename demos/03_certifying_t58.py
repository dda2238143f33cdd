"""Certifying that T(5,8) cannot be produced from the unknot by one twist.

A single (n,w)-twist producing a non-exceptional T(p,q) forces n = 1 and
puts w through three filters: a genus bound, a parity bound, and an exact
divisibility constraint at every prime dividing w.  Odd w that survive are
then run against an untwisting chain: T(5,8) unwinds to the unknot through
two full-strand twists and one even two-strand twist, and the closed
4-manifold that chain builds supports a characteristic sphere only if
w^2 = 41.  No integer squares to 41, so nothing survives.
"""

from torustwist import (TorusKnotParams, classify, kikuchi_eliminate,
                        ledger_from_sequence, serialize_sequence,
                        template_sequences)
from torustwist.obstruction import certificate_to_text

k = TorusKnotParams(5, 8)

print("The built-in untwisting chain:")
seq = template_sequences(k)[0]
print(serialize_sequence(seq))

led = ledger_from_sequence(seq)
print(f"ledger: sigma(M) = {led.sigma_m}, b2+ = {led.b2_plus}, "
      f"b2- = {led.b2_minus}, xi.xi = -w^2 + {led.xi_constant}")
res = kikuchi_eliminate(led)
print(f"characteristic sphere needs w^2 = {res.omega_squared}; "
      f"admissible integers: {list(res.admissible) or 'none'}")

print()
print("Full certificate:")
print(certificate_to_text(classify(k)))
