"""
Triple products and certificates of non-formality
=================================================

When two brackets of cocycles are exact, a secondary operation appears:
choose primitives, combine them with the third input, and read the
class of the result.  The class is only well defined modulo an
indeterminacy subspace; a class that stays nonzero modulo that subspace
is an obstruction to formality.  This demo computes one essential
triple product, one that is zero modulo its indeterminacy, and runs the
scanning certifier on two instances.
"""

from gradedlie import (
    compute_splitting, detect_nonformality, massey_triple,
)
from gradedlie.corpus import standard_corpus

corpus = dict(standard_corpus())

# ---------------------------------------------------------------------------
# An essential triple product.  [x, x] = dp is exact, so the triple
# power of x is defined; its value is a nonzero multiple of z and the
# indeterminacy is zero, so the instance cannot be formal.
# ---------------------------------------------------------------------------
Q = corpus["nocontraction"]
s = compute_splitting(Q.algebra)
product = massey_triple(Q.algebra, s, "x", "x", "x")
print(product.describe())
print("  primitives:", [repr(v) for v in product.primitives])
print("  essential:", product.nonzero_mod_indeterminacy())

# ---------------------------------------------------------------------------
# A defined-but-inconclusive one: the value lands inside the
# indeterminacy subspace, so it proves nothing.
# ---------------------------------------------------------------------------
W = corpus["weighted-pair"]
sw = compute_splitting(W.algebra)
product = massey_triple(W.algebra, sw, "x1", "x1", "x1")
print("\n" + product.describe())
print("  indeterminacy spanned by:",
      [repr(v) for v in product.indeterminacy])
print("  essential:", product.nonzero_mod_indeterminacy())

# Some triples are simply not defined: here the inner bracket
# [x1, x2] survives in cohomology, so there is no primitive to choose.
print("\n<x1, x2, x1> defined:",
      massey_triple(W.algebra, sw, "x1", "x2", "x1") is not None)

# ---------------------------------------------------------------------------
# The scanning certifier walks the triples of representatives (diagonal
# ones first), skips those that cannot certify, and returns the first
# essential certificate.
# ---------------------------------------------------------------------------
certificate = detect_nonformality(Q.algebra, s)
print("\nscan of the first instance:")
print("  " + certificate.describe())

print("\nscan of the weighted pair (a formal instance):")
print("  certificate:", detect_nonformality(W.algebra, sw))

# The same machinery works in other pairing degrees: this instance
# carries a degree-3 pairing and is certified non-formal by the triple
# power of its degree-1 generator.
D3 = corpus["noformal-degree3"]
s3 = compute_splitting(D3.algebra)
print("\nscan of the degree-3 instance:")
print("  " + detect_nonformality(D3.algebra, s3).describe())
