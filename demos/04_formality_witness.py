"""
Constructive formality: building and verifying a witness
=========================================================

For a quasi-cyclic algebra of pairing degree 2 satisfying the right
hypotheses (non-negative cohomology, closed degree-0 part, an invariant
and orthogonal splitting), formality can be *witnessed*: an explicit
L-infinity morphism from the transferred minimal structure to the
cohomology Lie algebra, with coefficients solved exactly from the
pairing.  The witness is then handed to an independent checker that
knows nothing about how it was built.  This demo walks the pipeline on
a formal instance and shows how a non-formal one is turned away.
"""

from gradedlie import (
    build_formality_witness, compute_splitting, formality_verdict,
    normalize_splitting, validate_pairing, verify_witness,
)
from gradedlie.corpus import standard_corpus

corpus = dict(standard_corpus())

# ---------------------------------------------------------------------------
# A formal instance with a genuinely non-identity witness.
# ---------------------------------------------------------------------------
Q = corpus["weighted-pair"]

# Step 1: check the hypotheses, once.  The pairing must be quasi-cyclic;
# the normalization checks that the splitting is invariant under its
# degree-0 representatives and re-fits the complement to be
# pairing-orthogonal to the representatives, verifying the result.
s = compute_splitting(Q.algebra)
pairing = validate_pairing(Q, s)
normalized = normalize_splitting(Q, s)
sn = normalized.splitting

# Step 2: build the witness up to arity 6 on that evidence.  The builder
# takes the pairing report and the normalization instead of re-checking
# them, asserts only the identities that neither step 1 nor the check in
# step 3 covers, and solves one linear system per tuple of degree-1
# classes -- each with a unique solution, or it refuses.
witness = build_formality_witness(normalized, pairing, 6)
print("witness verified up to arity:", witness.verified_up_to)
print("\nnon-identity coefficients:")
for arity, table in sorted(witness.taylor.items()):
    if arity == 1:
        continue
    for key, value in sorted(table.entries()):
        labels = ", ".join(sn.h_space.labels[i] for i in key)
        print(f"  f_{arity}({labels}) = {value!r}")

print("\nconstruction log:")
for line in witness.report:
    print("  -", line)

# Step 3: independent verification.  The checker re-expands the
# generic L-infinity morphism identities on every basis tuple of the
# minimal model the witness was built on; it never sees the pairing or
# the recursion that produced the coefficients.
T = witness.transfer
violations = verify_witness(witness, T)
print("\nindependent checker violations:", violations)

# ---------------------------------------------------------------------------
# formality_verdict runs the whole pipeline: pairing check, scope,
# normalization (with the search for an invariant splitting), witness,
# independent check.  A non-formal instance is rejected before any
# witness is attempted: no splitting invariant under the degree-0 action
# exists, and the rejection carries the obstruction.  The certificate
# scan then shows that the rejection is no false negative -- the
# instance carries an essential triple product.
# ---------------------------------------------------------------------------
nonformal = corpus["nocontraction"]
s = compute_splitting(nonformal.algebra)
h0 = [v for v in s.h_vectors if v.degree() == 0]
verdict = formality_verdict(nonformal, s, h0, 4)
print("\nverdict:", verdict.status)
print("rejected:", verdict.rejection.message)
print("obstruction:", verdict.rejection.obstruction.describe())
print(verdict.certificate.describe())
