"""
Building a graded Lie algebra and checking its laws
===================================================

Every structure in this package is exact: coefficients are rationals,
and every algebraic law is either verified or reported as a named,
localized violation.  This demo builds a small differential graded Lie
algebra from a table of structure constants, validates it, breaks it on
purpose, and computes its cohomology.
"""

from fractions import Fraction

from gradedlie import (
    DgLieAlgebra, GradedVectorSpace, LinearMap, MultilinearMap,
    cohomology, compute_splitting, validate_dgla,
)

# ---------------------------------------------------------------------------
# The underlying graded space: a basis with integer degrees.
# ---------------------------------------------------------------------------
space = GradedVectorSpace([("a", 0), ("x", 1), ("y", 1), ("p", 1),
                           ("b", 0), ("db", 1), ("z", 2), ("dp", 2)])
print("basis:", ", ".join(f"{lbl}:{deg}" for lbl, deg
                          in zip(space.labels, space.degrees)))

# The differential is a degree-1 linear map given on generators.
d = LinearMap(space, space, 1, {
    space.index("b"): space.basis_vector("db"),
    space.index("p"): space.basis_vector("dp"),
})

# The bracket is stored on ordered pairs; the graded-skew images are
# filled in automatically.
bracket = MultilinearMap(space, space, 2, 0)
bracket.set_entry(("a", "x"), space.basis_vector("db").scale(-1))
bracket.set_entry(("a", "p"), space.basis_vector("y"))
bracket.set_entry(("x", "x"), space.basis_vector("dp"))
bracket.set_entry(("p", "x"), space.basis_vector("z"))
bracket.set_entry(("b", "x"), space.basis_vector("y"))

A = DgLieAlgebra(space, d, bracket)

# ---------------------------------------------------------------------------
# Validation re-derives d^2 = 0, Leibniz, and Jacobi on every basis
# tuple (graded skewness is structural: the bracket is stored once per
# sorted tuple).  An empty list means the laws hold exactly.
# ---------------------------------------------------------------------------
print("\nviolations:", validate_dgla(A))

# Break one constant and watch the failure come back *named* and
# *localized* -- the identity that broke and the tuple where it broke.
wrong = MultilinearMap(space, space, 2, 0)
for key, value in bracket.entries():
    wrong.set_entry(key, value)
wrong.set_entry(("a", "b"), space.basis_vector("a"))
for violation in validate_dgla(DgLieAlgebra(space, d, wrong))[:3]:
    print("  broken:", violation.identity, "at", violation.where)

# ---------------------------------------------------------------------------
# Cohomology with representatives.  A splitting chooses harmonic
# representatives H and a complement K mapped isomorphically by d;
# the induced bracket on H is computed and validated along the way.
# ---------------------------------------------------------------------------
s = compute_splitting(A)
print("\nchosen representatives:", [repr(v) for v in s.h_vectors])
print("contractible directions:", [repr(v) for v in s.k_vectors])

H = cohomology(A, s)
for degree, dim in sorted(H.dims.items()):
    print(f"dim H^{degree} = {dim}")

# The class of any cocycle is a rational combination of representatives.
combo = space.basis_vector("y") + space.basis_vector("db").scale(Fraction(5))
print("class of y + 5*db:", repr(s.class_of(combo)))
