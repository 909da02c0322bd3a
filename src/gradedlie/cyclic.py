"""Invariant pairings on graded Lie algebras.

A pairing here is a graded-symmetric bilinear form of fixed total degree
that is compatible with the differential (closed) and with the bracket
(cyclic), one identity checked in one scan over the stored entries of d
and the bracket; every read of the form lowers each vector once.
Strictly cyclic means non-degenerate on the whole algebra; quasi-cyclic
only demands non-degeneracy of the induced form on cohomology.  The
module also provides the symplectic-representation constructor for
degree-2 instances with zero differential, and the normalization that
replaces the complement K of a splitting by one orthogonal to the
representatives.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from .core import (
    GradedVectorSpace, LinearMap, MultilinearMap, Scalar, Vector, as_scalar,
    coordinates_in_span, kernel_vectors, rref,
)
from .dgla import (
    DgLieAlgebra, Splitting, Violation, compute_splitting,
    invariance_violations, restrict_to_span,
)

__all__ = [
    "CyclicPairing", "QuasiCyclicDgla", "PairingReport", "validate_pairing",
    "SymplecticRepresentation", "from_symplectic_representation",
    "NormalizationError", "NormalizedSplitting", "precondition_violations",
    "normalize_splitting",
]

class CyclicPairing:
    """Sparse graded-symmetric bilinear form of total degree ``degree``.

    The form is stored as its Gram rows, row i holding (e_i, e_j) at j;
    an entry given on either pair is written to both, the mirrored one
    with the graded-symmetry sign (-1)^{|i||j|}.  A nonzero value is legal
    only when deg(i) + deg(j) equals the form's degree, and never on an
    odd diagonal (where symmetry forces 0).  Conflicting assignments
    raise immediately.
    """

    def __init__(self, space: GradedVectorSpace, degree: int, entries=None):
        self.space = space
        self.degree = degree
        self._rows = [{} for _ in range(space.dim)]
        if entries:
            items = entries.items() if hasattr(entries, "items") else entries
            for key, value in items:
                self.set_entry(key, value)

    def _resolve(self, key):
        i, j = key
        if not isinstance(i, int):
            i = self.space.index(i)
        if not isinstance(j, int):
            j = self.space.index(j)
        return i, j

    def set_entry(self, key, value):
        i, j = self._resolve(key)
        value = as_scalar(value)
        di, dj = self.space.degrees[i], self.space.degrees[j]
        sign = -1 if (di % 2 and dj % 2) else 1
        if i > j:
            i, j, value = j, i, value * sign
        old = self._rows[i].get(j)
        if old is not None and old != value:  # a zero over a value too
            raise ValueError(
                f"conflicting values for ({self.space.labels[i]}, "
                f"{self.space.labels[j]}): {old} vs {value}")
        if value == 0:
            return
        if i == j and di % 2:
            raise ValueError(
                f"({self.space.labels[i]}, {self.space.labels[i]}) is forced to 0 "
                "in odd degree")
        if di + dj != self.degree:
            raise ValueError(
                f"entry ({self.space.labels[i]}, {self.space.labels[j]}) has degree "
                f"{di + dj}, form has degree {self.degree}")
        self._rows[i][j] = value
        self._rows[j][i] = value * sign

    def value_indices(self, i: int, j: int) -> Scalar:
        return self._rows[i].get(j, 0)

    def lower(self, v: Vector) -> Vector:
        """The row image {j: (v, e_j)}, built in one pass over the Gram rows
        of v's support; (v, w) is then this image dotted with w."""
        image = {}
        for i, c in v.coeffs.items():
            for j, val in self._rows[i].items():
                image[j] = image.get(j, 0) + c * val
        return Vector(self.space, image)

    def evaluate(self, u: Vector, v: Vector) -> Scalar:
        return _dot(self.lower(u), v)

    def pullback(self, space: GradedVectorSpace, vectors) -> "CyclicPairing":
        """The form on ``space`` with (e_a, e_b) = (vectors[a], vectors[b]):
        each vector is lowered once, and :meth:`set_entry` refuses an entry
        of a wrong degree."""
        out = CyclicPairing(space, self.degree)
        for a, u in enumerate(vectors):
            image = self.lower(u)
            for b in range(a, len(vectors)):
                val = _dot(image, vectors[b])
                if val:
                    out.set_entry((a, b), val)
        return out

    def entries(self):
        """The upper half of the Gram rows, ((i, j), value) with i <= j, in
        sorted order."""
        return [((i, j), row[j]) for i, row in enumerate(self._rows)
                for j in sorted(row) if j >= i]

    def __repr__(self):
        return f"CyclicPairing(degree {self.degree}, {len(self.entries())} entries)"


def _dot(image: Vector, v: Vector) -> Scalar:
    """sum_j image_j v_j: a lowered vector paired with ``v``."""
    get = image.coeffs.get
    return as_scalar(sum([get(j, 0) * c for j, c in v.coeffs.items()]))


class QuasiCyclicDgla:
    """A DG-Lie algebra bundled with a candidate invariant pairing.

    Whether the pairing actually is cyclic / quasi-cyclic is a computed
    classification: run :func:`validate_pairing` and read the flags.
    """

    def __init__(self, algebra: DgLieAlgebra, pairing: CyclicPairing):
        if pairing.space != algebra.space:
            raise ValueError("pairing and algebra must share one space")
        self.algebra = algebra
        self.pairing = pairing

    @property
    def space(self):
        return self.algebra.space

    def __repr__(self):
        return (f"QuasiCyclicDgla(dim {self.space.dim}, "
                f"pairing degree {self.pairing.degree})")


@dataclass
class PairingReport:
    """Outcome of pairing validation, with the three classification flags."""
    degree: int
    cyclic_on_L: bool
    nondegenerate_on_L: bool
    nondegenerate_on_H: bool
    rank_on_L: int
    rank_on_H: int
    violations: list = field(default_factory=list)

    @property
    def is_cyclic(self) -> bool:
        return self.cyclic_on_L and self.nondegenerate_on_L

    @property
    def is_quasi_cyclic(self) -> bool:
        return self.cyclic_on_L and self.nondegenerate_on_H

    def status(self) -> str:
        if self.is_cyclic:
            return f"cyclic of degree {self.degree}"
        if self.is_quasi_cyclic:
            return f"quasi-cyclic of degree {self.degree}"
        return "not quasi-cyclic"


def validate_pairing(Q: QuasiCyclicDgla, splitting: Splitting | None = None) -> PairingReport:
    """Check closedness and cyclicity; classify non-degeneracy.

    Graded symmetry and the total degree are enforced by
    :class:`CyclicPairing` itself, which writes each entry to both of its
    Gram rows, the mirrored one with the symmetry sign, and refuses
    wrong-degree and odd-diagonal entries, so no form can fail them here.
    Closedness and cyclicity are one identity, checked by one scan over
    the supports of d and the bracket (:func:`_compatibility_violations`);
    failures are collected as violations, never raised.  The induced form
    on cohomology is the pairing pulled back onto the given splitting's
    representatives (a canonical splitting is computed when none is
    supplied); the Gram matrices give the ranks on L and on H.
    """
    A, form = Q.algebra, Q.pairing
    out = _compatibility_violations(A.operations(), form)

    s = splitting if splitting is not None else compute_splitting(A)
    reps = s.h_vectors
    rank_h = _gram_rank(form.pullback(s.h_space, reps))
    rank_l = _gram_rank(form)

    # consequences of closedness, asserted against the splitting
    for dk in s.dk_vectors:
        image = form.lower(dk)
        for x in reps:
            if _dot(image, x):
                out.append(Violation("orthogonality_H_dK",
                                     (repr(x), repr(dk)), "nonzero pairing"))
        for k2, dk2 in zip(s.k_vectors, s.dk_vectors):
            if _dot(image, dk2):
                out.append(Violation("orthogonality_dK_dK",
                                     (repr(dk), repr(k2)), "nonzero pairing"))

    clean = not any(v.identity.startswith("pairing_") for v in out)
    return PairingReport(
        degree=form.degree,
        cyclic_on_L=clean,
        nondegenerate_on_L=(rank_l == form.space.dim),
        nondegenerate_on_H=(rank_h == len(reps)),
        rank_on_L=rank_l,
        rank_on_H=rank_h,
        violations=out,
    )


def _gram_rank(form: CyclicPairing) -> int:
    dim = form.space.dim
    return len(rref([[form.value_indices(i, j) for j in range(dim)]
                     for i in range(dim)])[1])


def _compatibility_violations(ops: dict, form: CyclicPairing) -> list:
    """Every basis tuple where (op(e_i, rest), e_k) != eps (e_i, op(rest, e_k)).

    With eps = (-1)^{deg(op) (|i|+1)}, this is closedness for op = d
    (``ops[1]``, rest empty) and cyclicity for the bracket (``ops[2]``,
    rest = (j,)).  Only the op's support is walked: each ordering ``args``
    of a stored key is evaluated and lowered once, to w = lower(op(args)),
    whose entry w_k is the left side at args + (k,) and, times the mirror
    sign (-1)^{|i|(n-|i|)} of the form's degree n, the right side's
    (e_i, op(args)) at (i,) + args.  Either side is nonzero only on such
    tuples, so the check stays exhaustive.  Violations come out as
    ``pairing_closed`` in (i, k) order, then ``pairing_cyclic`` in
    (i, j, k) order.
    """
    space, n = form.space, form.degree
    out = []
    for identity, op in (("pairing_closed", ops[1]), ("pairing_cyclic", ops[2])):
        # -eps * mirror sign, the factor of w_i on the right side
        right = [-1 if (op.degree * (d + 1) + d * (n - d)) % 2 == 0 else 1
                 for d in space.degrees]
        defects = Counter()
        for key in op.table:
            for args in set(itertools.permutations(key)):
                w = form.lower(op.evaluate_indices(args))
                for k, c in w.coeffs.items():
                    defects[args + (k,)] += c
                    defects[(k,) + args] += right[k] * c
        for t in sorted(defects):
            if defects[t]:
                out.append(Violation(identity, tuple(space.labels[x] for x in t),
                                     f"defect {as_scalar(defects[t])}"))
    return out


# ---------------------------------------------------------------------------
# Symplectic representations
# ---------------------------------------------------------------------------

class SymplecticRepresentation:
    """A Lie algebra acting on a skew-paired space.

    ``lie_brackets`` maps ordered label pairs to expansion dicts for the
    degree-0 Lie algebra; ``actions`` maps each Lie label to the matrix of
    its action (entry [i][j] = coefficient of v_i in the action on v_j);
    ``omega`` is the skew Gram matrix on the v-basis.
    """

    def __init__(self, lie_labels, lie_brackets, v_labels, actions, omega):
        self.lie_space = GradedVectorSpace([(l, 0) for l in lie_labels])
        self.lie_bracket = MultilinearMap(self.lie_space, self.lie_space, 2, 0)
        for (l1, l2), expansion in lie_brackets.items():
            value = self.lie_space.vector(
                {lbl: as_scalar(c) for lbl, c in expansion.items()})
            if not value.is_zero():
                self.lie_bracket.set_entry((l1, l2), value)
        self.v_labels = list(v_labels)
        m = len(self.v_labels)
        # the basis of the built algebra; a label used twice raises here
        self.space = GradedVectorSpace(
            [(g, 0) for g in lie_labels] + [(v, 1) for v in self.v_labels]
            + [(f"{g}^", 2) for g in lie_labels])
        self.actions = {g: [[0] * m for _ in range(m)] for g in lie_labels}
        for g, mat in actions.items():
            if g not in self.actions:
                raise ValueError(f"action given for {g!r}, not a Lie label")
            if len(mat) != m or any(len(row) != m for row in mat):
                raise ValueError(f"action matrix for {g} is not {m} x {m}")
            self.actions[g] = [[as_scalar(c) for c in row] for row in mat]
        self.omega = [[as_scalar(c) for c in row] for row in omega]
        if len(self.omega) != m or any(len(row) != m for row in self.omega):
            raise ValueError(f"omega is not {m} x {m}")

    def validate(self):
        """Exact checks, run on the cyclic DGLA Q that this builds.

        Only ``omega_skew`` is checked on omega, as Q reads just its upper
        triangle.  The rest are laws of Q: Jacobi on Lie triples is the Lie
        algebra's, on (a, b, v) it is A_[a,b] = [A_a, A_b]; the pairing is
        cyclic at (g, v_i, v_j) iff A_g^T omega is symmetric (the action
        preserves omega); its rank is 2 dim g + rank omega.
        """
        out = []
        m = len(self.v_labels)
        for i in range(m):
            for j in range(m):
                if self.omega[i][j] + self.omega[j][i]:
                    out.append(Violation("omega_skew",
                                         (self.v_labels[i], self.v_labels[j]),
                                         f"defect {self.omega[i][j] + self.omega[j][i]}"))
        Q = from_symplectic_representation(self)
        report = validate_pairing(Q)
        if not report.nondegenerate_on_L:
            rank = report.rank_on_L - 2 * self.lie_space.dim
            out.append(Violation("omega_nondegenerate", tuple(self.v_labels), f"rank {rank} < {m}"))
        return out + list(Q.algebra.violations) + report.violations


def from_symplectic_representation(R: SymplecticRepresentation) -> QuasiCyclicDgla:
    """Degree-2 instance with zero differential from an acting Lie algebra.

    Degree 0 carries the Lie algebra, degree 1 the paired space, degree 2
    the dual of the Lie algebra; brackets are the action, the
    omega-valued product on degree 1, and the coadjoint action.  The
    output is built unconditionally: when the action fails the symplectic
    condition the construction still succeeds and validate_pairing
    reports exactly the cyclicity failures.
    """
    glabels = list(R.lie_space.labels)
    m = len(R.v_labels)
    dual = [f"{g}^" for g in glabels]
    space = R.space
    bracket = MultilinearMap(space, space, 2, 0)
    for a_idx, a in enumerate(glabels):
        for b_idx in range(a_idx + 1, len(glabels)):
            b = glabels[b_idx]
            vec = R.lie_bracket.evaluate(
                [R.lie_space.basis_vector(a), R.lie_space.basis_vector(b)])
            if not vec.is_zero():
                bracket.set_entry((a, b), space.vector(
                    {glabels[i]: c for i, c in vec.coeffs.items()}))
    for g in glabels:
        mat = R.actions[g]
        for j, v in enumerate(R.v_labels):
            img = space.vector({R.v_labels[i]: mat[i][j]
                                for i in range(m) if mat[i][j]})
            if not img.is_zero():
                bracket.set_entry((g, v), img)
    for i in range(m):
        for j in range(i, m):
            coeffs = {}
            for k, g in enumerate(glabels):
                val = sum((R.actions[g][t][i] * R.omega[t][j] for t in range(m)),
                          0)
                if val:
                    coeffs[dual[k]] = val
            if coeffs:
                bracket.set_entry((R.v_labels[i], R.v_labels[j]),
                                  space.vector(coeffs))
    for g_idx, g in enumerate(glabels):
        for k, y in enumerate(dual):
            coeffs = {}
            for h_idx, h in enumerate(glabels):
                vec = R.lie_bracket.evaluate(
                    [R.lie_space.basis_vector(h), R.lie_space.basis_vector(g)])
                c = vec.coefficient(k)
                if c:
                    coeffs[dual[h_idx]] = c
            if coeffs:
                bracket.set_entry((g, y), space.vector(coeffs))
    pairing = CyclicPairing(space, 2)
    for i, g in enumerate(glabels):
        pairing.set_entry((g, dual[i]), 1)
    for i in range(m):
        for j in range(i + 1, m):
            if R.omega[i][j]:
                pairing.set_entry((R.v_labels[i], R.v_labels[j]), R.omega[i][j])
    algebra = DgLieAlgebra(space, LinearMap.zero(space, space, 1), bracket)
    return QuasiCyclicDgla(algebra, pairing)


# ---------------------------------------------------------------------------
# Orthogonal normalization of splittings
# ---------------------------------------------------------------------------

class NormalizationError(ValueError):
    """A precondition or orthogonalization step failed, with witnesses."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


@dataclass
class NormalizedSplitting:
    """Result of normalization; the algebra may be a restriction of the input."""
    quasi: QuasiCyclicDgla
    splitting: Splitting
    restricted: bool
    notes: list = field(default_factory=list)


def precondition_violations(A: DgLieAlgebra, s: Splitting, h0) -> list:
    """The normalization preconditions, as violations: H in degrees >= 0,
    ``h0`` closed under the bracket, H and K stable under it in positive
    degrees."""
    out = []
    for v in s.h_vectors:
        if v.degree() < 0:
            out.append(Violation("H_nonnegative", (repr(v),),
                                 f"representative in degree {v.degree()}"))
    for g in h0:
        for g2 in h0:
            w = A.bracket_of(g, g2)
            if not w.is_zero() and coordinates_in_span(h0, w) is None:
                out.append(Violation("H0_closed", (repr(g), repr(g2)),
                                     f"[{g}, {g2}] = {w} escapes H^0"))
    out.extend(invariance_violations(A, h0, s.h_vectors, s.k_vectors,
                                     positive_only=True))
    return out


def normalize_splitting(Q: QuasiCyclicDgla, s: Splitting) -> NormalizedSplitting:
    """Replace K by the complement orthogonal to the representatives.

    Preconditions (:func:`precondition_violations`, raised with their
    witnesses), checked against the splitting's own degree-0
    representatives: no representatives in negative degree; the degree-0
    representatives close under the bracket; H and K are stable under
    their adjoint action in positive degrees.  When the ambient algebra
    has negative-degree elements it is first cut down to the
    quasi-isomorphic subalgebra spanned by the degree-0 representatives
    and everything in positive degrees; on a valid algebra it takes the
    empty ``violations`` memo without a check, as a span closed under d
    and the bracket of a valid DG-Lie algebra is one.  Then each K^i is
    replaced by C^i = {x in H^i + K^i : (x, H^{n-i}) = 0}; the exchange
    is an isomorphism exactly when the representative pairing is perfect,
    and failure is reported as such.

    A returned splitting therefore satisfies every hypothesis that
    ``formality.build_formality_witness`` relies on and does not check
    again: invariance under all of its degree-0 representatives, the
    orthogonal complement, and no cohomology in negative degree.
    """
    A, form = Q.algebra, Q.pairing
    n = form.degree
    h0 = [v for v in s.h_vectors if v.degree() == 0]

    pre = precondition_violations(A, s, h0)
    if pre:
        raise NormalizationError(
            "splitting does not satisfy the normalization preconditions", pre)

    notes = []
    restricted = False
    if min(A.space.degrees_present()) < 0:
        span = list(h0)
        span += [v for v in s.h_vectors if v.degree() > 0]
        span += [v for v in s.k_vectors if v.degree() > 0]
        span += [A.d.apply(v) for v in s.k_vectors if v.degree() > 0]
        sub, _ = restrict_to_span(A, span)
        if not A.violations:
            sub.violations = ()
        sub_form = form.pullback(sub.space, span)

        def pull(vec):
            coords = coordinates_in_span(span, vec)
            return Vector(sub.space, {i: c for i, c in enumerate(coords) if c})

        h_new = [pull(v) for v in h0] + [pull(v) for v in s.h_vectors
                                         if v.degree() > 0]
        k_new = [pull(v) for v in s.k_vectors if v.degree() > 0]
        Q = QuasiCyclicDgla(sub, sub_form)
        A, form = sub, sub_form
        s = Splitting(A, h_new, k_new)
        restricted = True
        notes.append(f"restricted to a subalgebra of dimension {sub.space.dim}")

    h_by_deg = {}
    for v in s.h_vectors:
        h_by_deg.setdefault(v.degree(), []).append(v)
    new_k = []
    for deg in sorted({v.degree() for v in s.k_vectors}):
        h_deg = h_by_deg.get(deg, [])
        k_deg = [v for v in s.k_vectors if v.degree() == deg]
        mixed = h_deg + k_deg
        duals = h_by_deg.get(n - deg, [])
        images = [form.lower(x) for x in mixed]
        rows = [[_dot(image, y) for image in images] for y in duals]
        c_vecs = []
        for coords in kernel_vectors(rows, len(mixed)):
            vec = A.space.zero()
            for t, c in enumerate(coords):
                if c:
                    vec = vec + mixed[t].scale(c)
            c_vecs.append(vec)
        if len(c_vecs) != len(k_deg):
            raise NormalizationError(
                f"H^{deg} + C^{deg} -> H^{deg} + K^{deg} is not an isomorphism "
                f"(the representative pairing with degree {n - deg} is not perfect)")
        stack = [v.dense() for v in h_deg + c_vecs]
        if len(rref(stack)[1]) != len(stack):
            raise NormalizationError(
                f"H^{deg} + C^{deg} -> H^{deg} + K^{deg} is not an isomorphism")
        new_k.extend(c_vecs)

    result = Splitting(A, list(s.h_vectors), new_k)
    post = list(result.violations)  # a copy: the memo stays as computed
    # x in K + d(K)  iff  x is orthogonal to every representative: containment
    # one way, dimension count for the converse.  The pairs (v, x) also cover
    # H perp K, the homotopy image (it lies in span K) and the adjointness of
    # the projection, which fails only where some (v, x) is nonzero.
    kdk = result.k_vectors + result.dk_vectors
    if result.h_vectors:
        images = [form.lower(x) for x in result.h_vectors]
        perp_dim = A.space.dim - len(rref([image.dense() for image in images])[1])
        if perp_dim != len(kdk):
            post.append(Violation("orthogonal_complement", ("dim",),
                                  f"perp of H has dimension {perp_dim}, "
                                  f"K + d(K) has {len(kdk)}"))
        for v in kdk:
            for x, image in zip(result.h_vectors, images):
                if _dot(image, v):
                    post.append(Violation("orthogonal_complement",
                                          (repr(v), repr(x)), "not orthogonal"))
    if post:
        raise NormalizationError(
            "orthogonalized splitting failed its own consistency checks "
            "(is the pairing actually closed and cyclic?)", post)

    return NormalizedSplitting(Q, result, restricted, notes)
