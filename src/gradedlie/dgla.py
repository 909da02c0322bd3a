"""Differential graded Lie algebras, splittings, and cohomology.

A splitting decomposes the underlying complex as L = H + d(K) + K with
H isomorphic to the cohomology; it induces the inclusion, the projection
onto representatives, and the contracting homotopy (minus the inverse of
the differential on d(K), extended by zero) used by homotopy transfer.

Validation never raises on mathematical failures: checkers return lists
of :class:`Violation` records naming the identity and the basis tuple
where it breaks, so callers can report precisely what went wrong.
Each algebra and splitting keeps its own check as ``violations``, run once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .core import (
    GradedVectorSpace, LinearMap, MultilinearMap, Vector, accumulate,
    canonical_tuples, coordinates_in_span, echelon_vectors,
    extend_to_complement, independent_positions, jacobi_defects,
    kernel_vectors, rref, solve_dense,
)

__all__ = [
    "Violation", "DgLieAlgebra", "validate_dgla",
    "Splitting", "compute_splitting", "verify_splitting",
    "EquivariantObstruction", "find_equivariant_splitting",
    "invariance_violations",
    "CohomologyPresentation", "cohomology",
    "restrict_to_span",
]


@dataclass(frozen=True)
class Violation:
    """A named identity failure at a specific basis tuple."""
    identity: str
    where: tuple
    detail: str = ""

    def __str__(self):
        loc = ", ".join(self.where)
        text = f"{self.identity} fails at ({loc})"
        return f"{text}: {self.detail}" if self.detail else text


class DgLieAlgebra:
    """Finite-dimensional DGLA: basis, degree-+1 differential, binary bracket."""

    def __init__(self, space, differential: LinearMap, bracket: MultilinearMap):
        if differential.domain != space or differential.codomain != space:
            raise ValueError("differential must be an endomap of the given space")
        if differential.degree != 1:
            raise ValueError("differential must have degree +1")
        if bracket.domain != space or bracket.codomain != space:
            raise ValueError("bracket must live on the given space")
        if bracket.arity != 2 or bracket.degree != 0:
            raise ValueError("bracket must be binary of degree 0")
        self.space = space
        self.d = differential
        self.bracket = bracket

    @cached_property
    def violations(self) -> tuple:
        """:func:`validate_dgla`, on first read, as a tuple that a caller's
        ``+=`` cannot change.  Sound: ``core`` values are immutable after
        construction, and the one direct table write in the package
        (``corpus.perturb_quasi_cyclic``) fills a copied bracket first."""
        return tuple(validate_dgla(self))

    def operations(self) -> dict:
        """{1: d as an arity-1 map, 2: bracket}, the L-infinity view."""
        d_op = MultilinearMap(self.space, self.space, 1, 1)
        for i, column in self.d.columns.items():
            d_op.set_entry((i,), column)
        return {1: d_op, 2: self.bracket}

    def bracket_of(self, u: Vector, v: Vector) -> Vector:
        return self.bracket.evaluate([u, v])

    def basis_vector(self, key) -> Vector:
        return self.space.basis_vector(key)

    def __repr__(self):
        return f"DgLieAlgebra(dim {self.space.dim})"


def validate_dgla(A: DgLieAlgebra):
    """Check d^2 = 0, Leibniz, and Jacobi exactly.

    They are the generalized Jacobi identities of arity 1, 2 and 3 of
    {1: d, 2: bracket}, walked by :func:`core.jacobi_defects`; the Jacobi
    defect reported is the classical sum, minus the arity-3 one.  Graded
    skew-symmetry is structural: a :class:`MultilinearMap` stores one
    entry per canonical tuple and evaluates every other order through it
    with the Koszul sign, so there is nothing to check.
    """
    space = A.space
    ops = A.operations()
    labels = lambda idx: tuple(space.labels[i] for i in idx)
    out = [Violation("d_squared", labels(idx), f"d(d(.)) = {v}")
           for idx, v in jacobi_defects(space, ops, 1)]
    out += [Violation("leibniz", labels(idx), f"defect {v}")
            for idx, v in jacobi_defects(space, ops, 2)]
    out += [Violation("jacobi", labels(idx), f"defect {-v}")
            for idx, v in jacobi_defects(space, ops, 3)]
    return out


def _require_valid(A: DgLieAlgebra) -> None:
    """Refuse an algebra with violations: no verdict on it means anything."""
    if A.violations:
        raise ValueError(f"not a DG-Lie algebra: {A.violations[0]}")


# ---------------------------------------------------------------------------
# Splittings
# ---------------------------------------------------------------------------

def _derive_label(vec: Vector) -> str:
    if len(vec.coeffs) == 1:
        ((i, c),) = vec.coeffs.items()
        if c == 1:
            return vec.space.labels[i]
    return repr(vec)


class Splitting:
    """Decomposition L = H + d(K) + K with the three induced maps.

    ``h_space`` is the abstract copy of H carrying the representative
    labels; ``iota1`` includes it into L, ``pi`` projects L onto it along
    d(K) + K, and ``h`` is minus the inverse of d on d(K), extended by
    zero on H + K (so the homotopy convention dh + hd = iota1 pi - id holds
    with this exact sign).
    """

    def __init__(self, algebra: DgLieAlgebra, h_vectors, k_vectors):
        self.algebra = algebra
        L = algebra.space
        for v in list(h_vectors) + list(k_vectors):
            if v.space != L:
                raise ValueError("splitting vectors must live in the algebra")
            if v.degree() is None:  # degree() raises on non-homogeneous
                raise ValueError("splitting vectors must be nonzero")
        order = lambda vs: sorted(range(len(vs)), key=lambda t: (vs[t].degree(), t))
        h_vectors = [h_vectors[t] for t in order(list(h_vectors))]
        k_vectors = [k_vectors[t] for t in order(list(k_vectors))]
        self.h_vectors = list(h_vectors)
        self.k_vectors = list(k_vectors)
        self.dk_vectors = [algebra.d.apply(k) for k in self.k_vectors]
        total = self.h_vectors + self.dk_vectors + self.k_vectors
        if len(total) != L.dim:
            raise ValueError(
                f"splitting has {len(total)} vectors for a dimension-{L.dim} algebra")
        # one elimination of [T | I], T's columns being H + d(K) + K: its
        # right block becomes T^-1, whose column l holds the coordinates
        # of the basis vector e_l in the new basis
        n = L.dim
        rows = [[v.coeffs.get(j, 0) for v in total]
                + [int(l == j) for l in range(n)] for j in range(n)]
        red, pivots = rref(rows)
        if pivots[:n] != list(range(n)):
            raise ValueError("H + d(K) + K do not span the algebra independently")

        self.h_space = GradedVectorSpace(
            [(_derive_label(v), v.degree()) for v in self.h_vectors])
        self.iota1 = LinearMap(self.h_space, L, 0,
                               {i: v for i, v in enumerate(self.h_vectors)})
        pi_cols, h_cols = {}, {}
        nh, nk = len(self.h_vectors), len(self.k_vectors)
        for l in range(n):
            coords = [red[r][n + l] for r in range(n)]
            pi_cols[l] = Vector(self.h_space,
                                {i: coords[i] for i in range(nh)})
            acc = {}
            for j in range(nk):
                accumulate(acc, self.k_vectors[j], -coords[nh + j])
            h_cols[l] = Vector(L, acc)
        self.pi = LinearMap(L, self.h_space, 0, pi_cols)
        self.h = LinearMap(L, L, -1, h_cols)

    @cached_property
    def violations(self) -> tuple:
        """:func:`verify_splitting`, memoized as the algebra's check is."""
        return tuple(verify_splitting(self))

    def class_of(self, v: Vector) -> Vector:
        """Cohomology class of a cocycle, in h_space coordinates."""
        return self.pi.apply(v)

    def __repr__(self):
        return (f"Splitting(dim H = {len(self.h_vectors)}, "
                f"dim K = {len(self.k_vectors)})")


def compute_splitting(A: DgLieAlgebra) -> Splitting:
    """Deterministic splitting: lexicographically earliest choices.

    One rref of the matrix of d (:meth:`core.LinearMap.pivots_and_kernel`)
    gives the cocycle basis and K, the e_i at its pivot columns: d is
    homogeneous, so this is degree by degree the earliest basis subset
    on which d is injective.  d(K) spans the image of d, and H is the
    earliest complement of span d(K) in the echelon cocycle basis, from
    one more elimination for all degrees.
    """
    L = A.space
    picked, kernel = A.d.pivots_and_kernel()
    k_vectors = [L.basis_vector(i) for i in picked]
    h_vectors = extend_to_complement(kernel, [A.d.apply(v) for v in k_vectors], L)
    try:
        return Splitting(A, h_vectors, k_vectors)
    except ValueError:
        # with d^2 != 0 the counts above mean nothing; name the cause
        defect = next(jacobi_defects(L, A.operations(), 1), None)
        if defect is not None:
            (i,), v = defect
            raise ValueError(f"differential does not square to zero: "
                             f"d(d({L.labels[i]})) = {v}") from None
        raise


def verify_splitting(s: Splitting):
    """Check the contraction identities that can fail, on each domain
    basis vector e and in this order: d(iota e) = 0, pi(d e) = 0 and
    d(h e) + h(d e) = iota(pi e) - e.

    pi iota = id, h iota = 0, pi h = 0 and h h = 0 hold for every
    :class:`Splitting`: pi and h are read off the exact inverse of
    T = [H | d(K) | K], so pi(H_i) = e_i, h vanishes on H and on K (no
    d(K) coordinate) and lands in span K, on which pi vanishes.
    """
    d, iota, pi, h = s.algebra.d, s.iota1, s.pi, s.h
    L, H = s.algebra.space, s.h_space
    zero_L, zero_H = L.zero(), H.zero()
    out = []

    def check(name, label, got, expected):
        if got != expected:
            out.append(Violation(f"contraction:{name}", (label,),
                                 f"got {got}, expected {expected}"))

    # a map's value at the basis vector e_i is its column i
    for label, v in zip(H.labels, s.h_vectors):
        check("d_iota", label, d.apply(v), zero_L)
    d_e = [d.columns.get(i, zero_L) for i in range(L.dim)]
    for label, de in zip(L.labels, d_e):
        check("pi_d", label, pi.apply(de), zero_H)
    for i, (label, de) in enumerate(zip(L.labels, d_e)):
        he, pe = h.columns.get(i, zero_L), pi.columns.get(i, zero_H)
        check("homotopy", label, d.apply(he) + h.apply(de),
              iota.apply(pe) - L.basis_vector(i))
    return out


# ---------------------------------------------------------------------------
# Equivariant splittings
# ---------------------------------------------------------------------------

@dataclass
class EquivariantObstruction:
    """Certificate that no invariant splitting exists for the fixed flag."""
    degree: int
    n_equations: int
    n_unknowns: int
    action_label: str = ""
    vector: Vector | None = None
    image: Vector | None = None

    def describe(self) -> str:
        text = (f"no invariant complement in degree {self.degree}: "
                f"the {self.n_equations} retraction equations in "
                f"{self.n_unknowns} unknowns are unsatisfiable")
        if self.vector is not None:
            text += (f"; every complement contains {self.vector} up to "
                     f"coboundaries, and [{self.action_label}, {self.vector}] = "
                     f"{self.image} is a coboundary moved by no such shift")
        return text


def _solve_retraction(m, targets, action_on_sources, action_on_targets):
    """Equivariant retraction q with q(targets_j) = e_j, as a matrix, or None.

    ``m``: dimension of the ambient coordinate system; ``targets``:
    coordinates (length-m lists) of the subspace basis inside it;
    ``action_on_sources``: per action generator, the matrix of the action
    in ambient coordinates (entry [i][j] = coefficient i of the action on
    basis element j); ``action_on_targets``: same in target coordinates.
    Unknowns are the entries of the (t x m) matrix Q.
    """
    nt = len(targets)
    nvars = nt * m
    rows, rhs = [], []

    def var(b, z):
        return b * m + z

    for j, tgt in enumerate(targets):
        for b in range(nt):
            row = [0] * nvars
            for z in range(m):
                row[var(b, z)] = tgt[z]
            rows.append([c for c in row])
            rhs.append(1 if b == j else 0)
    for M_src, M_tgt in zip(action_on_sources, action_on_targets):
        for z in range(m):
            for b in range(nt):
                row = [0] * nvars
                for zz in range(m):
                    row[var(b, zz)] = row[var(b, zz)] + M_src[zz][z]
                for bb in range(nt):
                    row[var(bb, z)] = row[var(bb, z)] - M_tgt[b][bb]
                rows.append(row)
                rhs.append(0)
    solution, _ = solve_dense(rows, rhs)
    if solution is None:
        return None
    return [[solution[var(b, z)] for z in range(m)] for b in range(nt)]


def _invariant_complement(A, h0_vectors, deg, ambient, sub, escape_text):
    """Kernel of an ad(h0)-equivariant retraction of span(``ambient``) onto
    span(``sub``), as vectors, or the :class:`EquivariantObstruction` in
    degree ``deg`` when no such retraction exists.  Raises ValueError
    with ``escape_text`` when some [g, v] leaves span(``ambient``) or
    span(``sub``)."""
    targets = [coordinates_in_span(ambient, v) for v in sub]
    act_src, act_tgt = [], []
    for g in h0_vectors:
        src = [coordinates_in_span(ambient, A.bracket_of(g, v)) for v in ambient]
        tgt = [coordinates_in_span(sub, A.bracket_of(g, v)) for v in sub]
        if None in src or None in tgt:
            raise ValueError(escape_text)
        act_src.append(list(zip(*src)))
        act_tgt.append(list(zip(*tgt)))
    P = _solve_retraction(len(ambient), targets, act_src, act_tgt)
    if P is None:
        return EquivariantObstruction(
            degree=deg,
            n_equations=len(sub) * (len(sub) + len(ambient) * len(h0_vectors)),
            n_unknowns=len(sub) * len(ambient))
    out = []
    for coords in kernel_vectors(P, len(ambient)):
        acc = {}
        for v, c in zip(ambient, coords):
            accumulate(acc, v, c)
        out.append(Vector(A.space, acc))
    return out


def find_equivariant_splitting(A: DgLieAlgebra, h0_vectors):
    """Search for a splitting whose pieces are stable under the given action.

    The flag (coboundaries inside cocycles inside everything) is fixed;
    one complement solve, :func:`_invariant_complement`, is applied at
    each flag step in each degree: H in the cocycles (in degree 0 the
    generators themselves), then K in the degree component.  Returns a
    :class:`Splitting` or an :class:`EquivariantObstruction`.
    """
    L = A.space
    h0_vectors = list(h0_vectors)
    for g in h0_vectors:
        if g.degree() not in (0, None):
            raise ValueError("action generators must have degree 0")
        if not A.d.apply(g).is_zero():
            raise ValueError(f"action generator {g} is not a cocycle")
    for g in h0_vectors:
        for g2 in h0_vectors:
            w = A.bracket_of(g, g2)
            if coordinates_in_span(h0_vectors, w) is None:
                raise ValueError(
                    f"degree-0 part is not closed under the bracket: [{g}, {g2}] = {w}")

    canonical = compute_splitting(A)
    if not h0_vectors:
        return canonical
    if _splitting_is_invariant(A, canonical, h0_vectors):
        return canonical

    kernel = A.d.pivots_and_kernel()[1]
    image = echelon_vectors([A.d.columns[i] for i in sorted(A.d.columns)], L)
    h_vectors, k_vectors = [], []
    for deg in L.degrees_present():
        l_vecs = [L.basis_vector(i) for i in L.indices_of_degree(deg)]
        z_vecs = [v for v in kernel if v.degree() == deg]
        b_vecs = [v for v in image if v.degree() == deg]

        # complement of the coboundaries inside the cocycles
        if deg == 0:
            stack = b_vecs + h0_vectors
            if (len(independent_positions(stack)) < len(stack)
                    or len(stack) != len(z_vecs)):
                raise ValueError(
                    "the degree-0 generators do not span a complement of the "
                    "coboundaries inside the degree-0 cocycles")
            h_vectors.extend(h0_vectors)
        elif b_vecs and z_vecs:
            found = _invariant_complement(
                A, h0_vectors, deg, z_vecs, b_vecs,
                "the action does not preserve the flag; "
                "is the input a valid algebra?")
            if isinstance(found, EquivariantObstruction):
                return _build_obstruction(A, h0_vectors, found, z_vecs, b_vecs)
            h_vectors.extend(found)
        else:
            h_vectors.extend(z_vecs)

        # complement of the cocycles inside the degree component
        if z_vecs and len(z_vecs) < len(l_vecs):
            found = _invariant_complement(
                A, h0_vectors, deg, l_vecs, z_vecs,
                "the action does not preserve the cocycles")
            if isinstance(found, EquivariantObstruction):
                return found
            k_vectors.extend(found)
        elif not z_vecs:
            k_vectors.extend(l_vecs)

    splitting = Splitting(A, h_vectors, k_vectors)
    escape = next(invariance_violations(A, h0_vectors, splitting.h_vectors,
                                        splitting.k_vectors), None)
    if escape is not None:
        name = ("representatives" if escape.identity == "invariance_H"
                else "complement")
        raise AssertionError(
            f"internal error: solved {name} not invariant at "
            f"{escape.where[1]}")
    return splitting


def invariance_violations(A, h0_vectors, h_vectors, k_vectors,
                          positive_only=False):
    """Yield, per g in ``h0_vectors``, first in H then in K, each v whose
    [g, v] escapes the same-degree span of its piece; ``positive_only``
    skips v of degree <= 0.  A yes-or-no caller stops at the first."""
    for g in h0_vectors:
        for name, vecs in (("H", h_vectors), ("K", k_vectors)):
            for v in vecs:
                deg = v.degree()
                if positive_only and deg <= 0:
                    continue
                w = A.bracket_of(g, v)
                if w.is_zero():
                    continue
                same = [u for u in vecs if u.degree() == w.degree()]
                if coordinates_in_span(same, w) is None:
                    yield Violation(
                        f"invariance_{name}", (repr(g), repr(v)),
                        f"[{g}, {v}] = {w} escapes {name}^{deg}")


def _splitting_is_invariant(A, s: Splitting, h0_vectors) -> bool:
    """True when H, K, and span(h0) = H0 are all stable under ad(h0)."""
    h0_deg = [v for v in s.h_vectors if v.degree() == 0]
    if len(h0_vectors) != len(h0_deg):
        return False
    stack = [v.dense() for v in h0_vectors] + [v.dense() for v in h0_deg]
    if len(rref(stack)[1]) != len(h0_vectors):
        return False
    return not any(invariance_violations(A, h0_vectors, s.h_vectors,
                                         s.k_vectors))


def _build_obstruction(A, h0_vectors, found, z_vecs, b_vecs):
    """Add to ``found`` a one-parameter witness from the relaxed solution
    family, when the scan finds one."""
    lex_h = extend_to_complement(z_vecs, b_vecs, A.space)
    for g in h0_vectors:
        if any(not A.bracket_of(g, b).is_zero() for b in b_vecs):
            continue
        for v in lex_h:
            w = A.bracket_of(g, v)
            if w.is_zero():
                continue
            coords = coordinates_in_span(lex_h + b_vecs, w)
            if coords is None:
                continue
            # sound only when the image is a pure (nonzero) coboundary, that
            # is when w != 0 has no lex_h part: any invariant complement
            # contains v up to a coboundary shift, and the action sends that
            # element to w regardless of the shift, so w would have to be a
            # nonzero coboundary inside the complement -- impossible.
            if all(not c for c in coords[:len(lex_h)]):
                return replace(found, action_label=repr(g), vector=v, image=w)
    return found


# ---------------------------------------------------------------------------
# Cohomology
# ---------------------------------------------------------------------------

@dataclass
class CohomologyPresentation:
    """Cohomology of a DGLA presented on chosen representatives."""
    space: GradedVectorSpace
    representatives: list
    bracket: MultilinearMap
    dims: dict
    violations: list = field(default_factory=list)


def cohomology(A: DgLieAlgebra, splitting: Splitting | None = None) -> CohomologyPresentation:
    """Cohomology with its induced graded Lie bracket, re-verified.

    The induced bracket of two representatives is the projection of their
    bracket in the big algebra; the Jacobi identity for it is re-checked
    on the nose rather than assumed.
    """
    s = splitting if splitting is not None else compute_splitting(A)
    H = s.h_space
    bracket = MultilinearMap(H, H, 2, 0)
    for idx in canonical_tuples(H, 2, 0):
        value = s.pi.apply(A.bracket_of(s.h_vectors[idx[0]], s.h_vectors[idx[1]]))
        if not value.is_zero():
            bracket.set_entry(idx, value)
    violations = [Violation("jacobi_induced", tuple(H.labels[i] for i in idx),
                            f"defect {-v}")
                  for idx, v in jacobi_defects(H, {2: bracket}, 3)]
    dims = {}
    for deg in H.degrees_present():
        dims[deg] = len(H.indices_of_degree(deg))
    return CohomologyPresentation(H, list(s.h_vectors), bracket, dims, violations)


# ---------------------------------------------------------------------------
# Subalgebra restriction
# ---------------------------------------------------------------------------

def restrict_to_span(A: DgLieAlgebra, vectors) -> tuple:
    """Restrict the algebra to the span of the given homogeneous vectors.

    The span must be closed under the differential and the bracket (a
    ValueError names the offending product otherwise).  Returns the
    restricted algebra and the embedding of its space into the original.
    """
    vectors = list(vectors)
    sub = GradedVectorSpace([(_derive_label(v), v.degree()) for v in vectors])

    def pull(w, context):
        coords = coordinates_in_span(vectors, w)
        if coords is None:
            raise ValueError(f"span is not closed: {context} = {w} escapes")
        return Vector(sub, {i: c for i, c in enumerate(coords) if c})

    d_cols = {i: pull(A.d.apply(v), f"d({sub.labels[i]})")
              for i, v in enumerate(vectors)}
    d_sub = LinearMap(sub, sub, 1, d_cols)
    bracket_sub = MultilinearMap(sub, sub, 2, 0)
    for idx in canonical_tuples(sub, 2):
        w = A.bracket_of(vectors[idx[0]], vectors[idx[1]])
        if not w.is_zero():
            bracket_sub.set_entry(
                idx, pull(w, f"[{sub.labels[idx[0]]}, {sub.labels[idx[1]]}]"))
    embed = LinearMap(sub, A.space, 0, {i: v for i, v in enumerate(vectors)})
    return DgLieAlgebra(sub, d_sub, bracket_sub), embed
