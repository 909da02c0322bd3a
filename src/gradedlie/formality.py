"""Massey products, non-formality certificates, and formality witnesses.

Two complementary tools around the same question.  Triple Massey products
certify that an algebra is NOT formal; their vanishing proves nothing.  In
the other direction, for quasi-cyclic algebras with pairing degree at most
2 whose splitting is invariant under the degree-0 classes and orthogonally
normalized, a recursion over pairing functionals produces the Taylor
coefficients of an explicit structure isomorphism onto the cohomology
graded Lie algebra -- a checkable formality witness.  Those hypotheses
are checked once, by :func:`formality_verdict` through
``validate_pairing`` and ``normalize_splitting``; the witness builder
takes that evidence and does not check it again.  No verdict rests on
an algebra that fails ``validate_dgla``: the entry points refuse it.

:func:`verify_witness` is the one check of the witness's morphism
relations up to arity N, as the transfer's own check is of the
inclusion's.  The builder asserts only what those checks and the
hypothesis checks cannot see: vanishing off the degree-1 block (on the
stored entries), boundary terms, a nondegenerate Gram matrix, and the
degree-0 equivariance of the top inclusion iota_N and the top coefficient
f_N.  Below N, the equivariance of iota_p and of f_p is the arity-(p+1)
relation at (g, idx), which those checks cover; iota_N and f_N enter no
relation of arity <= N.  The degree-0 action enters the equivariance
check through rows [e_i, g] computed once per build.  Each pairing
functional is built once, and only for the splits the coefficient solves
read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .core import (
    LinearMap, MultilinearMap, Vector, accumulate, as_scalar,
    coordinates_in_span, echelon_vectors, rref,
)
from .dgla import (
    DgLieAlgebra, EquivariantObstruction, Splitting, _require_valid,
    find_equivariant_splitting,
)
from .cyclic import (
    NormalizationError, NormalizedSplitting, PairingReport, QuasiCyclicDgla,
    _dot, normalize_splitting, validate_pairing,
)
from .linfty import (
    LInftyMorphismToDgla, TransferResult, check_morphism, homotopy_transfer,
)

__all__ = [
    "MasseyTripleProduct", "massey_triple",
    "NonFormalityCertificate", "detect_nonformality",
    "PairingFunctional", "compute_I",
    "FormalityWitness", "WitnessRejected", "build_formality_witness",
    "verify_witness", "FormalityVerdict", "formality_verdict",
]

_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Massey triple products
# ---------------------------------------------------------------------------

@dataclass
class MasseyTripleProduct:
    """A defined triple product with its representative and indeterminacy.

    The class is only well defined modulo the indeterminacy span
    (bracketing the first input against classes of the appropriate
    degree, plus classes against the last input); shifting either
    primitive by a cocycle moves the representative inside that span.
    """
    inputs: tuple
    primitives: tuple
    representative: Vector
    class_vector: Vector
    indeterminacy: list
    degree: int

    def nonzero_mod_indeterminacy(self) -> bool:
        if self.class_vector.is_zero():
            return False
        return coordinates_in_span(self.indeterminacy, self.class_vector) is None

    def describe(self) -> str:
        labels = ", ".join(repr(v) for v in self.inputs)
        mod = (f"indeterminacy of dimension {len(self.indeterminacy)}"
               if self.indeterminacy else "zero indeterminacy")
        return (f"triple product of ({labels}): class {self.class_vector} "
                f"in degree {self.degree}, {mod}")


def massey_triple(A: DgLieAlgebra, s: Splitting, a, b, c):
    """Triple product of three cocycles, or None when not defined.

    Requires nonzero homogeneous cocycle inputs (labels are accepted and
    resolved through the algebra's basis); a ValueError names any other.
    Not defined -- returning None -- when either inner bracket fails to
    be exact, or when the standard representative fails to be closed
    (possible for arbitrary triples because the two-primitive
    representative only kills the Jacobi defect, not every nested
    bracket).

    Primitives are chosen canonically through the contracting homotopy:
    xi = -h[a,b] and eta = -h[b,c], so d(xi) = [a,b] and d(eta) = [b,c];
    the representative is [xi, c] - (-1)^|a| [a, eta].
    """
    inputs = []
    for v in (a, b, c):
        if not isinstance(v, Vector):
            v = A.space.basis_vector(v)
        if len({A.space.degrees[i] for i in v.coeffs}) != 1:
            raise ValueError(f"triple-product input has no single degree: {v}")
        if not A.d.apply(v).is_zero():
            raise ValueError(f"triple-product input is not a cocycle: {v}")
        inputs.append(v)
    a, b, c = inputs

    ab = A.bracket_of(a, b)
    bc = A.bracket_of(b, c)
    if not s.pi.apply(ab).is_zero() or not s.pi.apply(bc).is_zero():
        return None
    xi = s.h.apply(ab).scale(-1)
    eta = s.h.apply(bc).scale(-1)
    sign = -1 if a.degree() % 2 else 1
    representative = A.bracket_of(xi, c) - A.bracket_of(a, eta).scale(sign)
    if not A.d.apply(representative).is_zero():
        return None

    # shifting eta by a cocycle w moves the class by +-pi[a, w], shifting
    # xi by pi[w, c]
    shifts = []
    for w in s.h_vectors:
        if w.degree() == b.degree() + c.degree() - 1:
            shifts.append(s.pi.apply(A.bracket_of(a, w)))
        if w.degree() == a.degree() + b.degree() - 1:
            shifts.append(s.pi.apply(A.bracket_of(w, c)))
    return MasseyTripleProduct(
        inputs=(a, b, c), primitives=(xi, eta),
        representative=representative,
        class_vector=s.pi.apply(representative),
        indeterminacy=echelon_vectors(
            [v for v in shifts if not v.is_zero()], s.h_space),
        degree=a.degree() + b.degree() + c.degree() - 1)


# ---------------------------------------------------------------------------
# Non-formality certificates
# ---------------------------------------------------------------------------

@dataclass
class NonFormalityCertificate:
    """Evidence of non-formality: a triple product whose class is nonzero
    modulo its indeterminacy."""
    kind: str
    triple: tuple
    class_vector: Vector
    indeterminacy: list
    massey: MasseyTripleProduct

    def describe(self) -> str:
        labels = ", ".join(self.triple)
        return (f"{self.kind} certificate on ({labels}): "
                f"class {self.class_vector} survives modulo an indeterminacy "
                f"of dimension {len(self.indeterminacy)}")


def detect_nonformality(A: DgLieAlgebra, s: Splitting):
    """Scan triples of cohomology representatives for a certificate.

    Returns the first triple product with a class that survives modulo
    its indeterminacy, or None (inconclusive: vanishing triple products
    do not imply formality).  The scan order is deterministic: diagonal
    triples (v, v, v) in basis order first -- the classical obstructions
    -- then the remaining non-decreasing index triples, then all other
    ordered triples.  Every representative must be a cocycle; that is
    checked before the scan, so a certificate found early never rests on
    a splitting that a later triple would have rejected; then an invalid
    algebra raises ValueError.  With d^2 = 0, a splitting of cocycles
    passes every contraction identity, so ``s.violations`` is not read.

    A triple whose class degree |a| + |b| + |c| - 1 is not a degree of H
    is skipped before any bracket: bracket, d, pi and h are homogeneous,
    so its class pi(rep) is zero and it cannot certify, and the first
    certificate is the one the full scan finds.
    """
    reps = s.h_vectors
    for v in reps:
        if not A.d.apply(v).is_zero():
            raise ValueError(f"triple-product input is not a cocycle: {v}")
    _require_valid(A)
    degrees, present = [v.degree() for v in reps], set(s.h_space.degrees)
    indices = range(len(reps))
    # each triple once, at its first place in this chain
    candidates = dict.fromkeys(t for t in itertools.chain(
        ((i, i, i) for i in indices),
        itertools.combinations_with_replacement(indices, 3),
        itertools.product(indices, repeat=3))
        if sum(degrees[i] for i in t) - 1 in present)
    for t in candidates:
        product = massey_triple(A, s, reps[t[0]], reps[t[1]], reps[t[2]])
        if product is not None and product.nonzero_mod_indeterminacy():
            return NonFormalityCertificate(
                kind="massey-triple",
                triple=tuple(repr(reps[i]) for i in t),
                class_vector=product.class_vector,
                indeterminacy=product.indeterminacy,
                massey=product)
    return None


# ---------------------------------------------------------------------------
# Pairing functionals
# ---------------------------------------------------------------------------

@dataclass
class PairingFunctional:
    """Scalar functional on tuples of degree-1 classes, split in two blocks.

    Symmetric within each block (degree-1 entries commute with no sign);
    the table stores block-sorted index tuples, nonzero values only.
    :func:`compute_I` pairs two inclusion values in the ambient algebra,
    ``_compute_F`` two witness coefficients through the induced pairing
    on classes.  The witness builder reads ``table`` directly, entry by
    entry; :meth:`value_indices` is the query at one tuple in any order
    within its blocks.
    """
    total_arity: int
    split: tuple
    table: dict = field(default_factory=dict)

    def value_indices(self, idx):
        if len(idx) != self.total_arity:
            raise ValueError(
                f"expected {self.total_arity} arguments, got {len(idx)}")
        j = self.split[0]
        key = tuple(sorted(idx[:j])) + tuple(sorted(idx[j:]))
        return as_scalar(self.table.get(key, 0))


def compute_I(T: TransferResult, pairing, p: int, j: int) -> PairingFunctional:
    """Pair the arity-j inclusion against the arity-(p-j) inclusion.

    Table over degree-1 class tuples.  For total arity p >= 3 the
    boundary splits j = 1 and j = p-1 pair a class representative
    against an inclusion value lying in the chosen complement, so under
    the orthogonal normalization they vanish identically -- asserted
    here.  For p = 2 the (only) split is the induced pairing on degree-1
    classes, which is nondegenerate rather than zero.
    """
    if not 1 <= j <= p - 1:
        raise ValueError(f"block size {j} outside 1..{p - 1}")
    if max(j, p - j) > T.arity_bound:
        raise ValueError(
            f"arity out of range: needs inclusion tables to arity "
            f"{max(j, p - j)}, transfer computed to {T.arity_bound}")
    table = _pairing_table(pairing, T.inclusion.component(j),
                           T.inclusion.component(p - j))
    if p >= 3 and j in (1, p - 1) and table:
        raise AssertionError(
            f"boundary functional (split {j}, {p - j}) must vanish when the "
            f"representatives are orthogonal to the complement; found "
            f"{len(table)} nonzero entries")
    return PairingFunctional(p, (j, p - j), table)


def _compute_F(h_form, f_tables, p: int, j: int) -> PairingFunctional:
    """Pair witness coefficients f_j against f_{p-j} on degree-1 tuples."""
    left_map = f_tables.get(j)
    right_map = f_tables.get(p - j)
    table = {}
    if left_map is not None and right_map is not None:
        table = _pairing_table(h_form, left_map, right_map)
    return PairingFunctional(p, (j, p - j), table)


def _pairing_table(form, left_map, right_map) -> dict:
    """``form`` on the two maps' values on sorted degree-1 blocks, nonzero
    entries only, keyed by the joined blocks; each left value lowered once."""
    lefts = _nonzero_values(left_map)
    rights = _nonzero_values(right_map) if lefts else []
    table = {}
    for left, lv in lefts:
        image = form.lower(lv)
        for right, rv in rights:
            val = _dot(image, rv)
            if val:
                table[left + right] = val
    return table


def _nonzero_values(op: MultilinearMap) -> list:
    """(tuple, value) for the sorted degree-1 tuples where ``op`` is nonzero:
    its stored entries on them, as ``set_entry`` never stores a zero."""
    degrees = op.domain.degrees
    return [(idx, value) for idx, value in op.entries()
            if all(degrees[i] == 1 for i in idx)]


# ---------------------------------------------------------------------------
# Formality witnesses
# ---------------------------------------------------------------------------

@dataclass
class FormalityWitness:
    """Taylor coefficients of the isomorphism onto the cohomology algebra.

    The arity-1 coefficient is the identity, arity 2 is absent (zero),
    and higher coefficients are supported on degree-1 class tuples.  The
    report lists what the builder checked; :func:`verify_witness` checks
    the morphism relations to verified_up_to, which bounds every claim.
    f_N enters only the arity-(N+1) relation, which nothing checks; the
    builder checks its degree-0 equivariance alone, as it does that of the
    top inclusion.  ``transfer`` is the minimal model the witness was
    built on.
    """
    taylor: dict
    verified_up_to: int
    report: list = field(default_factory=list)
    transfer: TransferResult | None = None


class WitnessRejected(Exception):
    """The instance fails the construction's hypotheses.

    Raised with the violated conditions and, when the failure is
    intrinsic (no invariant splitting exists at all), the obstruction
    certificate from the equivariant search.
    """

    def __init__(self, message, violations=(), obstruction=None):
        super().__init__(message)
        self.message = message
        self.violations = list(violations)
        self.obstruction = obstruction


def _scope_rejection(Q: QuasiCyclicDgla, N: int):
    """The rejection of a pairing degree above 2, or None; N < 2 raises."""
    if N < 2:
        raise ValueError("witness construction needs arity bound N >= 2")
    n = Q.pairing.degree
    return None if n < 3 else WitnessRejected(
        f"pairing degree {n} is out of scope: the construction is valid "
        f"through degree 2, and degree-{n} instances include non-formal "
        f"algebras, so no witness is attempted")


def build_formality_witness(normalized: NormalizedSplitting,
                            pairing: PairingReport,
                            N: int) -> FormalityWitness:
    """Construct a formality witness up to arity N.

    Takes the evidence the hypotheses were checked with instead of
    checking them again: ``normalized`` is the result of
    :func:`normalize_splitting`, whose splitting is therefore invariant
    under its own degree-0 representatives, orthogonally normalized, and
    free of negative-degree cohomology; ``pairing`` is the
    :func:`validate_pairing` report of the pairing on the algebra and
    splitting that were normalized.  Only the cheap gates
    run here: N < 2 raises ValueError, and a pairing degree above 2 or a
    report that is not quasi-cyclic raises WitnessRejected; the transfer
    the witness is built on refuses an algebra that fails its DG-Lie
    identities.  An AssertionError therefore means one of the identities
    the recursion relies on failed on a valid input: a bug.  The morphism
    relations of the result are left to :func:`verify_witness`.  The
    invariance of the pairing functionals is not asserted either: it
    follows from the hypotheses, the equivariance of the inclusion (its
    morphism relations below N, checked by the transfer, and the top
    inclusion, checked here) and those relations.
    """
    Q, s = normalized.quasi, normalized.splitting
    rejection = _scope_rejection(Q, N)
    if rejection is not None:
        raise rejection
    if not pairing.is_quasi_cyclic:
        raise WitnessRejected(
            f"the pairing is not quasi-cyclic ({pairing.status()})",
            violations=pairing.violations)
    A, H = Q.algebra, s.h_space
    n = Q.pairing.degree
    report = [f"hypotheses checked before the build: {pairing.status()}, "
              f"degree-0 closure, invariance, orthogonality"]
    T = homotopy_transfer(A, s, N)
    if n <= 1:
        report.append(f"pairing degree {n}: identity witness")
        taylor = {1: _identity_map(H)}
    else:
        taylor = _build_degree_two_witness(Q, s, T, N, report)
    return FormalityWitness(taylor, N, report, T)


def _identity_map(H) -> MultilinearMap:
    out = MultilinearMap(H, H, 1, 0)
    for i in range(H.dim):
        out.set_entry((i,), H.basis_vector(i))
    return out


def _build_degree_two_witness(Q, s, T: TransferResult, N: int, report: list):
    """The arity-recursion for pairing degree 2, with the assertions that
    the transfer's check and :func:`verify_witness` cannot replace.

    Only the pairing functionals the coefficient solves read are computed,
    each once.  Their invariance under the degree-0 action is not
    asserted: for I it follows from the inclusion equivariance and the
    cyclic pairing, and for F from the equivariance of the lower
    coefficients.  Given the vanishing on degree-0 slots checked here, the
    equivariance of iota_p and f_p for p < N is their arity-(p+1) relation
    at (g, idx), which the transfer and :func:`verify_witness` check; only
    iota_N and f_N are checked for it here, through the action rows
    [e_i, g] built up front.

    Both the solves and that check are scattered from stored entries, and
    the scatters miss nothing.  The right side of the solve at a sorted
    degree-1 tuple is a sum, over its shuffle splits and the columns, of
    functional values, so each nonzero term is a stored entry; each entry
    is added onto every (tuple, column) that reads it, and a tuple that
    none reaches solves to zero, which f_p does not store.  [top(idx), g]
    is zero unless top has an entry at idx, and the acted sum at idx
    unless it has one at a tuple that an action-row step takes to idx.
    """
    A = Q.algebra
    H = s.h_space
    h1 = H.indices_of_degree(1)

    # vanishing on degree-0 slots, and outside all-degree-1 tuples, checked
    # on the stored entries: set_entry never stores a zero
    checked = 0
    for p in range(2, N + 1):
        inclusion_p = T.inclusion.component(p)
        for idx, value in inclusion_p.entries():
            assert 0 not in [H.degrees[i] for i in idx], (
                f"arity-{p} inclusion must vanish on degree-0 slots; "
                f"at {inclusion_p.labels_of(idx)} found {value}")
        checked += len(inclusion_p.table)
        if p >= 3:
            bracket_p = T.minimal.operation(p)
            for idx, value in bracket_p.entries():
                assert all(H.degrees[i] == 1 for i in idx), (
                    f"arity-{p} bracket must vanish off degree-1 tuples; "
                    f"at {bracket_p.labels_of(idx)} found {value}")
            checked += len(bracket_p.table)
    report.append(f"vanishing off the degree-1 block checked on {checked} "
                  f"stored entries")

    # the boundary terms of the recursion vanish
    t_images = {t: s.iota1.apply(H.basis_vector(t)) for t in h1}
    checked = 0
    for p in range(3, N + 1):
        for left, lv in _nonzero_values(T.inclusion.component(p - 1)):
            for t in h1:
                boundary = s.pi.apply(A.bracket.evaluate([lv, t_images[t]]))
                assert boundary.is_zero(), (
                    f"boundary term of the arity-{p} recursion must vanish; "
                    f"at {tuple(H.labels[i] for i in left)} | {H.labels[t]} "
                    f"found {boundary}")
                checked += 1
    report.append(f"boundary terms checked on {checked} tuples")

    # the coefficient recursion; a nondegenerate Gram matrix makes every
    # solve unique.  The pairing is pulled back onto H once: the Gram
    # matrix and the F functionals both read that form.
    h_form = Q.pairing.pullback(H, s.h_vectors)

    # one rref of [gram | I] checks the Gram matrix and inverts it
    red, pivots = rref([[h_form.value_indices(c, t) for c in h1]
                        + [int(r == t) for r in h1] for t in h1])
    assert pivots == list(range(len(h1))), (
        "induced pairing is degenerate on the degree-1 classes; the "
        "coefficient solves cannot be unique")
    inverse = [row[len(h1):] for row in red]

    f_tables = {1: _identity_map(H)}
    column = {t: c for c, t in enumerate(h1)}
    solves = 0
    for p in range(3, N + 1):
        # the right sides scattered from the stored entries of
        # D_j = I(p+1, j) - F(p+1, j), 2 <= j <= p - 1 (the boundary splits
        # vanish under the normalization): an entry (left, right) reaches
        # column t of the tuple sorted(left + right - t), once per
        # position set of that tuple carrying ``left``
        sides = {}
        for j in range(2, p):
            diff = dict(compute_I(T, Q.pairing, p + 1, j).table)
            for key, value in _compute_F(h_form, f_tables, p + 1,
                                         j).table.items():
                diff[key] = diff.get(key, 0) - value
            for key, value in diff.items():
                if not value:
                    continue
                left, right = key[:j], key[j:]
                for t in dict.fromkeys(right):
                    rest = list(right)
                    rest.remove(t)
                    idx = tuple(sorted(left + tuple(rest)))
                    side = sides.setdefault(idx, {})
                    side[t] = side.get(t, 0) + _placements(idx, left) * value
        # every sorted tuple counts: one that no entry reaches solves to 0
        solves += comb(len(h1) + p - 1, p)
        f_p = MultilinearMap(H, H, p, 1 - p)
        for idx in sorted(sides):
            side = sides[idx].items()
            vec = Vector(H, {h1[c]: sum(row[column[t]] * v for t, v in side)
                             * _HALF for c, row in enumerate(inverse)})
            if not vec.is_zero():
                f_p.set_entry(idx, vec)
        f_tables[p] = f_p
    report.append(f"coefficient recursion: {solves} unique solves across "
                  f"arities 3..{N}")

    # iota_N and f_N enter no relation of arity <= N: their equivariance
    # under each degree-0 class g, acting on the ambient algebra through
    # iota_1(g) and on H through the action rows [e_i, g], read here
    # backwards as t -> the (i, c) with c*e_t in [e_i, g]
    h0 = H.indices_of_degree(0)
    g_classes = [H.basis_vector(g) for g in h0]
    bracket2 = T.minimal.operation(2)
    sources = []
    for g in h0:
        into = {}
        for i in h1:
            for t, c in bracket2.evaluate_indices((i, g)).coeffs.items():
                into.setdefault(t, []).append((i, c))
        sources.append(into)
    tops = [(f"arity-{N} inclusion", T.inclusion.component(N), A.bracket,
             [s.iota1.apply(g) for g in g_classes])]
    if N >= 3:
        tops.append((f"witness coefficient f_{N}", f_tables[N], bracket2,
                     g_classes))
    for name, top, bracket, acting in tops:
        failure = _equivariance_failure(top, bracket, acting, sources)
        if failure is not None:
            idx, g, lhs, rhs = failure
            raise AssertionError(
                f"{name} fails equivariance at "
                f"{tuple(H.labels[i] for i in idx)} under {g_classes[g]}: "
                f"{lhs} vs {rhs}")
    checked = len(tops) * comb(len(h1) + N - 1, N) * len(h0)
    names = " and the ".join(name for name, *_ in tops)
    report.append(f"equivariance of the {names} checked on {checked} pairs")

    taylor = {1: f_tables[1]}
    for p in range(3, N + 1):
        if not f_tables[p].is_zero():
            taylor[p] = f_tables[p]
    return taylor


def _placements(idx, block) -> int:
    """The position sets of the sorted tuple ``idx`` that carry the
    sub-multiset ``block``: the merged count of the shuffles that pick it,
    whose signs are all +1 on degree-1 classes."""
    count = 1
    for x in set(block):
        count *= comb(idx.count(x), block.count(x))
    return count


def _equivariance_failure(top: MultilinearMap, bracket, acting, sources):
    """The first (tuple, class position, [top(idx), g], sum over slots of
    ``top`` acted on) that differ, in tuple-then-class order, or None.

    Both sides are zero off the stored all-degree-1 entries and the tuples
    they reach: [top(idx), g] is read at each entry, and an entry K adds
    c * mult(i) * top(K) at sorted(K - t + i) for each distinct t in K and
    each (i, c) in ``sources[g][t]``.
    """
    stored = _nonzero_values(top) if sources else []
    zero = top.codomain.zero()
    failures = []
    for g, (g_acting, into) in enumerate(zip(acting, sources)):
        lhs = {idx: bracket.evaluate([value, g_acting])
               for idx, value in stored}
        rhs = {}
        for key, value in stored:
            for t in dict.fromkeys(key):
                rest = list(key)
                rest.remove(t)
                for i, c in into.get(t, ()):
                    idx = tuple(sorted(rest + [i]))
                    accumulate(rhs.setdefault(idx, {}), value,
                               c * idx.count(i))
        for idx in lhs.keys() | rhs.keys():
            left = lhs.get(idx, zero)
            right = Vector._owning(top.codomain, rhs.get(idx, {}))
            if left != right:
                failures.append((idx, g, left, right))
    return min(failures, default=None, key=lambda f: f[:2])


def verify_witness(witness: FormalityWitness, T: TransferResult) -> list:
    """Check the witness through the generic morphism relations.

    Builds the cohomology graded Lie algebra (zero differential, the
    induced bracket l_2 of ``T``) as the target and evaluates the full
    morphism relation at every arity up to the witness bound --
    independent of the identities the builder asserts, and the only check
    of these relations.  An empty report certifies formality up to that
    arity.
    """
    H = T.minimal.space
    target = DgLieAlgebra(H, LinearMap.zero(H, H, 1), T.minimal.operation(2))
    morphism = LInftyMorphismToDgla(
        T.minimal, target, witness.taylor, witness.verified_up_to)
    return check_morphism(morphism, witness.verified_up_to)


# ---------------------------------------------------------------------------
# The formality verdict
# ---------------------------------------------------------------------------

@dataclass
class FormalityVerdict:
    """What :func:`formality_verdict` found: FORMAL-UP-TO-N or FAIL with
    the ``witness`` and the ``leftovers`` of its independent check, or
    NON-FORMAL or REJECTED with the ``rejection`` and the ``certificate``
    (None for REJECTED).  ``notes`` say how the splitting was prepared."""
    status: str
    pairing: PairingReport
    notes: list
    witness: FormalityWitness | None = None
    leftovers: list = field(default_factory=list)
    rejection: WitnessRejected | None = None
    certificate: NonFormalityCertificate | None = None


def formality_verdict(Q: QuasiCyclicDgla, s: Splitting, h0,
                      N: int) -> FormalityVerdict:
    """Decide formality up to arity N, or say why no witness is built.

    In order: N < 2, then an invalid algebra, raise ValueError; the
    pairing check on ``s``; a pairing degree above 2 is out of scope; the
    normalization of ``s``, which checks it against its own degree-0
    representatives; when ``s`` is not invariant under them and ``h0``
    is not empty, the equivariant search under the degree-0 classes
    ``h0`` and the normalization of what it finds; the witness, built on
    that pairing report and normalization without checking them again;
    its independent check.  A rejection at any step is a
    :class:`WitnessRejected`, followed by the certificate scan on ``s``.
    """
    out_of_scope = _scope_rejection(Q, N)
    _require_valid(Q.algebra)
    pairing = validate_pairing(Q, s)
    notes = []

    def rejected(rejection):
        certificate = detect_nonformality(Q.algebra, s)
        status = "NON-FORMAL" if certificate is not None else "REJECTED"
        return FormalityVerdict(status, pairing, notes, rejection=rejection,
                                certificate=certificate)

    if not pairing.is_quasi_cyclic:
        return rejected(WitnessRejected("the pairing is not quasi-cyclic",
                                        pairing.violations))
    if out_of_scope is not None:
        return rejected(out_of_scope)
    try:
        normalized = normalize_splitting(Q, s)
    except NormalizationError as error:
        # with no degree-0 classes there is nothing to search under
        if not h0 or not any(v.identity.startswith("invariance")
                             for v in error.violations):
            return rejected(WitnessRejected(str(error), error.violations))
        found = find_equivariant_splitting(Q.algebra, h0)
        if isinstance(found, EquivariantObstruction):
            return rejected(WitnessRejected(
                "no splitting invariant under the degree-0 classes exists",
                error.violations, found))
        notes.append("the given splitting is not invariant; the equivariant "
                     "search found one, normalizing it")
        try:
            normalized = normalize_splitting(Q, found)
        except NormalizationError as second:
            return rejected(WitnessRejected(str(second), second.violations))
    notes.extend(f"normalization: {line}" for line in normalized.notes)
    witness = build_formality_witness(normalized, pairing, N)
    leftovers = verify_witness(witness, witness.transfer)
    status = "FAIL" if leftovers else f"FORMAL-UP-TO-{N}"
    return FormalityVerdict(status, pairing, notes, witness, leftovers)
