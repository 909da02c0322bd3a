"""L-infinity structures, their axioms, and homotopy transfer.

The central construction: given a differential graded Lie algebra with a
chosen splitting, build the minimal L-infinity structure on the chosen
cohomology representatives together with the inclusion that witnesses it.
Both are computed by one memoized recursion, level by level in the arity,
and the inclusion's morphism relations are checked in the same walk, each
from the value its level has just computed.  That one check covers the
arity-2 bracket too: with pi d = 0 and pi iota = id, pi of the arity-2
relation reads l_2 = pi[iota x, iota y], the induced cohomology bracket.
The model is minimal by construction, as no level stores an arity-1
bracket.

All operations are graded symmetric with Koszul signs; the arity-n bracket
has degree 2 - n and the arity-n piece of a morphism into a DGLA has
degree 1 - n.

Evaluation strategy: every shuffle sum runs over a canonical (sorted)
tuple, and goes through :func:`core.shuffle_splits`, which merges the
shuffles that pick the same sub-multiset of the tuple into one term, so
a repeated class costs one evaluation per distinct split.  The nested
sums of one operation applied after another (the generalized Jacobi
identities and the right side of the morphism relation) are one
primitive, :func:`core.accumulate_composites`, which also serves the
DG-Lie checks in :mod:`dgla`; it lives in ``core`` because this module
imports ``dgla``.  The half-sums of brackets of two blocks (the
transfer recursion and the left side of the morphism relation) are its
sibling,
:func:`core.accumulate_bracket_halves`: graded antisymmetry of the
stored bracket makes a split and its block swap equal, so each pair is
evaluated once and only a split into two equal halves keeps the weight
1/2.  Sums accumulate in place; the formulas are unchanged.
Every stored map is homogeneous, so a level, relation or identity of
arity n has one degree at a tuple (its input sum plus 2 - n, or 3 - n
for the generalized Jacobi defect), and the loops visit only the tuples
whose degree the target space has (:func:`core.canonical_tuples` with
a shift); on every other tuple the value is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    GradedVectorSpace, MultilinearMap, Vector, accumulate,
    accumulate_bracket_halves, accumulate_composites, canonical_tuples,
    jacobi_defects,
)
from .dgla import DgLieAlgebra, Splitting, Violation, _require_valid

__all__ = [
    "LInftyAlgebra", "check_linfty_axioms",
    "LInftyMorphismToDgla", "check_morphism",
    "TransferResult", "homotopy_transfer",
]

# ---------------------------------------------------------------------------
# L-infinity algebras
# ---------------------------------------------------------------------------

class LInftyAlgebra:
    """An L-infinity structure tracked up to a finite arity bound.

    ``brackets`` maps arity n to the corresponding operation; a missing
    arity at or below the bound means the zero operation, while arities
    above the bound are untracked -- asking about them is an error, not a
    claim that they vanish.
    """

    def __init__(self, space: GradedVectorSpace, brackets, arity_bound: int):
        self.space = space
        self.arity_bound = int(arity_bound)
        if self.arity_bound < 1:
            raise ValueError("arity bound must be at least 1")
        self.brackets = {}
        for n, op in brackets.items():
            n = int(n)
            if not 1 <= n <= self.arity_bound:
                raise ValueError(f"bracket arity {n} outside 1..{self.arity_bound}")
            if op.domain != space or op.codomain != space:
                raise ValueError(f"arity-{n} bracket is not an operation on the space")
            if op.arity != n or op.degree != 2 - n:
                raise ValueError(
                    f"arity-{n} bracket must have arity {n} and degree {2 - n}, "
                    f"got arity {op.arity} and degree {op.degree}")
            if not op.is_zero():
                self.brackets[n] = op

    def operation(self, n: int) -> MultilinearMap:
        """The arity-n operation; the zero map when none is stored."""
        n = int(n)
        if not 1 <= n <= self.arity_bound:
            raise ValueError(
                f"arity {n} is not tracked (bound {self.arity_bound})")
        op = self.brackets.get(n)
        if op is not None:
            return op
        return MultilinearMap(self.space, self.space, n, 2 - n)

    def __repr__(self):
        arities = sorted(self.brackets) or ["none"]
        return (f"LInftyAlgebra(dim {self.space.dim}, brackets at arities "
                f"{arities}, tracked to {self.arity_bound})")


def check_linfty_axioms(A: LInftyAlgebra, up_to: int) -> list:
    """Generalized Jacobi identities for every arity n <= up_to.

    The arity-n identity sums, over splittings n = k + (n-k) and
    (k, n-k)-shuffles, the sign (-1)^(n-k) times the Koszul sign of the
    shuffle, applied to nesting the arity-k operation inside the
    arity-(n-k+1) one: :func:`core.jacobi_defects`, the walk that
    ``validate_dgla`` runs on {1: d, 2: bracket}, where n = 1 is d^2 = 0,
    n = 2 is the Leibniz rule, and n = 3 is Jacobi.
    """
    if up_to < 1:
        raise ValueError("up_to must be at least 1")
    if up_to > A.arity_bound:
        raise ValueError(
            f"cannot check arity {up_to}: brackets are only tracked to "
            f"{A.arity_bound}")
    out = []
    for n in range(1, up_to + 1):
        for idx, defect in jacobi_defects(A.space, A.brackets, n):
            out.append(Violation(
                f"generalized_jacobi_{n}",
                tuple(A.space.labels[i] for i in idx),
                f"defect {defect}"))
    return out


# ---------------------------------------------------------------------------
# Morphisms into a DGLA
# ---------------------------------------------------------------------------

class LInftyMorphismToDgla:
    """An L-infinity morphism from an L-infinity algebra into a DGLA.

    ``taylor`` maps arity n to the degree-(1 - n) component g_n; missing
    arities at or below the bound are zero, higher ones untracked.
    """

    def __init__(self, source: LInftyAlgebra, target: DgLieAlgebra,
                 taylor, arity_bound: int):
        self.source = source
        self.target = target
        self.arity_bound = int(arity_bound)
        if self.arity_bound < 1:
            raise ValueError("arity bound must be at least 1")
        self.taylor = {}
        for n, g in taylor.items():
            n = int(n)
            if not 1 <= n <= self.arity_bound:
                raise ValueError(f"component arity {n} outside 1..{self.arity_bound}")
            if g.domain != source.space or g.codomain != target.space:
                raise ValueError(
                    f"arity-{n} component does not map source into target")
            if g.arity != n or g.degree != 1 - n:
                raise ValueError(
                    f"arity-{n} component must have arity {n} and degree {1 - n}, "
                    f"got arity {g.arity} and degree {g.degree}")
            if not g.is_zero():
                self.taylor[n] = g

    def component(self, n: int) -> MultilinearMap:
        """The arity-n component; the zero map when none is stored."""
        n = int(n)
        if not 1 <= n <= self.arity_bound:
            raise ValueError(
                f"arity {n} is not tracked (bound {self.arity_bound})")
        g = self.taylor.get(n)
        if g is not None:
            return g
        return MultilinearMap(self.source.space, self.target.space, n, 1 - n)

    def __repr__(self):
        arities = sorted(self.taylor) or ["none"]
        return (f"LInftyMorphismToDgla(components at arities {arities}, "
                f"tracked to {self.arity_bound})")


def _check_relation(out: list, total: dict, src, idx, target: DgLieAlgebra,
                    brackets, taylor) -> None:
    """Finish the arity-n relation at a sorted tuple whose bracket half-sum
    is in ``total``: add d g_n(idx), subtract the composite side, and
    append its Violation to ``out`` unless nothing is left."""
    g_n = taylor.get(len(idx))
    if g_n is not None:
        accumulate(total, target.d.apply(g_n.evaluate_indices(idx)))
    accumulate_composites(total, src, idx, brackets, taylor, -1)
    if total:
        out.append(Violation(f"morphism_relation_{len(idx)}",
                             tuple(src.labels[i] for i in idx),
                             f"defect {Vector._owning(target.space, total)}"))


def check_morphism(m: LInftyMorphismToDgla, up_to: int) -> list:
    """Morphism relations for every arity n <= up_to.

    The arity-n relation equates half the twisted shuffle sum of target
    brackets [g_p(...), g_(n-p)(...)] (:func:`core.accumulate_bracket_halves`)
    plus d g_n against the nested shuffle sum of g_(n-k+1) applied after
    the source arity-k bracket (:func:`core.accumulate_composites`),
    subtracted.
    """
    if up_to < 1:
        raise ValueError("up_to must be at least 1")
    if up_to > m.arity_bound or up_to > m.source.arity_bound:
        raise ValueError(
            f"cannot check arity {up_to}: components tracked to "
            f"{m.arity_bound}, source brackets to {m.source.arity_bound}")
    src = m.source.space
    tgt = m.target
    out = []
    for n in range(1, up_to + 1):
        for idx in canonical_tuples(src, n, 2 - n, tgt.space.degrees):
            total = {}
            accumulate_bracket_halves(total, src, idx, m.taylor, tgt.bracket)
            _check_relation(out, total, src, idx, tgt, m.source.brackets,
                            m.taylor)
    return out


# ---------------------------------------------------------------------------
# Homotopy transfer
# ---------------------------------------------------------------------------

@dataclass
class TransferResult:
    """Minimal model on the chosen representatives plus its inclusion.

    ``minimal`` has no arity-1 operation; ``inclusion`` is an L-infinity
    morphism into the ambient algebra whose linear part embeds the
    representatives, checked at construction time.
    """
    algebra: DgLieAlgebra
    splitting: Splitting
    minimal: LInftyAlgebra
    inclusion: LInftyMorphismToDgla
    arity_bound: int


def _level_tables(A: DgLieAlgebra, s: Splitting, N: int):
    """Shared recursion for the inclusion and bracket tables, with the
    inclusion's morphism relations checked in the same walk.

    Level p evaluates, on each canonical tuple of representatives, half
    the shuffle sum of brackets of lower inclusion values; applying the
    contracting homotopy gives the arity-p inclusion component and
    applying the projection gives the arity-p bracket.  That half-sum is
    the left side of the arity-p relation there, which reads iota_p and
    l_p only at the tuple itself, once set; d(iota_1 x) = 0 goes first.
    Returns the tables and the failures in :func:`check_morphism` order.
    """
    H = s.h_space
    iota1 = MultilinearMap(H, A.space, 1, 0)
    for j in range(H.dim):
        iota1.set_entry((j,), s.iota1.apply(H.basis_vector(j)))
    iota_tables = {1: iota1}
    bracket_tables = {}
    failures = []
    for idx in canonical_tuples(H, 1, 1, A.space.degrees):
        _check_relation(failures, {}, H, idx, A, bracket_tables, iota_tables)
    for p in range(2, N + 1):
        iota_p = iota_tables[p] = MultilinearMap(H, A.space, p, 1 - p)
        bracket_p = bracket_tables[p] = MultilinearMap(H, H, p, 2 - p)
        for idx in canonical_tuples(H, p, 2 - p, A.space.degrees):
            total = {}
            accumulate_bracket_halves(total, H, idx, iota_tables, A.bracket)
            if total:
                value = Vector._owning(A.space, dict(total))
                homotopy_part = s.h.apply(value)
                if not homotopy_part.is_zero():
                    iota_p.set_entry(idx, homotopy_part)
                projected = s.pi.apply(value)
                if not projected.is_zero():
                    bracket_p.set_entry(idx, projected)
            _check_relation(failures, total, H, idx, A, bracket_tables,
                            iota_tables)
        if iota_p.is_zero():
            # a missing arity is zero to the level sums
            del iota_tables[p]
    return iota_tables, bracket_tables, failures


def homotopy_transfer(A: DgLieAlgebra, s: Splitting, N: int) -> TransferResult:
    """Transfer the DGLA structure to a minimal model on representatives.

    Requires N >= 2 and a splitting of ``A``, and refuses with ValueError
    a splitting, then an algebra, whose ``violations`` are not empty.  The
    result carries the minimal L-infinity structure on the representative
    space and the inclusion morphism, both computed up to arity N, and the
    inclusion must satisfy the morphism relations up to arity N, checked
    as each level is built and named as :func:`check_morphism` names them.
    With pi d = 0 checked and pi iota = id by construction, pi of the
    arity-2 relation is l_2 = pi[iota x, iota y], so that check also pins
    the arity-2 bracket to the induced cohomology bracket.
    """
    if N < 2:
        raise ValueError("transfer needs arity bound N >= 2")
    if s.algebra is not A:
        raise ValueError("splitting belongs to a different algebra")
    if s.violations:
        details = "; ".join(v.identity for v in s.violations)
        raise ValueError(f"splitting fails verification: {details}")
    _require_valid(A)

    iota_tables, bracket_tables, relation_failures = _level_tables(A, s, N)
    if relation_failures:
        names = "; ".join(f"{v.identity} at {v.where}" for v in relation_failures)
        raise AssertionError(
            f"internal error: inclusion fails its morphism relations: {names}")
    # both constructors keep only the nonzero tables
    minimal = LInftyAlgebra(s.h_space, bracket_tables, N)
    inclusion = LInftyMorphismToDgla(minimal, A, iota_tables, N)
    return TransferResult(A, s, minimal, inclusion, N)

