"""Built-in example algebras and randomized instance generators.

Two handwritten instances exercise every negative result (a degree-2
algebra that is provably non-formal with no invariant splitting, and a
degree-3 one), one handwritten weighted pair drives the witness
recursion through genuinely nonzero higher terms, and the generators
below produce symplectic, tensor-cell, and two-step random instances
whose validity is structural rather than checked-by-luck.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import GradedVectorSpace, LinearMap, MultilinearMap, Vector
from .cyclic import (
    CyclicPairing, QuasiCyclicDgla, SymplecticRepresentation,
    from_symplectic_representation,
)
from .dgla import DgLieAlgebra
from .documents import AlgebraDocument, document_to_algebra

__all__ = [
    "nocontraction", "noformal_degree3", "weighted_pair", "abelian_base",
    "tensor_cell", "diagonal_symplectic", "random_symplectic",
    "random_two_step", "random_quasi_cyclic_two_step", "perturb_quasi_cyclic",
    "standard_corpus",
]


def _algebra(basis, differential, brackets):
    return document_to_algebra(
        AlgebraDocument("", basis, differential, brackets))


def nocontraction() -> QuasiCyclicDgla:
    """Degree-2 instance with cohomology dimensions (1, 2, 1).

    Its degree-1 self-bracket has an exact value, making the triple
    product of the surviving degree-1 class nonzero; no complement of
    the coboundaries is stable under the degree-0 action.
    """
    A = _algebra(
        basis=[("a", 0), ("b", 0), ("x", 1), ("y", 1), ("p", 1), ("db", 1),
               ("z", 2), ("dp", 2)],
        differential={"b": {"db": 1}, "p": {"dp": 1}},
        brackets={
            # The sign on [a, x] is forced: cyclicity ties it to [p, x]
            # through ([a,x], p) = (a, [x,p]), and closedness pins the
            # pairing.  Flipping any other single table entry instead
            # leaves the form non-cyclic (see tests).
            ("a", "x"): {"db": -1},
            ("a", "p"): {"y": 1},
            ("x", "x"): {"dp": 1},
            ("p", "x"): {"z": 1},
            ("b", "x"): {"y": 1},
        })
    pairing = CyclicPairing(A.space, 2, [
        (("x", "y"), -1),
        (("db", "p"), -1),
        (("a", "z"), 1),
        (("b", "dp"), 1),
    ])
    return QuasiCyclicDgla(A, pairing)


def noformal_degree3() -> QuasiCyclicDgla:
    """Degree-3 instance, non-formal by the same triple-product argument."""
    A = _algebra(
        basis=[("a", 1), ("b", 1), ("x", 2), ("db", 2)],
        differential={"b": {"db": 1}},
        brackets={
            ("a", "a"): {"db": 1},
            ("a", "b"): {"x": 1},
        })
    pairing = CyclicPairing(A.space, 3, [
        (("a", "x"), 1),
        (("b", "db"), 1),
    ])
    return QuasiCyclicDgla(A, pairing)


def weighted_pair() -> QuasiCyclicDgla:
    """Degree-2 instance with a weight-grading action and nonzero quadratic
    inclusion terms.

    The degree-0 generator acts with weights +-1 on the surviving
    degree-1 classes and +-2 on the contractible pair, so the canonical
    splitting is already invariant, while the self-brackets of the
    degree-1 classes are exact: the transfer has nonzero quadratic terms
    and the witness recursion produces genuinely nonzero cubic
    coefficients.  Quasi-cyclic but deliberately degenerate on the whole
    space (the exact images pair with nothing).
    """
    A = _algebra(
        basis=[("g", 0), ("x1", 1), ("x2", 1), ("u1", 1), ("u2", 1),
               ("w", 2), ("du1", 2), ("du2", 2)],
        differential={"u1": {"du1": 1}, "u2": {"du2": 1}},
        brackets={
            ("g", "x1"): {"x1": 1},
            ("g", "x2"): {"x2": -1},
            ("g", "u1"): {"u1": 2},
            ("g", "u2"): {"u2": -2},
            ("g", "du1"): {"du1": 2},
            ("g", "du2"): {"du2": -2},
            ("x1", "x1"): {"du1": 1},
            ("x2", "x2"): {"du2": 1},
            ("x1", "x2"): {"w": 1},
            ("u1", "u2"): {"w": 2},
        })
    pairing = CyclicPairing(A.space, 2, [
        (("g", "w"), 1),
        (("x1", "x2"), 1),
        (("u1", "u2"), 1),
    ])
    return QuasiCyclicDgla(A, pairing)


def abelian_base() -> QuasiCyclicDgla:
    """Four-dimensional abelian cyclic algebra of degree 2 with d = 0."""
    A = _algebra(
        basis=[("e0", 0), ("e1", 1), ("f1", 1), ("f0", 2)],
        differential={},
        brackets={})
    pairing = CyclicPairing(A.space, 2, [
        (("e0", "f0"), 1),
        (("e1", "f1"), 1),
    ])
    return QuasiCyclicDgla(A, pairing)


_CELL_PRODUCT = {("1", "1"): "1", ("1", "t"): "t", ("t", "1"): "t",
                 ("1", "s"): "s", ("s", "1"): "s"}


def tensor_cell(base: QuasiCyclicDgla) -> QuasiCyclicDgla:
    """Tensor a minimal instance with a unit-plus-contractible-cell algebra.

    Each base element x produces x (degree |x|), x.t (degree |x|), and
    x.s (degree |x|+1) with d(x.t) = (-1)^{|x|} x.s; products of cell
    components truncate to zero, so the homotopy kills every bracket
    value and all transferred operations beyond the binary one vanish.
    The pairing survives only on the unit component.
    """
    if not base.algebra.d.is_zero():
        raise ValueError("tensor_cell expects a base with zero differential")
    bspace = base.space
    labels = []
    for i, lbl in enumerate(bspace.labels):
        deg = bspace.degrees[i]
        labels += [(lbl, deg), (f"{lbl}.t", deg), (f"{lbl}.s", deg + 1)]
    space = GradedVectorSpace(labels)

    def part_of(index):
        base_index, slot = divmod(index, 3)
        return base_index, ("1", "t", "s")[slot]

    d_cols = {}
    for i, lbl in enumerate(bspace.labels):
        sign = -1 if bspace.degrees[i] % 2 else 1
        d_cols[space.index(f"{lbl}.t")] = space.vector({f"{lbl}.s": sign})
    d = LinearMap(space, space, 1, d_cols)

    def push(base_vec: Vector, part: str) -> Vector:
        suffix = "" if part == "1" else f".{part}"
        return space.vector({f"{bspace.labels[t]}{suffix}": c
                             for t, c in base_vec.coeffs.items()})

    bracket = MultilinearMap(space, space, 2, 0)
    for i in range(space.dim):
        bi, part_i = part_of(i)
        for j in range(i, space.dim):
            bj, part_j = part_of(j)
            part = _CELL_PRODUCT.get((part_i, part_j))
            if part is None:
                continue
            value = base.algebra.bracket.evaluate(
                [bspace.basis_vector(bi), bspace.basis_vector(bj)])
            if value.is_zero():
                continue
            if part_i == "s" and bspace.degrees[bj] % 2:
                value = -value
            if i == j and space.degrees[i] % 2 == 0:
                continue
            bracket.set_entry((i, j), push(value, part))
    pairing = CyclicPairing(space, base.pairing.degree)
    for (bi, bj), val in base.pairing.entries():
        pairing.set_entry((bspace.labels[bi], bspace.labels[bj]), val)
    return QuasiCyclicDgla(DgLieAlgebra(space, d, bracket), pairing)


# ---------------------------------------------------------------------------
# Symplectic representations
# ---------------------------------------------------------------------------

def _standard_omega(m):
    half = m // 2
    omega = [[0] * m for _ in range(m)]
    for i in range(half):
        omega[i][half + i] = 1
        omega[half + i][i] = -1
    return omega


def diagonal_symplectic() -> SymplecticRepresentation:
    """One-dimensional Lie algebra acting on the plane by diag(1, -1)."""
    return SymplecticRepresentation(
        lie_labels=["g"], lie_brackets={},
        v_labels=["v1", "v2"],
        actions={"g": [[1, 0], [0, -1]]},
        omega=[[0, 1], [-1, 0]])


def random_symplectic(rng: random.Random, violate: bool = False) -> SymplecticRepresentation:
    """Random small instance; the action matrices are built to satisfy the
    symplectic condition exactly, or to break it at one entry."""
    m = rng.choice([2, 4])
    omega = _standard_omega(m)
    half = m // 2

    def sp_matrix():
        sym = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                sym[j][i] = sym[i][j]
        # omega^{-1} = -omega for the standard block form, so -omega * sym
        # gives a matrix with omega * M symmetric
        return [[-sum(omega[i][k] * sym[k][j] for k in range(m))
                 for j in range(m)] for i in range(m)]

    dim_g = 1 if violate else rng.choice([1, 2])
    lie_labels = [f"g{i}" for i in range(1, dim_g + 1)]
    first = sp_matrix()
    actions = {lie_labels[0]: first}
    if dim_g == 2:
        scale = rng.randint(-2, 2)
        actions[lie_labels[1]] = [[scale * c for c in row] for row in first]
    if violate:
        while True:
            mat = [row[:] for row in first]
            i, j = rng.randrange(m), rng.randrange(m)
            mat[i][j] += rng.choice([1, -1, 2])
            check = [[sum(omega[a][k] * mat[k][b] for k in range(m))
                      for b in range(m)] for a in range(m)]
            if any(check[a][b] != check[b][a]
                   for a in range(m) for b in range(m)):
                actions[lie_labels[0]] = mat
                break
    return SymplecticRepresentation(lie_labels, {}, [f"v{i}" for i in range(1, m + 1)],
                                    actions, omega)


# ---------------------------------------------------------------------------
# Two-step random instances
# ---------------------------------------------------------------------------

def random_two_step(rng: random.Random, n_x=2, n_u=2, n_z=1) -> DgLieAlgebra:
    """Random algebra on degrees 1 and 2 with any symmetric degree-1 product.

    The only compositions the axioms constrain are zero for degree
    reasons, so every integer table yields a valid instance, while the
    homotopy of the evident splitting turns the exact part of the
    product into nonzero transferred operations of every arity.
    """
    basis = ([(f"x{i}", 1) for i in range(1, n_x + 1)]
             + [(f"u{i}", 1) for i in range(1, n_u + 1)]
             + [(f"z{i}", 2) for i in range(1, n_z + 1)]
             + [(f"du{i}", 2) for i in range(1, n_u + 1)])
    targets = [f"z{i}" for i in range(1, n_z + 1)] + [f"du{i}" for i in range(1, n_u + 1)]
    ones = [lbl for lbl, deg in basis if deg == 1]
    brackets = {}
    for i, l1 in enumerate(ones):
        for l2 in ones[i:]:
            img = {t: rng.randint(-2, 2) for t in targets}
            img = {t: c for t, c in img.items() if c}
            if img:
                brackets[(l1, l2)] = img
    return _algebra(basis,
                    {f"u{i}": {f"du{i}": 1} for i in range(1, n_u + 1)},
                    brackets)


def random_quasi_cyclic_two_step(rng: random.Random, n_x=2, n_u=2) -> QuasiCyclicDgla:
    """Random quasi-cyclic degree-2 instance with no degree-0 part.

    With nothing in degree 0 and nothing surviving in degree 2, both the
    closedness and cyclicity identities hold for every choice of the
    degree-(1,1) pairing block, so randomizing it (plus a non-degenerate
    block on the surviving classes) is safe by construction.  The random
    cross-pairing between surviving and contractible directions makes
    the orthogonal normalization genuinely move the complement.
    """
    if n_x % 2:
        raise ValueError("need an even number of surviving directions")
    A = random_two_step(rng, n_x=n_x, n_u=n_u, n_z=0)
    pairing = CyclicPairing(A.space, 2)
    half = n_x // 2
    for i in range(half):
        pairing.set_entry((f"x{i + 1}", f"x{half + i + 1}"), rng.choice([1, 1, 2, -1]))
    for i in range(1, n_x + 1):
        for j in range(1, n_u + 1):
            c = rng.randint(-1, 1)
            if c:
                pairing.set_entry((f"x{i}", f"u{j}"), c)
    for i in range(1, n_u + 1):
        for j in range(i + 1, n_u + 1):
            c = rng.randint(-1, 1)
            if c:
                pairing.set_entry((f"u{i}", f"u{j}"), c)
    return QuasiCyclicDgla(A, pairing)


# ---------------------------------------------------------------------------
# Single-constant perturbations
# ---------------------------------------------------------------------------

def _copy_bracket(space, bracket):
    out = MultilinearMap(space, space, 2, 0)
    for key, value in bracket.entries():
        out.set_entry(key, value)
    return out


def perturb_quasi_cyclic(Q: QuasiCyclicDgla, rng: random.Random):
    """Add a small rational to one structure constant, staying degree-legal.

    Returns (description, perturbed instance).  The slot is drawn from
    every degree-compatible position of the bracket, the differential,
    and the pairing, zero entries included, so perturbations can both
    corrupt existing constants and introduce stray ones.
    """
    space = Q.space
    slots = []
    for i in range(space.dim):
        for j in range(i, space.dim):
            if i == j and space.degrees[i] % 2 == 0:
                continue
            for k in range(space.dim):
                if space.degrees[k] == space.degrees[i] + space.degrees[j]:
                    slots.append(("bracket", i, j, k))
    for i in range(space.dim):
        for k in range(space.dim):
            if space.degrees[k] == space.degrees[i] + 1:
                slots.append(("differential", i, k, None))
    for i in range(space.dim):
        for j in range(i, space.dim):
            if i == j and space.degrees[i] % 2:
                continue
            if space.degrees[i] + space.degrees[j] == Q.pairing.degree:
                slots.append(("pairing", i, j, None))
    kind, i, j, k = rng.choice(slots)
    delta = Fraction(rng.choice([1, -1, 2, -2]))
    A = Q.algebra
    if kind == "bracket":
        bracket = _copy_bracket(space, A.bracket)
        old = A.bracket.evaluate_indices((i, j))
        # written past set_entry, which would refuse the changed value
        bracket.table[tuple(sorted((i, j)))] = old + space.basis_vector(k).scale(delta)
        new_A = DgLieAlgebra(space, A.d, bracket)
        desc = (f"bracket [{space.labels[i]}, {space.labels[j]}] shifted by "
                f"{delta}*{space.labels[k]}")
    elif kind == "differential":
        cols = {c: v for c, v in A.d.columns.items()}
        cols[i] = cols.get(i, space.zero()) + space.basis_vector(j).scale(delta)
        new_A = DgLieAlgebra(space, LinearMap(space, space, 1, cols), A.bracket)
        desc = f"d({space.labels[i]}) shifted by {delta}*{space.labels[j]}"
    else:
        new_A = A
        desc = (f"pairing ({space.labels[i]}, {space.labels[j]}) shifted by "
                f"{delta}")
    entries = dict(Q.pairing.entries())
    if kind == "pairing":
        entries[(i, j)] = entries.get((i, j), 0) + delta
    pairing = CyclicPairing(space, Q.pairing.degree, entries)
    return desc, QuasiCyclicDgla(new_A, pairing)


def standard_corpus():
    """The deterministic named instances every golden suite runs over."""
    diag = from_symplectic_representation(diagonal_symplectic())
    rng = random.Random(20240217)
    return [
        ("nocontraction", nocontraction()),
        ("noformal-degree3", noformal_degree3()),
        ("weighted-pair", weighted_pair()),
        ("abelian-base", abelian_base()),
        ("diagonal-symplectic", diag),
        ("cell-abelian", tensor_cell(abelian_base())),
        ("cell-symplectic", tensor_cell(diag)),
        ("random-quasi-cyclic-1", random_quasi_cyclic_two_step(rng)),
        ("random-quasi-cyclic-2", random_quasi_cyclic_two_step(rng, n_x=2, n_u=3)),
    ]
