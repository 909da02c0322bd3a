"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive: different algorithms from the
production code paths, no caching, no pruning, so agreement is evidence
rather than tautology.
"""

import itertools
import random
from fractions import Fraction

from gradedlie.core import Vector
from gradedlie.corpus import perturb_quasi_cyclic
from gradedlie.documents import (
    bundled_documents, document_to_quasi_cyclic, parse_document,
)


def sign_by_inversions(perm, degrees):
    """Koszul sign computed pair-by-pair over inversions (no sorting)."""
    sign = 1
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                if degrees[perm[i]] % 2 == 0 or degrees[perm[j]] % 2 == 0:
                    sign = -sign
    return sign


def signed_lookup_naive(table, degrees, idx):
    """A graded-skew map at basis indices in any order, read off its table
    of canonical entries as a {index: coefficient} dict: the entry at the
    stably sorted indices times the Koszul sign counted over inversions;
    empty when an even-degree index repeats or nothing is stored."""
    order = sorted(range(len(idx)), key=lambda t: idx[t])
    canon = tuple(idx[t] for t in order)
    if any(a == b and degrees[a] % 2 == 0 for a, b in zip(canon, canon[1:])):
        return {}
    value = table.get(canon)
    if value is None:
        return {}
    sign = sign_by_inversions(order, [degrees[i] for i in idx])
    return {j: sign * c for j, c in value.coeffs.items()}


def shuffles_by_filter(k, m):
    """All (k, m)-shuffles found by filtering the full symmetric group."""
    n = k + m
    out = []
    for perm in itertools.permutations(range(n)):
        ok = all(perm[i] < perm[i + 1] for i in range(n - 1) if i + 1 != k)
        if ok:
            out.append(perm)
    return out


def assert_exact_scalar(c):
    """The package's scalar invariant: an int, or a Fraction whose
    denominator is not 1; never a float."""
    assert type(c) in (int, Fraction), c
    assert type(c) is int or c.denominator != 1, c


def transfer_operation_naive(algebra, splitting, kind, args):
    """Recursive transfer operations, recomputed from scratch every call.

    ``kind`` selects the codomain projection: "iota" applies the homotopy
    (images in the big algebra), "bracket" applies the projection onto
    chosen representatives.  ``args`` is a tuple of vectors of the small
    space.  No memoization, no zero pruning, no canonical-tuple tricks:
    arguments are expanded to basis tuples and the double shuffle sum is
    evaluated literally.
    """
    hsp = splitting.h_space
    out_space = algebra.space if kind == "iota" else hsp

    def on_basis(kind, idx):
        p = len(idx)
        degs = [hsp.degrees[i] for i in idx]
        if p == 1:
            vec = hsp.basis_vector(idx[0])
            return splitting.iota1.apply(vec) if kind == "iota" else vec
        total = algebra.space.zero() if kind == "iota" else hsp.zero()
        for k in range(1, p):
            for sigma in itertools.permutations(range(p)):
                inc = all(sigma[i] < sigma[i + 1] for i in range(p - 1) if i + 1 != k)
                if not inc:
                    continue
                sign = sign_by_inversions(sigma, degs)
                alpha = (1 - p + k) * (k + sum(degs[sigma[i]] for i in range(k)))
                if alpha % 2:
                    sign = -sign
                left = on_basis("iota", tuple(idx[sigma[i]] for i in range(k)))
                right = on_basis("iota", tuple(idx[sigma[i]] for i in range(k, p)))
                inner = algebra.bracket.evaluate([left, right])
                if kind == "iota":
                    term = splitting.h.apply(inner)
                else:
                    term = splitting.pi.apply(inner)
                total = total + term.scale(Fraction(sign, 2))
        return total

    supports = [sorted(a.coeffs.items()) for a in args]
    result = out_space.zero()
    for combo in itertools.product(*supports):
        coeff = Fraction(1)
        for _, c in combo:
            coeff *= c
        term = on_basis(kind, tuple(i for i, _ in combo))
        result = result + term.scale(coeff)
    return result


def transfer_tables_naive(algebra, splitting, kind, arity):
    """Full table of a transfer operation on canonical basis tuples."""
    hsp = splitting.h_space
    table = {}
    for idx in itertools.combinations_with_replacement(range(hsp.dim), arity):
        if any(a == b and hsp.degrees[a] % 2 == 0 for a, b in zip(idx, idx[1:])):
            continue
        value = transfer_operation_naive(
            algebra, splitting, kind, [hsp.basis_vector(i) for i in idx])
        if not value.is_zero():
            table[idx] = value
    return table


def build_algebra(basis, differential, brackets):
    """Small DGLA from label dictionaries (shared by hand-built fixtures)."""
    from gradedlie.core import GradedVectorSpace, LinearMap, MultilinearMap
    from gradedlie.dgla import DgLieAlgebra
    space = GradedVectorSpace(basis)
    d = LinearMap(space, space, 1,
                  {space.index(src): space.vector(img)
                   for src, img in differential.items()})
    bracket = MultilinearMap(space, space, 2, 0)
    for pair, img in brackets.items():
        bracket.set_entry(pair, space.vector(img))
    return DgLieAlgebra(space, d, bracket)


def permute_basis(Q, perm):
    """The same algebra-with-pairing, basis listed in a new order.

    Everything observable (validity, ranks, cohomology dimensions,
    classification) must be unchanged by this; tests use it as the
    relabeling-invariance oracle.
    """
    from gradedlie.core import GradedVectorSpace, LinearMap, MultilinearMap
    from gradedlie.cyclic import CyclicPairing, QuasiCyclicDgla
    from gradedlie.dgla import DgLieAlgebra
    space = Q.space
    labels = [space.labels[p] for p in perm]
    new = GradedVectorSpace(
        [(lbl, space.degrees[space.index(lbl)]) for lbl in labels])

    def move(vec):
        return new.vector({space.labels[i]: c for i, c in vec.coeffs.items()})

    d = LinearMap(new, new, 1,
                  {new.index(space.labels[i]): move(col)
                   for i, col in Q.algebra.d.columns.items()})
    bracket = MultilinearMap(new, new, 2, 0)
    for (i, j), value in Q.algebra.bracket.entries():
        bracket.set_entry((new.index(space.labels[i]), new.index(space.labels[j])),
                          move(value))
    form = CyclicPairing(new, Q.pairing.degree)
    for (i, j), c in Q.pairing.entries():
        form.set_entry((space.labels[i], space.labels[j]), c)
    return QuasiCyclicDgla(DgLieAlgebra(new, d, bracket), form)


def rref_naive(rows):
    """Gauss-Jordan elimination in plain Fractions: every pivot row is
    divided through, every row is rebuilt whole, nothing is normalized.
    Same pivot rule as the production code (first nonzero entry, columns
    left to right, rows top to bottom), so the reduced forms must agree."""
    rows = [[Fraction(c) for c in r] for r in rows]
    pivots = []
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [c / rows[r][col] for c in rows[r]]
        for i in range(len(rows)):
            if i != r:
                rows[i] = [a - rows[i][col] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve_naive(rows, rhs):
    """(solution with free variables 0, or None; kernel basis), by two
    separate naive eliminations."""
    nvars = len(rows[0]) if rows else 0
    red, pivots = rref_naive([list(r) + [b] for r, b in zip(rows, rhs)])
    solution = None
    if nvars not in pivots:
        solution = [Fraction(0)] * nvars
        for r, col in enumerate(pivots):
            solution[col] = red[r][nvars]
    red, pivots = rref_naive(rows)
    kernel = []
    for f in range(nvars):
        if f in pivots:
            continue
        vec = [Fraction(0)] * nvars
        vec[f] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -red[r][f]
        kernel.append(vec)
    return solution, kernel


def _rank_naive(vectors):
    return len(rref_naive([v.dense() for v in vectors])[1]) if vectors else 0


def independent_positions_naive(vectors):
    """Positions t where ``vectors[t]`` raises the rank of the vectors
    before it, with two eliminations per position."""
    return [t for t in range(len(vectors))
            if _rank_naive(vectors[:t + 1]) > _rank_naive(vectors[:t])]


def complement_naive(candidates, inside):
    """Greedy complement of span(inside): walk the candidates and keep
    each one that raises the rank, with one elimination per candidate."""
    picked = []
    rank = _rank_naive(inside)
    for cand in candidates:
        new_rank = _rank_naive(list(inside) + picked + [cand])
        if new_rank > rank:
            picked.append(cand)
            rank = new_rank
    return picked


def canonical_splitting_naive(algebra):
    """H and K of the canonical splitting, degree by degree: the cocycles
    from a naive kernel solve, H their greedy complement of the
    coboundaries, K the earliest basis vectors whose images raise the
    rank of the images picked so far.  Sorted by degree, then by pick."""
    L = algebra.space
    images = [algebra.d.apply(L.basis_vector(i)) for i in range(L.dim)]
    rows = [[img.coeffs.get(j, 0) for img in images] for j in range(L.dim)]
    kernel = [Vector(L, {i: c for i, c in enumerate(vec) if c})
              for vec in solve_naive(rows, [0] * L.dim)[1]]
    h, k = [], []
    for deg in sorted(set(L.degrees)):
        coboundaries = [v for v in images if v.degree() == deg]
        h += complement_naive([v for v in kernel if v.degree() == deg],
                              coboundaries)
        picked = []
        for i in L.indices_of_degree(deg):
            if _rank_naive(picked + [images[i]]) > len(picked):
                picked.append(images[i])
                k.append(L.basis_vector(i))
    return h, k


def detect_nonformality_naive(algebra, splitting):
    """The first Massey certificate of the scan, by brute force, as
    (triple labels, class repr, indeterminacy reprs), or None.

    Every ordered triple of representatives is visited in the scan's
    order (diagonal, then non-decreasing, then the rest), nothing is
    pruned or cached: each triple recomputes its inner brackets, both
    primitives and its whole indeterminacy, whose echelon basis and span
    test come from naive eliminations."""
    reps, H = splitting.h_vectors, splitting.h_space
    pi, h = splitting.pi.apply, splitting.h.apply
    for v in reps:
        if not algebra.d.apply(v).is_zero():
            raise ValueError(f"triple-product input is not a cocycle: {v}")

    def bracket(u, v):
        return algebra.bracket.evaluate([u, v])

    n = len(reps)
    order, seen = [], set()
    for t in ([(i, i, i) for i in range(n)]
              + list(itertools.combinations_with_replacement(range(n), 3))
              + list(itertools.product(range(n), repeat=3))):
        if t not in seen:
            seen.add(t)
            order.append(t)
    for t in order:
        a, b, c = (reps[i] for i in t)
        ab, bc = bracket(a, b), bracket(b, c)
        if not pi(ab).is_zero() or not pi(bc).is_zero():
            continue
        xi, eta = h(ab).scale(-1), h(bc).scale(-1)
        sign = -1 if a.degree() % 2 else 1
        representative = bracket(xi, c) - bracket(a, eta).scale(sign)
        if not algebra.d.apply(representative).is_zero():
            continue
        candidates = []
        for w in reps:
            if w.degree() == b.degree() + c.degree() - 1:
                candidates.append(pi(bracket(a, w)).dense())
            if w.degree() == a.degree() + b.degree() - 1:
                candidates.append(pi(bracket(w, c)).dense())
        red, pivots = rref_naive(candidates) if candidates else ([], [])
        indeterminacy = [Vector(H, dict(enumerate(red[r])))
                         for r in range(len(pivots))]
        value = pi(representative)
        if _rank_naive(indeterminacy + [value]) > len(indeterminacy):
            return (tuple(repr(v) for v in (a, b, c)), repr(value),
                    [repr(v) for v in indeterminacy])
    return None


def splitting_maps_naive(splitting):
    """The projection and homotopy columns of a splitting, one solve per
    basis vector: e_l = sum_t x_t v_t over v = H + d(K) + K, then
    pi(e_l) = x restricted to H and h(e_l) = -sum_j x_(K, j) k_j."""
    L = splitting.algebra.space
    total = splitting.h_vectors + splitting.dk_vectors + splitting.k_vectors
    nh, nk = len(splitting.h_vectors), len(splitting.k_vectors)
    rows = [[v.coeffs.get(j, 0) for v in total] for j in range(L.dim)]
    pi_cols, h_cols = {}, {}
    for l in range(L.dim):
        coords, _ = solve_naive(rows, [Fraction(int(j == l)) for j in range(L.dim)])
        assert coords is not None
        pi = {i: coords[i] for i in range(nh) if coords[i]}
        if pi:
            pi_cols[l] = pi
        h = {}
        for j in range(nk):
            for i, c in splitting.k_vectors[j].coeffs.items():
                h[i] = h.get(i, Fraction(0)) - coords[nh + j] * c
        h = {i: c for i, c in h.items() if c}
        if h:
            h_cols[l] = h
    return pi_cols, h_cols


def _dense_product(X, Y, ncols):
    """X @ Y for row-list matrices, Y having ``ncols`` columns."""
    return [[sum((row[t] * Y[t][c] for t in range(len(Y))), Fraction(0))
             for c in range(ncols)] for row in X]


def contraction_violations_naive(splitting):
    """d iota = 0, pi d = 0 and dh + hd = iota pi - id as dense matrix
    products, with pi and h from :func:`splitting_maps_naive`: one
    (identity, labels, "got ..., expected ...") per basis column where the
    two sides differ, the identities in that order."""
    A = splitting.algebra
    L, H = A.space, splitting.h_space
    n, m = L.dim, H.dim
    pi_cols, h_cols = splitting_maps_naive(splitting)

    def matrix(columns, nrows, ncols):
        return [[Fraction(columns.get(c, {}).get(r, 0)) for c in range(ncols)]
                for r in range(nrows)]

    D = matrix({i: v.coeffs for i, v in A.d.columns.items()}, n, n)
    I = matrix({i: v.coeffs for i, v in enumerate(splitting.h_vectors)}, n, m)
    P = matrix(pi_cols, m, n)
    h = matrix(h_cols, n, n)
    dh, hd, ip = (_dense_product(D, h, n), _dense_product(h, D, n),
                  _dense_product(I, P, n))
    checks = [
        ("d_iota", H, L, _dense_product(D, I, m), [[0] * m for _ in range(n)]),
        ("pi_d", L, H, _dense_product(P, D, n), [[0] * n for _ in range(m)]),
        ("homotopy", L, L,
         [[dh[r][c] + hd[r][c] for c in range(n)] for r in range(n)],
         [[ip[r][c] - (r == c) for c in range(n)] for r in range(n)]),
    ]
    out = []
    for name, domain, codomain, got, expected in checks:
        for c in range(domain.dim):
            got_c = {r: row[c] for r, row in enumerate(got)}
            expected_c = {r: row[c] for r, row in enumerate(expected)}
            if got_c != expected_c:
                out.append((f"contraction:{name}", (domain.labels[c],),
                            f"got {Vector(codomain, got_c)}, "
                            f"expected {Vector(codomain, expected_c)}"))
    return out


def pairing_value_naive(form, u, v):
    """(u, v) from the form's upper-half ``entries()`` alone: a stored
    (i, j) entry c adds u_i v_j c, and for i < j also the mirrored
    u_j v_i (-1)^{|i||j|} c.  Reads neither the Gram rows nor the form's
    own evaluation."""
    degrees = form.space.degrees
    total = 0
    for (i, j), c in form.entries():
        total += u.coefficient(i) * v.coefficient(j) * c
        if i != j:
            total += ((-1) ** (degrees[i] * degrees[j])
                      * u.coefficient(j) * v.coefficient(i) * c)
    return total


def pairing_closed_violations_naive(Q):
    """(d e_i, e_j) - (-1)^{|i|+1} (e_i, d e_j) on all dim^2 ordered basis
    pairs, as (labels, defect text) in (i, j) order."""
    A, form = Q.algebra, Q.pairing
    space = A.space
    images = [A.d.apply(space.basis_vector(j)) for j in range(space.dim)]
    out = []
    for i in range(space.dim):
        sign = (-1) ** (space.degrees[i] + 1)
        for j in range(space.dim):
            defect = (
                pairing_value_naive(form, images[i], space.basis_vector(j))
                - sign * pairing_value_naive(form, space.basis_vector(i),
                                             images[j]))
            if defect:
                out.append(((space.labels[i], space.labels[j]),
                            f"defect {defect}"))
    return out


def pairing_cyclic_violations_naive(Q):
    """([e_i, e_j], e_k) - (e_i, [e_j, e_k]) on all dim^3 ordered basis
    triples, as (labels, defect text) in (i, j, k) order."""
    A, form = Q.algebra, Q.pairing
    space = A.space
    out = []
    for i in range(space.dim):
        ei = space.basis_vector(i)
        for j in range(space.dim):
            ej = space.basis_vector(j)
            left = A.bracket.evaluate([ei, ej])
            for k in range(space.dim):
                ek = space.basis_vector(k)
                defect = (pairing_value_naive(form, left, ek)
                          - pairing_value_naive(form, ei,
                                                A.bracket.evaluate([ej, ek])))
                if defect:
                    out.append(((space.labels[i], space.labels[j],
                                 space.labels[k]), f"defect {defect}"))
    return out


def morphism_violations_naive(morphism, up_to):
    """The morphism relations of an L-infinity morphism into a DGLA, as
    (identity, labels, defect text), by the full double shuffle sums.

    Every (p, n-p)-shuffle of every split is evaluated, both halves of
    each swapped pair of blocks included, and the bracket sum is halved
    at the end; the composition side runs over every (k, n-k)-shuffle.
    Shuffles come from filtering the symmetric group and signs from
    counting inversions, so nothing is shared with ``check_morphism``.
    """
    src = morphism.source.space
    tgt = morphism.target
    out = []
    for n in range(1, up_to + 1):
        for idx in itertools.combinations_with_replacement(range(src.dim), n):
            degs = [src.degrees[i] for i in idx]
            if any(a == b and src.degrees[a] % 2 == 0
                   for a, b in zip(idx, idx[1:])):
                continue
            brackets = tgt.space.zero()
            for p in range(1, n):
                g_left = morphism.component(p)
                g_right = morphism.component(n - p)
                for sigma in shuffles_by_filter(p, n - p):
                    sign = sign_by_inversions(sigma, degs)
                    alpha = (1 - n + p) * (p + sum(degs[s] for s in sigma[:p]))
                    if alpha % 2:
                        sign = -sign
                    left = g_left.evaluate_indices([idx[s] for s in sigma[:p]])
                    right = g_right.evaluate_indices([idx[s] for s in sigma[p:]])
                    term = tgt.bracket.evaluate([left, right])
                    brackets = brackets + term.scale(sign)
            lhs = (brackets.scale(Fraction(1, 2))
                   + tgt.d.apply(morphism.component(n).evaluate_indices(idx)))
            rhs = tgt.space.zero()
            for k in range(1, n + 1):
                inner = morphism.source.operation(k)
                g_out = morphism.component(n - k + 1)
                for sigma in shuffles_by_filter(k, n - k):
                    sign = sign_by_inversions(sigma, degs)
                    if (n - k) % 2:
                        sign = -sign
                    head = inner.evaluate_indices([idx[s] for s in sigma[:k]])
                    args = [head] + [src.basis_vector(idx[s]) for s in sigma[k:]]
                    rhs = rhs + g_out.evaluate(args).scale(sign)
            defect = lhs - rhs
            if not defect.is_zero():
                out.append((f"morphism_relation_{n}",
                            tuple(src.labels[i] for i in idx),
                            f"defect {defect}"))
    return out


def _all_canonical_tuples(space, n):
    """Every weakly increasing basis tuple without a repeated even index;
    no degree pruning."""
    for idx in itertools.combinations_with_replacement(range(space.dim), n):
        if not any(a == b and space.degrees[a] % 2 == 0
                   for a, b in zip(idx, idx[1:])):
            yield idx


def dgla_violations_naive(algebra):
    """The Leibniz and Jacobi violations of a DGLA, as (identity, labels,
    defect text), on every canonical pair and triple.

    Leibniz: d[e_i, e_j] - [d e_i, e_j] - (-1)^|i| [e_i, d e_j].  Jacobi:
    the sum over (2, 1)-shuffles of sign * [[., .], .], shuffles from
    filtering the symmetric group and signs from counting inversions.
    """
    space, d, bracket = algebra.space, algebra.d, algebra.bracket
    e = space.basis_vector
    out = []
    for i, j in _all_canonical_tuples(space, 2):
        term = bracket.evaluate([e(i), d.apply(e(j))])
        if space.degrees[i] % 2:
            term = term.scale(-1)
        defect = (d.apply(bracket.evaluate([e(i), e(j)]))
                  - bracket.evaluate([d.apply(e(i)), e(j)]) - term)
        if not defect.is_zero():
            out.append(("leibniz", (space.labels[i], space.labels[j]),
                        f"defect {defect}"))
    for idx in _all_canonical_tuples(space, 3):
        degs = [space.degrees[i] for i in idx]
        defect = space.zero()
        for sigma in shuffles_by_filter(2, 1):
            inner = bracket.evaluate([e(idx[sigma[0]]), e(idx[sigma[1]])])
            term = bracket.evaluate([inner, e(idx[sigma[2]])])
            defect = defect + term.scale(sign_by_inversions(sigma, degs))
        if not defect.is_zero():
            out.append(("jacobi", tuple(space.labels[i] for i in idx),
                        f"defect {defect}"))
    return out


def linfty_axiom_violations_naive(structure, up_to):
    """The generalized Jacobi violations of an L-infinity algebra, as
    (identity, labels, defect text), on every canonical tuple of every
    arity n <= up_to: the full sum over k and (k, n-k)-shuffles of
    (-1)^(n-k) times the Koszul sign of l_(n-k+1)(l_k(...), ...)."""
    space = structure.space
    out = []
    for n in range(1, up_to + 1):
        for idx in _all_canonical_tuples(space, n):
            degs = [space.degrees[i] for i in idx]
            defect = space.zero()
            for k in range(1, n + 1):
                inner = structure.operation(k)
                outer = structure.operation(n - k + 1)
                for sigma in shuffles_by_filter(k, n - k):
                    sign = sign_by_inversions(sigma, degs)
                    if (n - k) % 2:
                        sign = -sign
                    head = inner.evaluate_indices([idx[s] for s in sigma[:k]])
                    args = [head] + [space.basis_vector(idx[s])
                                     for s in sigma[k:]]
                    defect = defect + outer.evaluate(args).scale(sign)
            if not defect.is_zero():
                out.append((f"generalized_jacobi_{n}",
                            tuple(space.labels[i] for i in idx),
                            f"defect {defect}"))
    return out


def lie_jacobi_cyclic_sums_naive(labels, brackets):
    """The classical Jacobi sum [[a, b], c] + [[b, c], a] + [[c, a], b] of
    a degree-0 Lie bracket at every ordered label triple where it does not
    vanish, as {(a, b, c): {label: Fraction}}.  The bracket is read from
    the ordered-pair expansions ``brackets`` and extended by
    antisymmetry, on plain dicts."""
    table = {}
    for (x, y), expansion in brackets.items():
        table[(x, y)] = {l: Fraction(c) for l, c in expansion.items()}
        table[(y, x)] = {l: -Fraction(c) for l, c in expansion.items()}

    def bracket(u, v):
        out = {}
        for x, a in u.items():
            for y, b in v.items():
                for l, c in table.get((x, y), {}).items():
                    out[l] = out.get(l, 0) + a * b * c
        return {l: c for l, c in out.items() if c}

    sums = {}
    for a, b, c in itertools.product(labels, repeat=3):
        total = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for l, v in bracket(bracket({x: 1}, {y: 1}), {z: 1}).items():
                total[l] = total.get(l, 0) + v
        total = {l: v for l, v in total.items() if v}
        if total:
            sums[(a, b, c)] = total
    return sums


def degree_rich_algebras(edits_per_document=6):
    """(name, DGLA) inputs whose checks have tuples on both sides of the
    degree prune: the bundled documents that have such tuples, seeded
    ``perturb_quasi_cyclic`` edits of each, and ``nocontraction`` plus
    ``[a, b] = b``, which breaks Leibniz and Jacobi."""
    out = []
    texts = dict(bundled_documents())
    for name in ("diagonal-symplectic", "nocontraction", "weighted-pair"):
        Q = document_to_quasi_cyclic(parse_document(texts[name]))
        out.append((name, Q.algebra))
        rng = random.Random(name)
        for _ in range(edits_per_document):
            desc, edited = perturb_quasi_cyclic(Q, rng)
            out.append((f"{name}: {desc}", edited.algebra))
    bad = texts["nocontraction"].replace("  [b, x] = y\n",
                                         "  [b, x] = y\n  [a, b] = b\n")
    out.append(("nocontraction + [a, b] = b",
                document_to_quasi_cyclic(parse_document(bad)).algebra))
    return out
