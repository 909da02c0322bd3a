"""Exact graded linear algebra over the rationals.

Graded vector spaces with a distinguished ordered basis, homogeneous
linear and multilinear maps stored as sparse tables, Koszul signs,
shuffle permutations, and dense Gaussian elimination for the small
exact systems solved elsewhere in the library.

Scalars are exact rationals: a value whose denominator is 1 is stored
as an ``int``, any other as a ``fractions.Fraction`` (positive
denominator, gcd-reduced); never a float.  The two types compare and
hash equal, so the choice never shows in results, but it keeps most
arithmetic off the slow ``Fraction`` path.  All public values are
treated as immutable after construction, so they can be shared freely;
sums accumulate in place only into a dict that no :class:`Vector` owns
yet.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Scalar", "as_scalar", "format_scalar",
    "GradedVectorSpace", "Vector", "LinearMap", "MultilinearMap",
    "koszul_sign", "enumerate_shuffles", "signed_shuffles",
    "repeat_pattern", "shuffle_splits", "half_sum_splits",
    "accumulate", "accumulate_composites",
    "accumulate_bracket_halves", "jacobi_defects",
    "rref", "solve_dense", "kernel_vectors", "echelon_vectors",
    "coordinates_in_span", "independent_positions", "extend_to_complement",
]

Scalar = Fraction


def _exact(x):
    """The int-or-Fraction form of an exact scalar."""
    if x.__class__ is not int and x.denominator == 1:
        return x.numerator
    return x


def as_scalar(value):
    """Coerce ints, Fractions and strings like ``-3/7`` to an exact scalar."""
    if value.__class__ is int:
        return value
    if isinstance(value, Fraction):
        return _exact(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return _exact(Fraction(value.strip()))
    raise TypeError(f"not an exact scalar: {value!r}")


def format_scalar(x) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Signs and shuffles
# ---------------------------------------------------------------------------

def _koszul_sort(seq, parities):
    """Stable insertion sort of ``seq`` with the Koszul sign it picks up.

    ``parities[x]`` is the degree parity of element x.  Returns ``(sorted
    tuple, sign)``, or ``(None, 0)`` when an even element repeats.  Each
    adjacent swap of elements of degrees a, b contributes ``-(-1)**(a*b)``.
    """
    seq = list(seq)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            if not (parities[seq[j - 1]] and parities[seq[j]]):
                sign = -sign
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            j -= 1
    for a, b in zip(seq, seq[1:]):
        if a == b and not parities[a]:
            return None, 0
    return tuple(seq), sign


def koszul_sign(perm, degrees) -> int:
    """Sign relating a permuted wedge of graded elements to the ordered one.

    ``perm`` lists positions, so the permuted word is
    ``v[perm[0]], ..., v[perm[n-1]]`` and the returned sign s satisfies
    ``wedge(permuted word) == s * wedge(v[0], ..., v[n-1])``.  Each adjacent
    swap of elements of degrees a, b contributes ``-(-1)**(a*b)``; in
    particular the sign is +1 for every permutation of odd-degree elements.
    """
    perm = list(perm)
    n = len(perm)
    if len(degrees) != n:
        raise ValueError("permutation and degree list have different lengths")
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    return _koszul_sort(perm, [d % 2 for d in degrees])[1]


@lru_cache(maxsize=None)
def enumerate_shuffles(k: int, m: int) -> tuple:
    """All (k, m)-shuffles of 0..k+m-1, increasing inside each block.

    Returned as position tuples usable directly with :func:`koszul_sign`.
    There are binomial(k+m, k) of them.
    """
    if k < 0 or m < 0:
        raise ValueError("shuffle block sizes must be nonnegative")
    n = k + m
    out = []
    for first in itertools.combinations(range(n), k):
        second = tuple(i for i in range(n) if i not in first)
        out.append(first + second)
    return tuple(out)


@lru_cache(maxsize=None)
def signed_shuffles(k: int, m: int, parities: tuple) -> tuple:
    """The (k, m)-shuffles paired with their Koszul signs.

    ``parities`` holds ``degree % 2`` of each of the k + m inputs.  The
    sign of a shuffle depends on the degrees only through these, so the
    pairs are computed once per pattern and then shared.
    """
    return tuple((sigma, koszul_sign(sigma, parities))
                 for sigma in enumerate_shuffles(k, m))


def repeat_pattern(idx) -> tuple:
    """Which entries of a sorted tuple equal the one before them.

    With the parities, this is all :func:`shuffle_splits` needs to know
    about the tuple.
    """
    return tuple([a == b for a, b in zip(idx, idx[1:])])


def _run_ids(repeats) -> list:
    """Position -> index of its run of equal entries."""
    run = [0]
    for same in repeats:
        run.append(run[-1] if same else run[-1] + 1)
    return run


@lru_cache(maxsize=None)
def shuffle_splits(k: int, m: int, parities: tuple, repeats: tuple,
                   twisted: bool = False) -> tuple:
    """The distinct terms of a (k, m)-shuffle sum over a sorted tuple.

    A shuffle sum applies some F(first block, second block) to each
    (k, m)-shuffle of a sorted tuple, times the shuffle's sign.  Both
    blocks come out sorted, so shuffles that pick the same sub-multiset
    for the first block give the same term: they merge into one, with
    their signs summed, and terms whose signs cancel are dropped.  Only
    the tuple's ``parities`` and ``repeat_pattern`` matter, so the terms
    are computed once per pattern, as ``(first positions, second
    positions, coefficient)`` with the positions of one of the merged
    shuffles.

    The sign is the Koszul sign, or with ``twisted`` that sign times
    (-1)^((1 - n + k)(k + parity of the first block)), n = k + m: the
    sign of a bracket of two L-infinity blocks, as in the transfer
    recursion and the morphism relation.  The twist is trivial at n = 2
    and the twisted sign is +1 on all-odd inputs; both are asserted.
    """
    n = k + m
    run = _run_ids(repeats)
    merged = {}
    for sigma, sign in signed_shuffles(k, m, parities):
        if twisted:
            alpha = (1 - n + k) * (k + sum(parities[s] for s in sigma[:k]))
            assert n != 2 or alpha % 2 == 0, \
                "internal error: arity-2 side sign must vanish"
            if alpha % 2:
                sign = -sign
            assert sign == 1 or not all(parities), \
                "internal error: transfer signs must collapse to +1 on " \
                "all-odd inputs"
        key = tuple(run[s] for s in sigma[:k])
        if key in merged:
            merged[key][2] += sign
        else:
            merged[key] = [sigma[:k], sigma[k:], sign]
    return tuple((first, second, c) for first, second, c in merged.values()
                 if c)


@lru_cache(maxsize=None)
def half_sum_splits(n: int, parities: tuple, repeats: tuple) -> tuple:
    """The distinct terms of half the symmetric two-block shuffle sum.

    The sum runs over every k = 1..n-1 and is twisted as in
    :func:`shuffle_splits`, with a term G(F_k(first), F_(n-k)(second))
    that a block swap leaves unchanged: G is a stored graded-antisymmetric
    bracket and each F_k a stored map of degree 1 - k, so the term at k
    and its swap at n - k are equal.  Each pair is therefore kept once at
    full weight: every k < n - k, and for k = n - k the split whose first
    block sorts before its second.  A split into two equal halves is its
    own swap and keeps weight 1/2.  Returned as ``(k, terms)`` pairs for
    k = 1..n//2, ``terms`` as in :func:`shuffle_splits`.
    """
    run = _run_ids(repeats)
    out = []
    for k in range(1, n // 2 + 1):
        terms = shuffle_splits(k, n - k, parities, repeats, True)
        if 2 * k == n:
            kept = []
            for first, second, c in terms:
                left = [run[s] for s in first]
                right = [run[s] for s in second]
                if left < right:
                    kept.append((first, second, c))
                elif left == right:
                    kept.append((first, second, _exact(Fraction(c, 2))))
            terms = tuple(kept)
        out.append((k, terms))
    return tuple(out)


def canonical_tuples(space, arity, shift=None, degrees=None) -> tuple:
    """Canonical basis-index tuples of a given arity, in sorted order.

    Weakly increasing tuples, skipping those that repeat an even-degree
    index (forced to zero by graded symmetry).

    With a ``shift``, only the tuples whose degree sum plus ``shift`` is
    one of ``degrees`` (the target's degrees; the space's own when not
    given) are yielded, still in sorted order.  A homogeneous map whose
    value at a tuple has degree (input sum) + shift is zero on every
    other tuple, so a loop that evaluates such a map needs only these;
    the prune is sound exactly when every map it evaluates is
    homogeneous, which ``LinearMap`` and ``MultilinearMap.set_entry``
    enforce.  The tuples are grown index by index from a table of the
    degree sums still reachable with r entries drawn from index i on, and
    a prefix is kept only while one of them completes a target degree: no
    infeasible tuple or prefix is visited, and a space with no feasible
    tuple costs only the table.  Without a shift every reachable sum is
    a target.  The tuples are computed once per (degrees, arity, shifted
    targets), as :func:`shuffle_splits` terms are.
    """
    targets = None if shift is None else frozenset(
        t - shift for t in (space.degrees if degrees is None else degrees))
    return _canonical_tuples(space.degrees, arity, targets)


@lru_cache(maxsize=None)
def _canonical_tuples(degs, arity, targets) -> tuple:
    dim = len(degs)
    # next_start[i]: where the entry after index i may start (an odd index
    # may repeat); reach[r][i]: degree sums of canonical r-tuples >= i
    next_start = [i if d % 2 else i + 1 for i, d in enumerate(degs)]
    reach = [[frozenset((0,))] * (dim + 1)]
    for r in range(1, arity + 1):
        below = reach[r - 1]
        row = [frozenset()] * (dim + 1)
        for i in range(dim - 1, -1, -1):
            d = degs[i]
            row[i] = row[i + 1].union([d + s for s in below[next_start[i]]])
        reach.append(row)
    if targets is None:
        targets = reach[arity][0]
    if targets.isdisjoint(reach[arity][0]):
        return ()
    # frontier of feasible sorted prefixes: (prefix, next start, degree sum);
    # the feasible next entries depend only on (next start, degree sum)
    frontier = [((), 0, 0)]
    for r in range(arity, 0, -1):
        here, below = reach[r], reach[r - 1]
        entries = {}
        grown = []
        for prefix, start, total in frontier:
            key = (start, total)
            options = entries.get(key)
            if options is None:
                options = entries[key] = []
                for j in range(start, dim):
                    # here[j] shrinks as j grows: nothing further lands
                    if targets.isdisjoint([s + total for s in here[j]]):
                        break
                    s = total + degs[j]
                    nxt = next_start[j]
                    if not targets.isdisjoint([t + s for t in below[nxt]]):
                        options.append(((j,), nxt, s))
            grown += [(prefix + j, nxt, s) for j, nxt, s in options]
        frontier = grown
    return tuple([prefix for prefix, _, _ in frontier])


def accumulate_composites(total: dict, space, idx, inner_ops, outer_ops,
                          factor=1) -> None:
    """Add ``factor`` times the nested shuffle sum at a sorted tuple.

    The sum is, over k = 1..n (n = len(idx)), (-1)^(n-k) times the
    (k, n-k)-shuffle sum of the Koszul sign times
    outer_(n-k+1)(inner_k(first block), rest), with ``inner_ops`` and
    ``outer_ops`` mapping arity to :class:`MultilinearMap` (a missing
    arity is zero).  The inner value is read off its table at the sorted
    first block; the outer operation, linear in its first slot, at the
    sorted tail with each coefficient index i of it inserted, the sign of
    that move going into the factor.  The shuffles go through
    :func:`shuffle_splits`; ``total`` is a caller-owned coefficient dict.
    """
    n = len(idx)
    parities = tuple([space.parities[i] for i in idx])
    repeats = repeat_pattern(idx)
    for k in range(1, n + 1):
        inner = inner_ops.get(k)
        outer = outer_ops.get(n - k + 1)
        if inner is None or outer is None:
            continue
        sign = -factor if (n - k) % 2 else factor
        inner_table, outer_table = inner.table, outer.table
        outer_parities = outer.domain.parities
        for first, rest, c in shuffle_splits(k, n - k, parities, repeats):
            head = inner_table.get(tuple([idx[s] for s in first]))
            if head is None:
                continue
            tail = tuple([idx[s] for s in rest])
            scale = c * sign
            for i, a in head.coeffs.items():
                # each swap past a smaller entry is -1 unless both are odd
                pos = bisect_left(tail, i)
                odd = outer_parities[i]
                if not odd and pos < n - k and tail[pos] == i:
                    continue
                s = scale
                for t in tail[:pos]:
                    if not (odd and outer_parities[t]):
                        s = -s
                value = outer_table.get(tail[:pos] + (i,) + tail[pos:])
                if value is not None:
                    accumulate(total, value, a * s)


def accumulate_bracket_halves(total: dict, space, idx, maps,
                              bracket) -> None:
    """Add half the symmetric two-block bracket sum at a sorted tuple.

    Over k = 1..n-1 (n = len(idx)), the twisted (k, n-k)-shuffle sum of
    bracket(F_k(first block), F_(n-k)(second block)), with ``maps``
    mapping arity to F_k (a missing arity is zero); each split and its
    block swap are evaluated once, through :func:`half_sum_splits`, with
    F_k read off its table.  ``total`` is a caller-owned coefficient dict.
    """
    n = len(idx)
    parities = tuple([space.parities[i] for i in idx])
    for k, terms in half_sum_splits(n, parities, repeat_pattern(idx)):
        f_k = maps.get(k)
        f_rest = maps.get(n - k)
        if f_k is None or f_rest is None:
            continue
        left_table, right_table = f_k.table, f_rest.table
        for first, second, c in terms:
            left = left_table.get(tuple([idx[s] for s in first]))
            if left is None or not left.coeffs:
                continue
            right = right_table.get(tuple([idx[s] for s in second]))
            if right is None or not right.coeffs:
                continue
            accumulate(total, bracket.evaluate([left, right]), c)


def jacobi_defects(space, ops, n):
    """The nonzero arity-n generalized Jacobi defects, in sorted order.

    Yields ``(idx, defect)`` for each canonical tuple where the nested
    shuffle sum of ``ops`` (arity -> operation of degree 2 - arity) with
    itself does not vanish.  The defect has degree (input sum) + 3 - n,
    so only the tuples with a degree to land in are visited; none at all
    when no arity k has both ops k and n - k + 1.  For a DG-Lie algebra
    as {1: d, 2: bracket}, n = 1 is d^2, n = 2 the Leibniz defect and
    n = 3 minus the Jacobi sum over the (2, 1)-shuffles.
    """
    if all(ops.get(k) is None or ops.get(n - k + 1) is None
           for k in range(1, n + 1)):
        return
    for idx in canonical_tuples(space, n, 3 - n):
        total = {}
        accumulate_composites(total, space, idx, ops, ops)
        if total:
            yield idx, Vector._owning(space, total)


# ---------------------------------------------------------------------------
# Spaces and vectors
# ---------------------------------------------------------------------------

def accumulate(acc: dict, vec: "Vector", factor=1) -> None:
    """Add ``factor * vec`` into the coefficient dict ``acc`` in place.

    ``acc`` must belong to the caller, never to a Vector; entries that
    cancel are dropped, so it never holds a zero.  ``Vector(space, acc)``
    turns it into a value.
    """
    if not factor:
        return
    unit = factor == 1
    get = acc.get
    for i, c in vec.coeffs.items():
        v = get(i, 0) + (c if unit else factor * c)
        if v:
            if v.__class__ is not int and v.denominator == 1:
                v = v.numerator
            acc[i] = v
        else:
            # v can only vanish when acc already held i
            del acc[i]


class GradedVectorSpace:
    """Finite-dimensional Z-graded vector space with an ordered basis."""

    def __init__(self, basis):
        basis = tuple((str(label), int(degree)) for label, degree in basis)
        labels = tuple(label for label, _ in basis)
        if len(set(labels)) != len(labels):
            seen, dup = set(), None
            for lab in labels:
                if lab in seen:
                    dup = lab
                    break
                seen.add(lab)
            raise ValueError(f"duplicate basis label: {dup!r}")
        self.labels = labels
        self.degrees = tuple(degree for _, degree in basis)
        self.parities = tuple(degree % 2 for degree in self.degrees)
        self._index = {label: i for i, label in enumerate(labels)}
        self._basis = tuple(Vector._owning(self, {i: 1})
                            for i in range(len(labels)))

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"no basis element {label!r}") from None

    def indices_of_degree(self, d: int):
        return tuple(i for i, deg in enumerate(self.degrees) if deg == d)

    def degrees_present(self):
        return tuple(sorted(set(self.degrees)))

    def zero(self) -> "Vector":
        return Vector._owning(self, {})

    def basis_vector(self, key) -> "Vector":
        i = key if isinstance(key, int) else self.index(key)
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index {i} out of range")
        return self._basis[i]

    def vector(self, coeffs) -> "Vector":
        out = {}
        for key, value in coeffs.items():
            i = key if isinstance(key, int) else self.index(key)
            c = as_scalar(value)
            if c:
                out[i] = _exact(out[i] + c) if i in out else c
        return Vector._owning(self, {i: c for i, c in out.items() if c})

    def __eq__(self, other):
        return other is self or (
            isinstance(other, GradedVectorSpace)
            and self.labels == other.labels and self.degrees == other.degrees)

    def __hash__(self):
        return hash((self.labels, self.degrees))

    def __repr__(self):
        parts = ", ".join(f"{l}:{d}" for l, d in zip(self.labels, self.degrees))
        return f"GradedVectorSpace({parts})"


class Vector:
    """Sparse vector in a :class:`GradedVectorSpace`; zeros never stored."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: GradedVectorSpace, coeffs: dict):
        self.space = space
        exact = ((i, as_scalar(c)) for i, c in coeffs.items())
        self.coeffs = {i: c for i, c in exact if c}

    @classmethod
    def _owning(cls, space, coeffs: dict) -> "Vector":
        """Wrap ``coeffs`` as is: int-or-Fraction, no zeros, owned by no one."""
        vec = object.__new__(cls)
        vec.space = space
        vec.coeffs = coeffs
        return vec

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        """Degree of a homogeneous vector; None if zero, error if mixed."""
        degs = {self.space.degrees[i] for i in self.coeffs}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"vector is not homogeneous: {self}")
        return degs.pop()

    def coefficient(self, key):
        i = key if isinstance(key, int) else self.space.index(key)
        return self.coeffs.get(i, 0)

    def _binop(self, other, sign):
        if not isinstance(other, Vector):
            return NotImplemented
        if self.space != other.space:
            raise ValueError("vectors live in different spaces")
        out = dict(self.coeffs)
        accumulate(out, other, sign)
        return Vector._owning(self.space, out)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return Vector._owning(self.space,
                              {i: -c for i, c in self.coeffs.items()})

    def scale(self, scalar) -> "Vector":
        c = as_scalar(scalar)
        if not c:
            return self.space.zero()
        if c == 1:
            return Vector._owning(self.space, dict(self.coeffs))
        if c == -1:
            return -self
        out = {}
        for i, v in self.coeffs.items():
            x = c * v
            if x.__class__ is not int and x.denominator == 1:
                x = x.numerator
            out[i] = x
        return Vector._owning(self.space, out)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __eq__(self, other):
        return (isinstance(other, Vector) and self.space == other.space
                and self.coeffs == other.coeffs)

    def dense(self):
        return [self.coeffs.get(i, 0) for i in range(self.space.dim)]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs):
            c, lab = self.coeffs[i], self.space.labels[i]
            if c == 1:
                term = lab
            elif c == -1:
                term = f"-{lab}"
            else:
                term = f"{format_scalar(c)}*{lab}"
            parts.append(term)
        text = parts[0]
        for term in parts[1:]:
            text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return text


# ---------------------------------------------------------------------------
# Linear maps
# ---------------------------------------------------------------------------

class LinearMap:
    """Homogeneous linear map stored by columns (domain index -> image).

    Every column is checked to be homogeneous of the map's degree, so the
    degree-feasible enumeration of :func:`canonical_tuples` may rely on
    it.
    """

    def __init__(self, domain, codomain, degree, columns):
        self.domain = domain
        self.codomain = codomain
        self.degree = int(degree)
        cols = {}
        for i, vec in columns.items():
            if vec.space != codomain:
                raise ValueError("column image lies in the wrong space")
            if vec.is_zero():
                continue
            expected = domain.degrees[i] + self.degree
            for j in vec.coeffs:
                if codomain.degrees[j] != expected:
                    raise ValueError(
                        f"image of {domain.labels[i]!r} is not homogeneous of "
                        f"degree {expected}")
            cols[i] = vec
        self.columns = cols

    @classmethod
    def zero(cls, domain, codomain, degree):
        return cls(domain, codomain, degree, {})

    def apply(self, vec: Vector) -> Vector:
        if vec.space is not self.domain and vec.space != self.domain:
            raise ValueError("vector not in the domain of this map")
        acc = {}
        columns = self.columns
        for i, c in vec.coeffs.items():
            col = columns.get(i)
            if col is not None:
                accumulate(acc, col, c)
        return Vector._owning(self.codomain, acc)

    def __call__(self, vec: Vector) -> Vector:
        return self.apply(vec)

    def __eq__(self, other):
        return (isinstance(other, LinearMap)
                and self.domain == other.domain and self.codomain == other.codomain
                and self.degree == other.degree and self.columns == other.columns)

    def is_zero(self) -> bool:
        return not self.columns

    def pivots_and_kernel(self):
        """One rref of the matrix of this map gives both its pivot columns
        (the :func:`independent_positions` of the images of the basis) and
        the kernel basis, as domain vectors."""
        rows = [[self.columns[i].coeffs.get(j, 0) if i in self.columns else 0
                 for i in range(self.domain.dim)]
                for j in range(self.codomain.dim)]
        red, pivots = rref(rows)
        return pivots, [Vector(self.domain, {i: c for i, c in enumerate(col) if c})
                        for col in _kernel_from_rref(red, pivots, self.domain.dim)]

    def __repr__(self):
        return (f"LinearMap({self.domain!r} -> {self.codomain!r}, "
                f"degree {self.degree}, {len(self.columns)} columns)")


# ---------------------------------------------------------------------------
# Multilinear maps
# ---------------------------------------------------------------------------

class MultilinearMap:
    """Graded-skew multilinear map stored on canonical basis tuples.

    Canonical keys are weakly increasing index tuples; a repeated index is
    legal exactly when its degree is odd (v wedge v = 0 only in even
    degrees).  Evaluation at permuted or non-canonical arguments picks up
    the Koszul sign of the sorting permutation.

    Lookups read ``table`` as stored, and the sign of a permuted key goes
    into the factor its value is added with, so a direct write to
    ``table`` shows in the next evaluation.
    """

    def __init__(self, domain, codomain, arity, degree):
        self.domain = domain
        self.codomain = codomain
        self.arity = int(arity)
        self.degree = int(degree)
        self.table = {}
        if self.arity < 1:
            raise ValueError("arity must be at least 1")

    def canonical_key(self, key):
        """(canonical tuple, sign); (None, 0) for a forced-zero tuple."""
        if key.__class__ is not tuple:
            key = tuple(key)
        for i in key:
            if i.__class__ is not int:  # a label: resolve the key
                key = tuple(i if isinstance(i, int) else self.domain.index(i)
                            for i in key)
                break
        if len(key) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(key)}")
        return _koszul_sort(key, self.domain.parities)

    def set_entry(self, key, value: Vector):
        canon, sign = self.canonical_key(key)
        if canon is None:
            if not value.is_zero():
                raise ValueError(
                    "cannot assign a nonzero value on a repeated even-degree entry")
            return
        if value.space is not self.codomain and value.space != self.codomain:
            raise ValueError("entry value lies in the wrong space")
        if value.is_zero():
            self.table.pop(canon, None)
            return
        if sign != 1:
            value = -value
        expected = sum(self.domain.degrees[i] for i in canon) + self.degree
        for j in value.coeffs:
            if self.codomain.degrees[j] != expected:
                raise ValueError(
                    f"entry at {self.labels_of(canon)} is not homogeneous of "
                    f"degree {expected}")
        stored = self.table.get(canon)
        if stored is not None and stored != value:
            raise ValueError(
                f"conflicting assignments at {self.labels_of(canon)}: "
                f"{stored} vs {value}")
        self.table[canon] = value

    def labels_of(self, key):
        return tuple(self.domain.labels[i] for i in key)

    def _lookup(self, key):
        """(stored value at ``key`` in any order or None, its sign)."""
        canon, sign = self.canonical_key(key)
        return (None, 0) if canon is None else (self.table.get(canon), sign)

    def evaluate_indices(self, key) -> Vector:
        value, sign = self._lookup(key)
        if value is None:
            return self.codomain.zero()
        return value if sign == 1 else -value

    def evaluate(self, args) -> Vector:
        """Multilinear evaluation at arbitrary vectors of the domain."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        domain = self.domain
        for a in args:
            if not isinstance(a, Vector) or (a.space is not domain
                                             and a.space != domain):
                raise ValueError("argument outside the domain space")
        acc = {}
        table = self.table
        if self.arity == 2:
            # the bracket: most evaluations, so no product() or key building
            parities = domain.parities
            left, right = args
            for i, a in left.coeffs.items():
                odd = parities[i]
                for j, b in right.coeffs.items():
                    if i > j:
                        value = table.get((j, i))
                        if value is not None:
                            accumulate(acc, value, a * b if odd and parities[j]
                                       else -(a * b))
                    elif i < j or odd:  # an even (i, i) is zero
                        value = table.get((i, j))
                        if value is not None:
                            accumulate(acc, value, a * b)
            return Vector._owning(self.codomain, acc)
        for combo in itertools.product(*[a.coeffs.items() for a in args]):
            value, coeff = self._lookup(tuple([i for i, _ in combo]))
            if value is not None:
                for _, c in combo:
                    coeff *= c
                accumulate(acc, value, coeff)
        return Vector._owning(self.codomain, acc)

    def is_zero(self) -> bool:
        return not self.table

    def entries(self):
        """Canonical (key, value) pairs in sorted key order."""
        return [(k, self.table[k]) for k in sorted(self.table)]

    def __eq__(self, other):
        return (isinstance(other, MultilinearMap)
                and self.domain == other.domain and self.codomain == other.codomain
                and self.arity == other.arity and self.degree == other.degree
                and self.table == other.table)

    def __repr__(self):
        return (f"MultilinearMap(arity {self.arity}, degree {self.degree}, "
                f"{len(self.table)} entries)")


# ---------------------------------------------------------------------------
# Dense exact elimination
# ---------------------------------------------------------------------------

def rref(rows):
    """Reduced row echelon form; returns (new rows, pivot column list).

    Pivoting is deterministic: first nonzero entry scanning columns left to
    right, rows top to bottom, so every caller inherits reproducible bases.
    Entries come back int-or-Fraction.  A pivot of +-1 needs no division,
    and each elimination touches only the nonzero entries of the pivot
    row: they sit at or right of the pivot column, since every row below
    the pivots found so far is zero further left.
    """
    rows = [[_exact(c) for c in r] for r in rows]
    if not rows:
        return rows, []
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        lead = prow[col]
        if lead == -1:
            prow = rows[r] = [-c for c in prow]
        elif lead != 1:
            inv = Fraction(1, lead) if lead.__class__ is int else 1 / lead
            prow = rows[r] = [_exact(c * inv) if c else 0 for c in prow]
        support = [(j, prow[j]) for j in range(col, ncols) if prow[j]]
        for i in range(nrows):
            row = rows[i]
            factor = row[col]
            if factor and i != r:
                for j, b in support:
                    v = row[j] - factor * b
                    if v.__class__ is not int and v.denominator == 1:
                        v = v.numerator
                    row[j] = v
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _kernel_from_rref(red, pivots, nvars):
    """Kernel basis read off a reduced form whose first nvars columns are A."""
    pivots = [col for col in pivots if col < nvars]
    pivot_set = set(pivots)
    basis = []
    for f in range(nvars):
        if f in pivot_set:
            continue
        vec = [0] * nvars
        vec[f] = 1
        for r, col in enumerate(pivots):
            vec[col] = -red[r][f]
        basis.append(vec)
    return basis


def solve_dense(rows, rhs):
    """Solve A x = b exactly; returns (particular solution or None, kernel basis).

    The particular solution sets every free variable to zero; the kernel
    basis has one vector per free variable in increasing column order.
    One elimination of [A | b] gives both: the left block of its reduced
    form is the reduced form of A.
    """
    nvars = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    kernel = _kernel_from_rref(red, pivots, nvars)
    if nvars in pivots:
        return None, kernel
    solution = [0] * nvars
    for r, col in enumerate(pivots):
        solution[col] = red[r][nvars]
    return solution, kernel


def kernel_vectors(rows, nvars):
    """Deterministic kernel basis of the matrix given by ``rows``."""
    red, pivots = rref(rows)
    return _kernel_from_rref(red, pivots, nvars)


def echelon_vectors(vectors, space) -> list:
    """Reduced-echelon spanning set of the given vectors (deterministic)."""
    if not vectors:
        return []
    rows = [v.dense() for v in vectors]
    red, pivots = rref(rows)
    return [Vector(space, {i: c for i, c in enumerate(red[r]) if c})
            for r in range(len(pivots))]


def coordinates_in_span(vectors, target: Vector):
    """Coefficients expressing ``target`` in ``vectors``, or None."""
    if target.is_zero():
        return [0] * len(vectors)
    if not vectors:
        return None
    space = vectors[0].space
    rows = [[v.coeffs.get(j, 0) for v in vectors] for j in range(space.dim)]
    solution, _ = solve_dense(rows, target.dense())
    return solution


def independent_positions(vectors) -> list:
    """Positions t where ``vectors[t]`` is outside the span of the vectors
    before it: the pivot columns of one rref of the matrix whose columns
    are ``vectors``, which are its greedy-earliest independent columns."""
    dim = vectors[0].space.dim if vectors else 0
    return rref([[v.coeffs.get(j, 0) for v in vectors] for j in range(dim)])[1]


def extend_to_complement(candidates, inside, space):
    """Greedy lexicographic complement of span(inside) using ``candidates``:
    the candidates at the :func:`independent_positions` of ``inside +
    candidates`` past ``len(inside)``, each outside the span of ``inside``
    and the candidates before it.  The choice depends on ``inside`` only
    through its span, so ``inside`` may be dependent."""
    n = len(inside)
    return [candidates[t - n]
            for t in independent_positions(list(inside) + list(candidates))
            if t >= n]


# Serial stubs kept only because bench/ imports them.
def worker_count() -> int:
    """Always 1: the kernel runs on one thread."""
    return 1


def parallel_map(fn, items):
    """Order-preserving serial map."""
    return [fn(x) for x in items]
