import itertools
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradedlie.core import (
    GradedVectorSpace, LinearMap, MultilinearMap, Vector, as_scalar,
    accumulate, accumulate_bracket_halves, accumulate_composites,
    canonical_tuples, coordinates_in_span, echelon_vectors, enumerate_shuffles, extend_to_complement, half_sum_splits,
    independent_positions, kernel_vectors, koszul_sign,
    repeat_pattern, rref, shuffle_splits, signed_shuffles, solve_dense,
)

from oracles import (
    assert_exact_scalar, complement_naive, independent_positions_naive,
    rref_naive, shuffles_by_filter, sign_by_inversions, signed_lookup_naive,
    solve_naive,
)


# --- scalars ---------------------------------------------------------------

def test_as_scalar_parses_rationals():
    assert as_scalar("3/4") == Fraction(3, 4)
    assert as_scalar("-2") == Fraction(-2)
    assert as_scalar(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        as_scalar(0.5)


# --- koszul sign -----------------------------------------------------------

def test_transposition_sign():
    # swapping two elements contributes -(-1)^(ab)
    assert koszul_sign([1, 0], [1, 2]) == -1
    assert koszul_sign([1, 0], [1, 1]) == 1
    assert koszul_sign([1, 0], [2, 2]) == -1


def test_identity_sign():
    assert koszul_sign([0, 1, 2], [1, 2, 3]) == 1


def test_all_odd_degrees_give_trivial_sign():
    for perm in itertools.permutations(range(4)):
        assert koszul_sign(perm, [1, 3, 1, 5]) == 1


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        koszul_sign([0, 0, 1], [1, 1, 1])
    with pytest.raises(ValueError):
        koszul_sign([0, 1], [1, 1, 1])


perm_and_degrees = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(n))),
        st.lists(st.integers(min_value=-2, max_value=4), min_size=n, max_size=n),
    ))


@given(perm_and_degrees)
def test_sign_matches_inversion_oracle(data):
    perm, degs = data
    assert koszul_sign(perm, degs) == sign_by_inversions(perm, degs)


@given(perm_and_degrees, st.randoms())
def test_sign_is_multiplicative_under_composition(data, rng):
    sigma, degs = data
    tau = list(range(len(sigma)))
    rng.shuffle(tau)
    composed = [sigma[tau[i]] for i in range(len(sigma))]
    permuted_degs = [degs[sigma[i]] for i in range(len(sigma))]
    assert koszul_sign(composed, degs) == (
        koszul_sign(tau, permuted_degs) * koszul_sign(list(sigma), degs))


# --- shuffles ---------------------------------------------------------------

def test_shuffle_enumeration_matches_brute_filter():
    for k in range(0, 4):
        for m in range(0, 4):
            assert sorted(enumerate_shuffles(k, m)) == sorted(shuffles_by_filter(k, m))


def test_shuffle_counts():
    # frozen: |S(2,1)| = 3, |S(2,2)| = 6, |S(1,3)| = 4 (binomials)
    assert len(enumerate_shuffles(2, 1)) == 3
    assert len(enumerate_shuffles(2, 2)) == 6
    assert len(enumerate_shuffles(1, 3)) == 4
    assert enumerate_shuffles(1, 0) == ((0,),)


@st.composite
def sorted_tuples(draw, max_len=8):
    """(block sizes k, m; a sorted value tuple; its parities) in which only
    odd values repeat, as in a canonical basis tuple."""
    k = draw(st.integers(0, 4))
    m = draw(st.integers(0 if k else 1, 4))
    values, parities = [], []
    while len(values) < k + m:
        parity = draw(st.integers(0, 1))
        run = draw(st.integers(1, 3)) if parity else 1
        value = len(set(values))
        for _ in range(min(run, k + m - len(values))):
            values.append(value)
            parities.append(parity)
    return k, m, tuple(values), tuple(parities)


def _twist(sign, k, n, parities, first):
    alpha = (1 - n + k) * (k + sum(parities[s] for s in first))
    return -sign if alpha % 2 else sign


@settings(max_examples=300, deadline=None)
@given(sorted_tuples(), st.booleans(), st.randoms(use_true_random=False))
def test_merged_shuffle_splits_sum_like_the_expanded_shuffles(case, twisted,
                                                              rng):
    k, m, values, parities = case
    # the twisted sign is that of a bracket of two nonempty blocks
    assume(not twisted or (k and m))
    n = k + m
    lookups = {}

    def term(first, second):
        key = (tuple(values[s] for s in first), tuple(values[s] for s in second))
        if key not in lookups:
            lookups[key] = rng.randint(-5, 5)
        return lookups[key]

    expanded = 0
    for sigma, sign in signed_shuffles(k, m, parities):
        if twisted:
            sign = _twist(sign, k, n, parities, sigma[:k])
        expanded += sign * term(sigma[:k], sigma[k:])
    terms = shuffle_splits(k, m, parities, repeat_pattern(values), twisted)
    assert sum(c * term(first, second) for first, second, c in terms) == expanded
    for first, second, c in terms:
        assert c and type(c) is int
        assert sorted(first + second) == list(range(n))
        assert list(first) == sorted(first) and list(second) == sorted(second)
    # one term per distinct first block
    assert len({tuple(values[s] for s in first) for first, _, _ in terms}) \
        == len(terms)


def test_merged_shuffle_splits_collapse_repeats():
    # (x, x, x, y, y) in odd degree: 10 (2, 3)-shuffles, 3 distinct splits
    terms = shuffle_splits(2, 3, (1,) * 5, repeat_pattern((0, 0, 0, 1, 1)))
    assert sorted(c for _, _, c in terms) == [1, 3, 6]


def _random_bracket_data(rng):
    """Small random stored maps F_k: H -> A of degree 1 - k and a stored
    bracket on A, with H in degrees 0, 1, 1, 2 and A one line in each
    degree; the bracket is nonzero wherever its degree allows."""
    H = GradedVectorSpace([("a", 0), ("b", 1), ("c", 1), ("e", 2)])
    A = GradedVectorSpace([(f"w{d}", d) for d in range(-4, 9)])

    def of_degree(space, degree):
        return [i for i in range(space.dim) if space.degrees[i] == degree]

    def random_map(domain, arity, degree, density):
        out = MultilinearMap(domain, A, arity, degree)
        for key in canonical_tuples(domain, arity):
            target = of_degree(A, sum(domain.degrees[i] for i in key) + degree)
            if target and rng.random() < density:
                out.set_entry(key, Vector(A, {target[0]: rng.choice(
                    [-3, -2, -1, 1, 2, 3])}))
        return out

    return H, random_map(A, 2, 0, 1.0), {k: random_map(H, k, 1 - k, 0.7)
                                         for k in range(1, 6)}


@pytest.mark.parametrize("seed", range(6))
def test_half_sum_splits_match_the_full_symmetric_sum(seed):
    """The paired half-sum equals half the full symmetric sum, with every
    arity stored and with one arity (a different one per seed) absent,
    which must count as the zero map."""
    H, bracket, F = _random_bracket_data(random.Random(seed))
    absent = seed % len(F) + 1
    for maps in (F, {k: f for k, f in F.items() if k != absent}):
        nonzero = 0
        for n in range(2, 7):
            for idx in canonical_tuples(H, n):
                parities = tuple(H.degrees[i] % 2 for i in idx)
                full = {}
                for k in range(1, n):
                    if k not in maps or n - k not in maps:
                        continue
                    for sigma, sign in signed_shuffles(k, n - k, parities):
                        sign = _twist(sign, k, n, parities, sigma[:k])
                        left = maps[k].evaluate_indices(
                            [idx[s] for s in sigma[:k]])
                        right = maps[n - k].evaluate_indices(
                            [idx[s] for s in sigma[k:]])
                        accumulate(full, bracket.evaluate([left, right]),
                                   Fraction(sign, 2))
                for k, terms in half_sum_splits(n, parities,
                                                repeat_pattern(idx)):
                    assert 2 * k <= n and all(c for _, _, c in terms)
                paired = {}
                accumulate_bracket_halves(paired, H, idx, maps, bracket)
                assert paired == full, (n, idx, sorted(maps))
                nonzero += bool(full)
        assert nonzero


def test_half_sum_splits_weigh_equal_halves_by_one_half():
    # (x, x, y, y): the split (x, y | x, y) is its own swap
    halves = dict(half_sum_splits(4, (1,) * 4, repeat_pattern((0, 0, 1, 1))))
    equal = [(first, second, c) for first, second, c in halves[2]
             if [(0, 0, 1, 1)[s] for s in first]
             == [(0, 0, 1, 1)[s] for s in second]]
    # four shuffles pick one x and one y first; half of 4 is 2
    assert [c for _, _, c in equal] == [2]
    # (x, x | y, y) and its swap (y, y | x, x) are kept once
    assert len(halves[2]) == 2


# --- canonical tuples -------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(-3, 4), max_size=7), st.integers(1, 6),
       st.integers(-9, 9),
       st.one_of(st.none(), st.lists(st.integers(-6, 8), max_size=4)))
def test_feasible_tuples_match_the_filtered_enumeration(degrees, arity, shift,
                                                       targets):
    """The shifted enumeration gives exactly the canonical tuples whose
    degree sum plus the shift is a target degree, in sorted order; with
    no shift, every canonical tuple."""
    V = GradedVectorSpace([(f"e{i}", d) for i, d in enumerate(degrees)])
    canonical = [
        idx for idx in itertools.combinations_with_replacement(
            range(len(degrees)), arity)
        if not any(a == b and degrees[a] % 2 == 0
                   for a, b in zip(idx, idx[1:]))]
    assert list(canonical_tuples(V, arity)) == canonical
    lands = set(degrees if targets is None else targets)
    assert list(canonical_tuples(V, arity, shift, targets)) == [
        idx for idx in canonical
        if sum(degrees[i] for i in idx) + shift in lands]


def test_canonical_key_kills_even_repeats():
    m = MultilinearMap(GradedVectorSpace([("a", 0), ("x", 1), ("z", 2)]),
                       GradedVectorSpace([("w", 0)]), 2, 0)
    key, sign = m.canonical_key((2, 2))
    assert key is None and sign == 0
    key, sign = m.canonical_key((1, 1))
    assert key == (1, 1) and sign == 1


def test_canonical_key_sign():
    m = MultilinearMap(GradedVectorSpace([("x", 1), ("y", 2)]),
                       GradedVectorSpace([("w", 0)]), 2, 0)
    assert m.canonical_key((1, 0)) == ((0, 1), -1)


# --- spaces and vectors ------------------------------------------------------

def space_xyz():
    return GradedVectorSpace([("a", 0), ("x", 1), ("y", 1), ("z", 2)])


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        GradedVectorSpace([("a", 0), ("a", 1)])


def test_vector_arithmetic_and_degree():
    V = space_xyz()
    v = V.vector({"x": 2, "y": "1/2"})
    w = V.vector({"x": -2})
    assert (v + w).coefficient("x") == 0
    assert (v + w).degree() == 1
    assert v.scale(0).is_zero()
    mixed = V.vector({"a": 1, "x": 1})
    with pytest.raises(ValueError):
        mixed.degree()
    assert V.zero().degree() is None


def test_vector_repr_is_readable():
    V = space_xyz()
    assert repr(V.vector({"x": 1, "y": Fraction(-3, 2)})) == "x - 3/2*y"


# --- linear maps --------------------------------------------------------------

def test_linear_map_degree_check():
    V = space_xyz()
    with pytest.raises(ValueError):
        LinearMap(V, V, 1, {V.index("a"): V.basis_vector("z")})
    d = LinearMap(V, V, 1, {V.index("a"): V.basis_vector("x")})
    assert d.apply(V.vector({"a": 3})) == V.vector({"x": 3})


def test_every_linear_map_checks_homogeneity():
    V = space_xyz()
    mixed = V.vector({"x": 1, "z": 1})
    with pytest.raises(ValueError, match="not homogeneous"):
        LinearMap(V, V, 1, {V.index("a"): mixed})


# --- multilinear maps ----------------------------------------------------------

def test_multilinear_storage_and_koszul_lookup():
    V = space_xyz()
    W = space_xyz()
    f = MultilinearMap(V, W, 2, 0)
    # store on the non-canonical order (y, x): canonicalizes with sign +1
    f.set_entry(("y", "x"), W.basis_vector("z"))
    assert f.evaluate_indices((V.index("x"), V.index("y"))) == W.basis_vector("z")
    # odd-odd swap costs nothing
    assert f.evaluate_indices((V.index("y"), V.index("x"))) == W.basis_vector("z")


def test_multilinear_even_diagonal_forced_zero():
    V = space_xyz()
    f = MultilinearMap(V, V, 2, 2)
    with pytest.raises(ValueError):
        f.set_entry(("a", "a"), V.basis_vector("z").scale(2))
    f.set_entry(("a", "a"), V.zero())  # assigning zero is fine
    assert f.evaluate_indices((0, 0)).is_zero()


def test_multilinear_odd_diagonal_allowed():
    V = space_xyz()
    f = MultilinearMap(V, V, 2, 0)
    f.set_entry(("x", "x"), V.basis_vector("z"))
    assert f.evaluate([V.basis_vector("x"), V.basis_vector("x")]) == V.basis_vector("z")


def test_multilinear_degree_check():
    V = space_xyz()
    f = MultilinearMap(V, V, 2, 0)
    with pytest.raises(ValueError):
        f.set_entry(("x", "y"), V.basis_vector("x"))
    # a value with one right and one wrong component is refused too
    with pytest.raises(ValueError, match="not homogeneous"):
        f.set_entry(("x", "y"), V.vector({"z": 1, "x": 1}))
    assert f.is_zero()


def test_evaluate_respects_linearity_and_signs():
    V = space_xyz()
    f = MultilinearMap(V, V, 2, 0)
    f.set_entry(("x", "y"), V.basis_vector("z"))
    f.set_entry(("a", "x"), V.basis_vector("x"))
    u = V.vector({"a": 2, "y": 3})
    v = V.basis_vector("x")
    # f(u, v) = 2 f(a,x) + 3 f(y,x); f(y,x) = f(x,y) since both odd
    assert f.evaluate([u, v]) == V.vector({"x": 2, "z": 3})
    # graded skew: f(x, a) = -f(a, x)
    assert f.evaluate([v, V.basis_vector("a")]) == V.vector({"x": -1})


@settings(max_examples=50)
@given(st.randoms(use_true_random=False))
def test_evaluate_at_permuted_arguments_matches_koszul_sign(rng):
    degrees = [rng.choice([0, 1, 1, 2, 3]) for _ in range(4)]
    V = GradedVectorSpace([(f"e{i}", degrees[i]) for i in range(4)])
    arity = rng.choice([2, 3])
    target_deg = rng.choice([0, 1])
    f = MultilinearMap(V, V, arity, target_deg)
    for _ in range(5):
        key = tuple(rng.randrange(4) for _ in range(arity))
        canon, sign = f.canonical_key(key)
        if canon is None:
            continue
        expected = sum(V.degrees[i] for i in canon) + target_deg
        targets = V.indices_of_degree(expected)
        if not targets:
            continue
        value = V.basis_vector(rng.choice(targets)).scale(rng.randrange(1, 4))
        if rng.random() < 0.5:
            # straight into the table, past set_entry, as a corpus
            # perturbation does: skew-symmetry must still come from the
            # signed lookup alone
            f.table.setdefault(canon, value)
            continue
        try:
            f.set_entry(canon, value)
        except ValueError:
            continue  # conflicting random assignment; irrelevant here
    args = [rng.randrange(4) for _ in range(arity)]
    rhs = f.evaluate([V.basis_vector(i) for i in args])
    for perm in itertools.permutations(range(arity)):
        permuted = [args[perm[i]] for i in range(arity)]
        sign = koszul_sign(perm, [V.degrees[i] for i in args])
        lhs = f.evaluate([V.basis_vector(i) for i in permuted])
        assert lhs == rhs.scale(sign)


# --- exact kernel against a plain Fraction reference ----------------------------
#
# The reference works on {index: Fraction} dicts and never touches Vector,
# so a slip in the in-place accumulation, the signed table lookups or the
# int fast path shows up as a disagreement.

SCALARS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))
DEGREES = st.sampled_from([-1, 0, 1, 2])
# two basis elements in every degree an entry of arity <= 3 can land in
TARGET = GradedVectorSpace([(f"w{d}{c}", d) for d in range(-3, 7) for c in "ab"])


def ref_dict(coeffs):
    return {i: Fraction(c) for i, c in coeffs.items() if c}


def ref_combine(a, b, factor):
    out = dict(a)
    for i, c in b.items():
        out[i] = out.get(i, Fraction(0)) + factor * c
    return {i: c for i, c in out.items() if c}


def ref_value_at(ref_table, degrees, idx):
    """The map at a basis tuple in any order, from its canonical entry."""
    order = sorted(range(len(idx)), key=lambda t: idx[t])
    canon = tuple(idx[t] for t in order)
    if any(a == b and degrees[a] % 2 == 0 for a, b in zip(canon, canon[1:])):
        return {}
    sign = sign_by_inversions(order, [degrees[i] for i in idx])
    return {j: sign * c for j, c in ref_table.get(canon, {}).items()}


def ref_evaluate(ref_table, degrees, args):
    out = {}
    for combo in itertools.product(*[sorted(a.items()) for a in args]):
        coeff = Fraction(1)
        for _, c in combo:
            coeff *= c
        value = ref_value_at(ref_table, degrees, [i for i, _ in combo])
        out = ref_combine(out, value, coeff)
    return out


def assert_exact(vec):
    """Coefficients are int, or Fraction only off denominator 1; no zeros."""
    for c in vec.coeffs.values():
        assert_exact_scalar(c)
        assert c != 0


@st.composite
def kernel_cases(draw):
    degrees = draw(st.lists(DEGREES, min_size=2, max_size=5))
    V = GradedVectorSpace([(f"e{i}", d) for i, d in enumerate(degrees)])
    dim = len(degrees)
    arity = draw(st.sampled_from([1, 2, 3]))
    f = MultilinearMap(V, TARGET, arity, 0)
    ref_table = {}
    for canon in canonical_tuples(V, arity):
        if not draw(st.booleans()):
            continue
        degree = sum(degrees[i] for i in canon)
        value = {TARGET.index(f"w{degree}{c}"): draw(SCALARS) for c in "ab"}
        # store through a shuffled key, so set_entry folds in the sign
        order = draw(st.permutations(range(arity)))
        key = tuple(canon[t] for t in order)
        f.set_entry(key, Vector(TARGET, value))
        sign = sign_by_inversions(order, [degrees[i] for i in canon])
        ref_table[canon] = {j: sign * Fraction(c)
                            for j, c in ref_dict(value).items()}
    coeffs = st.dictionaries(st.integers(0, dim - 1), SCALARS, max_size=dim)
    args = [draw(coeffs) for _ in range(arity)]
    if draw(st.booleans()):
        # the same vector in every slot: even-degree parts cancel in pairs
        args = [args[0]] * arity
    return V, f, ref_table, args


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_evaluate_agrees_with_the_fraction_reference(case):
    V, f, ref_table, args = case
    table_before = {k: dict(v.coeffs) for k, v in f.table.items()}
    vectors = [Vector(V, a) for a in args]
    operands = [dict(v.coeffs) for v in vectors]
    expected = ref_evaluate(ref_table, V.degrees, [ref_dict(a) for a in args])
    for _ in range(2):  # a lookup leaves the table as it was
        got = f.evaluate(vectors)
        assert got.coeffs == expected
        assert_exact(got)
    assert [dict(v.coeffs) for v in vectors] == operands
    assert {k: dict(v.coeffs) for k, v in f.table.items()} == table_before
    for idx in itertools.product(range(V.dim), repeat=f.arity):
        got = f.evaluate_indices(idx)
        assert got.coeffs == ref_value_at(ref_table, V.degrees, idx)
        assert_exact(got)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_vector_and_linear_map_ops_agree_with_the_reference(data):
    degrees = data.draw(st.lists(DEGREES, min_size=1, max_size=5))
    V = GradedVectorSpace([(f"e{i}", d) for i, d in enumerate(degrees)])
    coeffs = st.dictionaries(st.integers(0, V.dim - 1), SCALARS, max_size=V.dim)
    a, b = data.draw(coeffs), data.draw(coeffs)
    if data.draw(st.booleans()):
        b = {i: -c for i, c in a.items()}  # a + b cancels completely
    c = data.draw(SCALARS)
    u, v = Vector(V, a), Vector(V, b)
    snapshot = (dict(u.coeffs), dict(v.coeffs))
    ra, rb = ref_dict(a), ref_dict(b)
    for got, expected in [(u + v, ref_combine(ra, rb, 1)),
                          (u - v, ref_combine(ra, rb, -1)),
                          (-u, ref_combine({}, ra, -1)),
                          (u.scale(c), ref_combine({}, ra, Fraction(c))),
                          (u - u, {})]:
        assert got.coeffs == expected
        assert_exact(got)
    assert (dict(u.coeffs), dict(v.coeffs)) == snapshot

    # a degree-0 endomorphism given by columns within each degree
    columns = {}
    for i in range(V.dim):
        same = V.indices_of_degree(degrees[i])
        col = data.draw(st.dictionaries(st.sampled_from(same), SCALARS))
        columns[i] = Vector(V, col)
    g = LinearMap(V, V, 0, columns)
    expected = {}
    for i, x in ra.items():
        expected = ref_combine(expected, ref_dict(columns[i].coeffs), x)
    got = g.apply(u)
    assert got.coeffs == expected
    assert_exact(got)
    assert dict(u.coeffs) == snapshot[0]


def test_even_repeat_evaluates_to_zero():
    V = space_xyz()
    f = MultilinearMap(V, V, 2, 0)
    a = V.basis_vector("a")
    assert f.evaluate([a, a]).is_zero()
    assert f.evaluate_indices(("a", "a")).is_zero()
    # (a + z) twice: the cross terms f(a, z) and f(z, a) cancel
    f.set_entry(("a", "z"), V.basis_vector("z").scale(Fraction(1, 2)))
    u = V.vector({"a": 1, "z": 3})
    assert f.evaluate([u, u]).coeffs == {}


def test_set_entry_after_evaluate_drops_the_cached_lookup():
    V = space_xyz()
    f = MultilinearMap(V, V, 2, 1)
    a, x = V.basis_vector("a"), V.basis_vector("x")
    assert f.evaluate([x, a]).is_zero()
    assert f.evaluate_indices(("x", "a")).is_zero()
    f.set_entry(("a", "x"), V.basis_vector("z"))
    assert f.evaluate([x, a]) == V.vector({"z": -1})
    assert f.evaluate_indices(("x", "a")) == V.vector({"z": -1})
    f.set_entry(("x", "a"), V.zero())  # assigning zero clears the entry
    assert f.evaluate([x, a]).is_zero()
    assert f.evaluate_indices((1, 0)).is_zero()


def test_threads_filling_the_lookup_cache_agree():
    # more threads than cores, switching often, each walking the keys of a
    # fresh map in its own order: every thread must read the same signed
    # value whether it or another thread cached it
    degrees = [-1, 0, 1, 1, 2]
    V = GradedVectorSpace([(f"e{i}", d) for i, d in enumerate(degrees)])
    entries = {}
    for n, canon in enumerate(canonical_tuples(V, 3)):
        degree = sum(degrees[i] for i in canon)
        entries[canon] = TARGET.basis_vector(f"w{degree}a").scale(n + 1)
    keys = list(itertools.product(range(V.dim), repeat=3))

    def filled():
        f = MultilinearMap(V, TARGET, 3, 0)
        for key, value in entries.items():
            f.set_entry(key, value)
        return f

    reference = filled()
    expected = {k: reference.evaluate_indices(k) for k in keys}
    workers = 8

    def walk(f, barrier, seed):
        order = keys[:]
        random.Random(seed).shuffle(order)
        barrier.wait(timeout=60)
        return {k: f.evaluate_indices(k) for k in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for round_ in range(10):
                f = filled()
                barrier = threading.Barrier(workers)
                runs = [pool.submit(walk, f, barrier, round_ * workers + t)
                        for t in range(workers)]
                for run in runs:
                    assert run.result(timeout=60) == expected
    finally:
        sys.setswitchinterval(interval)


def test_scalars_are_int_or_fraction_never_float():
    assert type(as_scalar("6/3")) is int
    assert type(as_scalar(Fraction(4, 2))) is int
    assert type(as_scalar(True)) is int
    assert as_scalar("1/3") == Fraction(1, 3)
    V = space_xyz()
    v = V.vector({"x": Fraction(6, 3), "y": "5/10"})
    assert v.coeffs == {1: 2, 2: Fraction(1, 2)}
    assert_exact(v.scale(Fraction(2)))
    assert v.scale(2).coeffs == {1: 4, 2: 1}
    assert_exact(v.scale(2))
    with pytest.raises(TypeError):
        Vector(V, {1: 0.5})
    with pytest.raises(TypeError):
        v.scale(1.0)


# --- exact elimination ----------------------------------------------------------

def random_matrix(rng, nrows, ncols):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)]


def test_solve_and_kernel_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        A = random_matrix(rng, nrows, ncols)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
        b = [sum(A[i][j] * x[j] for j in range(ncols)) for i in range(nrows)]
        sol, kernel = solve_dense(A, b)
        assert sol is not None
        assert all(sum(A[i][j] * sol[j] for j in range(ncols)) == b[i]
                   for i in range(nrows))
        for k in kernel:
            assert all(sum(A[i][j] * k[j] for j in range(ncols)) == 0
                       for i in range(nrows))
        # rank-nullity
        assert len(kernel) == ncols - len(rref(A)[1])


# sparse, mostly +-1 entries, as in the splitting and retraction systems,
# with Fraction(k, 1) inputs mixed in
MATRIX_ENTRIES = st.one_of(
    st.just(0), st.just(0), st.sampled_from([1, -1, Fraction(2, 1)]), SCALARS)


@st.composite
def matrices(draw):
    nrows = draw(st.integers(min_value=0, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=6))
    return [[draw(MATRIX_ENTRIES) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_elimination_agrees_with_the_plain_fraction_reference(rows, data):
    before = [list(r) for r in rows]
    red, pivots = rref(rows)
    assert (red, pivots) == rref_naive(rows)
    for row in red:
        for c in row:
            assert_exact_scalar(c)
    ncols = len(rows[0]) if rows else 0
    rhs = [data.draw(MATRIX_ENTRIES) for _ in rows]
    solution, kernel = solve_dense(rows, rhs)
    assert (solution, kernel) == solve_naive(rows, rhs)
    assert kernel == kernel_vectors(rows, ncols)
    for c in (solution or []) + [c for vec in kernel for c in vec]:
        assert_exact_scalar(c)
    assert rows == before


def test_solve_reports_inconsistency():
    A = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    sol, kernel = solve_dense(A, [Fraction(1), Fraction(3)])
    assert sol is None
    assert len(kernel) == 1


def test_coordinates_in_span():
    V = space_xyz()
    basis = [V.vector({"x": 1, "y": 1}), V.vector({"y": 1})]
    coords = coordinates_in_span(basis, V.vector({"x": 2, "y": 5}))
    assert coords == [Fraction(2), Fraction(3)]
    assert coordinates_in_span(basis, V.basis_vector("z")) is None


def test_independent_positions_and_complement_match_the_greedy_walk():
    V = GradedVectorSpace([(f"e{i}", 0) for i in range(5)])
    rng = random.Random(17)

    def draw():
        return Vector(V, {i: rng.choice([0, 0, 0, 1, -1, 2, Fraction(1, 2)])
                          for i in range(5)})

    assert independent_positions([]) == []
    for _ in range(100):
        inside = [draw() for _ in range(rng.randint(0, 4))]
        if len(inside) >= 2:  # a dependent inside
            inside.append(inside[0] + inside[1].scale(3))
        inside.insert(rng.randint(0, len(inside)), V.zero())
        candidates = [draw() for _ in range(rng.randint(0, 6))]
        if candidates:  # a repeated candidate
            candidates.insert(rng.randint(0, len(candidates)),
                              rng.choice(candidates))
        candidates.insert(rng.randint(0, len(candidates)), V.zero())
        vectors = inside + candidates
        assert independent_positions(vectors) == \
            independent_positions_naive(vectors)
        got = extend_to_complement(candidates, inside, V)
        want = complement_naive(candidates, inside)
        # by identity: a repeat must not stand in for its first copy
        assert [id(v) for v in got] == [id(v) for v in want]


def test_echelon_vectors_deterministic():
    V = space_xyz()
    vecs = [V.vector({"x": 2, "y": 2}), V.vector({"x": 1})]
    ech = echelon_vectors(vecs, V)
    assert [repr(v) for v in ech] == ["x", "y"]


# --- signed lookups against the inversion-count oracle ----------------------

def _draw_map(data, V, codomain, arity):
    """A map V^arity -> codomain stored through shuffled keys, so that
    set_entry folds in the signs; its degree makes one drawn canonical
    tuple land on a drawn basis element, which gets a nonzero entry.
    Every even-degree repeat holds junk written past set_entry."""
    keys = list(canonical_tuples(V, arity))
    if not keys:
        return MultilinearMap(V, codomain, arity, 0)
    anchor = data.draw(st.sampled_from(keys))
    target = data.draw(st.integers(0, codomain.dim - 1))
    degree = codomain.degrees[target] - sum(V.degrees[i] for i in anchor)
    f = MultilinearMap(V, codomain, arity, degree)
    for canon in keys:
        lands = codomain.indices_of_degree(
            sum(V.degrees[i] for i in canon) + degree)
        if not lands or (canon != anchor and not data.draw(st.booleans())):
            continue
        value = {j: data.draw(SCALARS) for j in lands}
        if canon == anchor:
            value[target] = data.draw(st.sampled_from([-2, -1, 1, 3]))
        order = data.draw(st.permutations(range(arity)))
        f.set_entry(tuple(canon[t] for t in order), Vector(codomain, value))
    for key in itertools.combinations_with_replacement(range(V.dim), arity):
        if any(a == b and V.degrees[a] % 2 == 0 for a, b in zip(key, key[1:])):
            # junk past set_entry, which refuses it: lookups read zero here
            f.table[key] = codomain.basis_vector(target)
    return f


def _draw_key(data, dim, arity):
    """Indices in any order; half the time one index is repeated."""
    key = data.draw(st.lists(st.integers(0, dim - 1), min_size=arity,
                             max_size=arity))
    if arity > 1 and data.draw(st.booleans()):
        i, j = data.draw(st.permutations(range(arity)))[:2]
        key[j] = key[i]
    return key


LOOKUP_TARGET = GradedVectorSpace([(f"t{d}{c}", d) for d in range(-5, 19)
                                   for c in "ab"])


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_lookups_agree_with_the_inversion_count(data):
    """evaluate_indices, at index and label keys, and evaluate on basis
    vectors read the stored entry with the sign the oracle counts, and an
    even-degree repeat reads zero."""
    degrees = data.draw(st.lists(st.integers(-1, 3), min_size=1, max_size=5))
    V = GradedVectorSpace([(f"e{i}", d) for i, d in enumerate(degrees)])
    arity = data.draw(st.integers(1, 5))
    f = _draw_map(data, V, LOOKUP_TARGET, arity)
    for _ in range(4):
        key = _draw_key(data, V.dim, arity)
        expected = signed_lookup_naive(f.table, degrees, key)
        assert f.evaluate_indices(tuple(key)).coeffs == expected, key
        labelled = [V.labels[i] if data.draw(st.booleans()) else i
                    for i in key]
        assert f.evaluate_indices(labelled).coeffs == expected, labelled
        got = f.evaluate([V.basis_vector(i) for i in key])
        assert got.coeffs == expected, key
        assert_exact(got)


def _composites_naive(V, idx, inner_ops, outer_ops, factor):
    """The nested shuffle sum of accumulate_composites, term by term."""
    n = len(idx)
    degs = [V.degrees[i] for i in idx]
    out = {}
    for k in range(1, n + 1):
        inner, outer = inner_ops.get(k), outer_ops.get(n - k + 1)
        if inner is None or outer is None:
            continue
        for sigma in enumerate_shuffles(k, n - k):
            sign = koszul_sign(sigma, degs) * (-1) ** (n - k) * factor
            head = signed_lookup_naive(inner.table, V.degrees,
                                       [idx[s] for s in sigma[:k]])
            tail = [idx[s] for s in sigma[k:]]
            for i, a in head.items():
                for j, c in signed_lookup_naive(outer.table, V.degrees,
                                                [i] + tail).items():
                    out[j] = out.get(j, 0) + sign * a * c
    return {j: c for j, c in out.items() if c}


def _dense_map(rng, V, arity):
    """A map V^arity -> V written straight into its table on most sorted
    tuples, with values on all of V, and junk on even-degree repeats,
    which every lookup must read as zero."""
    f = MultilinearMap(V, V, arity, 0)
    for key in itertools.combinations_with_replacement(range(V.dim), arity):
        if rng.random() < 0.8:
            f.table[key] = Vector(V, {j: rng.choice([-2, -1, 1, 3])
                                      for j in rng.sample(range(V.dim), 2)})
    return f


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_composites_agree_with_the_naive_shuffle_expansion(data):
    degrees = data.draw(st.lists(st.integers(-1, 3), min_size=2, max_size=4))
    V = GradedVectorSpace([(f"e{i}", d) for i, d in enumerate(degrees)])
    n = data.draw(st.integers(1, 5))
    rng = data.draw(st.randoms(use_true_random=False))
    inner_ops = {k: _dense_map(rng, V, k) for k in range(1, n + 1)
                 if data.draw(st.booleans())}
    outer_ops = {k: _dense_map(rng, V, k) for k in range(1, n + 1)
                 if data.draw(st.booleans())}
    factor = data.draw(st.sampled_from([1, -1, 2, Fraction(-1, 3)]))
    tuples = list(canonical_tuples(V, n))
    for idx in rng.sample(tuples, min(4, len(tuples))):
        total = {}
        accumulate_composites(total, V, idx, inner_ops, outer_ops, factor)
        assert total == _composites_naive(V, idx, inner_ops, outer_ops,
                                          factor), idx
        for c in total.values():
            assert_exact_scalar(c)


def test_a_direct_table_write_shows_in_the_next_lookup():
    V = space_xyz()
    a, x, y, z = range(4)
    f = MultilinearMap(V, V, 2, 0)
    d = MultilinearMap(V, V, 1, 1)
    d.set_entry(("a",), V.basis_vector("x"))
    d.set_entry(("y",), V.basis_vector("z"))
    args = [V.basis_vector("x"), V.basis_vector("a")]
    assert f.evaluate(args).is_zero()
    assert f.evaluate_indices((x, a)).is_zero()
    total = {}
    accumulate_composites(total, V, (a, y), {1: d}, {2: f})
    assert total == {}
    # past set_entry, as corpus.perturb_quasi_cyclic writes
    f.table[(a, x)] = V.basis_vector("x")
    f.table[(x, y)] = V.basis_vector("z")
    f.table[(a, z)] = V.basis_vector("z")
    assert f.evaluate(args) == V.vector({"x": -1})
    assert f.evaluate_indices((x, a)) == V.vector({"x": -1})
    assert f.evaluate_indices(("a", "x")) == V.basis_vector("x")
    # minus the (1, 1)-shuffle sum over (a, y): f(d a, y) = f(x, y) = z,
    # and the swapped shuffle, sign -1, gives f(d y, a) = f(z, a) = -z
    accumulate_composites(total, V, (a, y), {1: d}, {2: f})
    assert total == {z: -2}
