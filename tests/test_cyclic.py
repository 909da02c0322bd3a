import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie.core import (
    GradedVectorSpace, MultilinearMap, Vector, coordinates_in_span,
)
from gradedlie.cyclic import (
    CyclicPairing, NormalizationError, QuasiCyclicDgla,
    SymplecticRepresentation, from_symplectic_representation,
    _compatibility_violations, _gram_rank, normalize_splitting,
    validate_pairing,
)
from gradedlie.dgla import Splitting, compute_splitting, validate_dgla
from gradedlie.formality import build_formality_witness, verify_witness
from gradedlie.corpus import (
    abelian_base, diagonal_symplectic, nocontraction, noformal_degree3,
    perturb_quasi_cyclic, random_symplectic, standard_corpus, tensor_cell,
    weighted_pair,
)

from oracles import (
    assert_exact_scalar, build_algebra, lie_jacobi_cyclic_sums_naive,
    pairing_closed_violations_naive, pairing_cyclic_violations_naive,
    pairing_value_naive, rref_naive,
)


# --- pairing storage ----------------------------------------------------------

def test_entries_fold_with_the_graded_symmetry_sign():
    V = nocontraction().space
    f = CyclicPairing(V, 2)
    f.set_entry(("y", "x"), 1)  # odd-odd swap flips the sign
    assert f.evaluate(V.basis_vector("x"), V.basis_vector("y")) == -1
    assert f.evaluate(V.basis_vector("y"), V.basis_vector("x")) == 1
    f.set_entry(("x", "y"), -1)  # consistent re-assignment is fine
    with pytest.raises(ValueError, match="conflicting"):
        f.set_entry(("x", "y"), 1)


def test_illegal_entries_are_rejected():
    V = nocontraction().space
    f = CyclicPairing(V, 2)
    with pytest.raises(ValueError, match="forced to 0"):
        f.set_entry(("x", "x"), 1)
    with pytest.raises(ValueError, match="degree"):
        f.set_entry(("a", "x"), 1)
    f.set_entry(("a", "x"), 0)  # zero is always allowed
    g = CyclicPairing(V, 4)
    g.set_entry(("z", "z"), 3)  # even diagonal is legal
    assert g.evaluate(V.basis_vector("z"), V.basis_vector("z")) == 3


def test_pairing_and_algebra_must_share_a_space():
    Q = nocontraction()
    other = CyclicPairing(abelian_base().space, 2)
    with pytest.raises(ValueError, match="share"):
        QuasiCyclicDgla(Q.algebra, other)


@settings(max_examples=40)
@given(st.randoms(use_true_random=False))
def test_evaluation_is_graded_symmetric_on_homogeneous_vectors(rng):
    Q = nocontraction()
    V, f = Q.space, Q.pairing
    du, dv = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
    u = V.zero()
    for i in V.indices_of_degree(du):
        u = u + V.basis_vector(i).scale(Fraction(rng.randint(-3, 3)))
    v = V.zero()
    for i in V.indices_of_degree(dv):
        v = v + V.basis_vector(i).scale(Fraction(rng.randint(-3, 3)))
    sign = -1 if (du % 2 and dv % 2) else 1
    assert f.evaluate(u, v) == sign * f.evaluate(v, u)


# --- classification of the corpus -----------------------------------------------

EXPECTED = {
    "nocontraction": ("cyclic of degree 2", 8, 4),
    "noformal-degree3": ("cyclic of degree 3", 4, 2),
    "weighted-pair": ("quasi-cyclic of degree 2", 6, 4),
    "abelian-base": ("cyclic of degree 2", 4, 4),
    "diagonal-symplectic": ("cyclic of degree 2", 4, 4),
    "cell-abelian": ("quasi-cyclic of degree 2", 4, 4),
    "cell-symplectic": ("quasi-cyclic of degree 2", 4, 4),
    "random-quasi-cyclic-1": ("quasi-cyclic of degree 2", 4, 2),
    "random-quasi-cyclic-2": ("quasi-cyclic of degree 2", 4, 2),
}


def test_corpus_classification_is_frozen():
    for name, Q in standard_corpus():
        rep = validate_pairing(Q)
        assert rep.violations == [], name
        assert (rep.status(), rep.rank_on_L, rep.rank_on_H) == EXPECTED[name], name


def _random_form(rng):
    degrees = [rng.choice([-1, 0, 1, 1, 2, 3])
               for _ in range(rng.randint(1, 9))]
    V = GradedVectorSpace([(f"e{i}", d) for i, d in enumerate(degrees)])
    form = CyclicPairing(V, rng.choice([0, 1, 2, 2, 3, 4]))
    for i in range(V.dim):
        for j in range(i, V.dim):
            if (degrees[i] + degrees[j] == form.degree
                    and not (i == j and degrees[i] % 2)
                    and rng.random() < 0.5):
                form.set_entry((i, j), rng.randint(-2, 2))
    return form


def test_gram_rank_sums_the_degree_blocks():
    """The block rank against the naive rank of the whole dim x dim Gram
    matrix: the corpus forms and their pullbacks onto H, seeded random
    forms, and a degenerate form whose blocks have rank 1."""
    forms = []
    for name, Q in standard_corpus():
        s = compute_splitting(Q.algebra)
        forms += [Q.pairing, Q.pairing.pullback(s.h_space, s.h_vectors)]
    rng = random.Random(4)
    forms += [_random_form(rng) for _ in range(200)]
    V = GradedVectorSpace([("a", 0), ("b", 0), ("x", 1), ("y", 1),
                           ("w", 2)])
    degenerate = CyclicPairing(V, 2, {("a", "w"): 1, ("b", "w"): 2,
                                      ("x", "y"): 0})
    forms.append(degenerate)
    ranks = set()
    for form in forms:
        dim = form.space.dim
        naive = len(rref_naive([[form.value_indices(i, j)
                                 for j in range(dim)]
                                for i in range(dim)])[1])
        assert _gram_rank(form) == naive, form.entries()
        ranks.add((naive, dim))
    assert _gram_rank(degenerate) == 2
    assert any(rank < dim for rank, dim in ranks)
    assert any(0 < rank == dim for rank, dim in ranks)


def test_explicit_splitting_gives_the_same_classification():
    Q = weighted_pair()
    s = compute_splitting(Q.algebra)
    assert validate_pairing(Q, s).status() == validate_pairing(Q).status()


def test_degree_two_bracket_sign_is_forced():
    """Exactly one sign assignment on the 9 structure constants of the
    degree-2 example is cyclic; with [a, x] = +db the defect shows up at
    precisely four ordered triples, and no other single flip repairs it."""
    BASIS = [("a", 0), ("b", 0), ("x", 1), ("y", 1), ("p", 1), ("db", 1),
             ("z", 2), ("dp", 2)]
    BRACKETS = [("a", "x", "db"), ("a", "p", "y"), ("x", "x", "dp"),
                ("p", "x", "z"), ("b", "x", "y")]
    PAIRS = [("x", "y", -1), ("db", "p", -1), ("a", "z", 1), ("b", "dp", 1)]

    def instance(flip):
        A = build_algebra(
            BASIS, {"b": {"db": 1}, "p": {"dp": 1}},
            {(u, v): {w: (-1 if flip == ("bracket", n) else 1)}
             for n, (u, v, w) in enumerate(BRACKETS)})
        form = CyclicPairing(A.space, 2, [
            ((u, v), (-c if flip == ("pair", n) else c))
            for n, (u, v, c) in enumerate(PAIRS)])
        return QuasiCyclicDgla(A, form)

    unflipped = validate_pairing(instance(None))
    assert not unflipped.is_cyclic
    assert sorted(v.where for v in unflipped.violations) == [
        ("a", "x", "p"), ("p", "a", "x"), ("p", "x", "a"), ("x", "a", "p")]

    fixes = []
    for kind, table in (("bracket", BRACKETS), ("pair", PAIRS)):
        for n in range(len(table)):
            Q = instance((kind, n))
            rep = validate_pairing(Q)
            if validate_dgla(Q.algebra) == [] and rep.violations == [] and rep.is_cyclic:
                fixes.append((kind, table[n][:2]))
    assert fixes == [("bracket", ("a", "x"))]
    # and the shipped instance carries exactly that repair
    shipped = nocontraction()
    V = shipped.space
    assert repr(shipped.algebra.bracket_of(
        V.basis_vector("a"), V.basis_vector("x"))) == "-db"


def test_gram_rows_carry_the_mirror_sign():
    Q = nocontraction()
    form = CyclicPairing(Q.space, 2)
    form.set_entry(("x", "y"), -1)
    i, j = Q.space.index("x"), Q.space.index("y")  # odd-odd: (y, x) = -(x, y)
    assert form.value_indices(j, i) == 1 == -form.value_indices(i, j)


def test_a_conflicting_value_on_the_mirrored_pair_raises():
    Q = nocontraction()
    form = CyclicPairing(Q.space, 2, dict(Q.pairing.entries()))
    form.set_entry(("y", "x"), 1)  # (y, x) = -(x, y) = 1: consistent
    with pytest.raises(ValueError,
                       match=r"conflicting values for \(x, y\): -1 vs 1"):
        form.set_entry(("y", "x"), -1)
    # a zero is a value too, on the pair itself or on its mirror
    for key in (("x", "y"), ("y", "x")):
        with pytest.raises(ValueError,
                           match=r"conflicting values for \(x, y\): -1 vs 0"):
            form.set_entry(key, 0)
    with pytest.raises(ValueError, match="conflicting"):
        CyclicPairing(Q.space, 2, [(("x", "y"), 1), (("y", "x"), 0)])


def test_closedness_failure_is_reported_with_its_pair():
    Q = noformal_degree3()
    form = CyclicPairing(Q.space, 3, dict(Q.pairing.entries()))
    form.set_entry(("a", "db"), 1)  # breaks compatibility with d
    rep = validate_pairing(QuasiCyclicDgla(Q.algebra, form))
    kinds = {v.identity for v in rep.violations}
    assert "pairing_closed" in kinds
    assert "orthogonality_H_dK" in kinds
    assert not rep.cyclic_on_L
    assert rep.status() == "not quasi-cyclic"


# --- symplectic representations ---------------------------------------------------

def test_diagonal_action_induces_the_expected_instance():
    R = diagonal_symplectic()
    assert R.validate() == []
    Q = from_symplectic_representation(R)
    V = Q.space
    assert list(V.labels) == ["g", "v1", "v2", "g^"]
    assert [V.degrees[i] for i in range(4)] == [0, 1, 1, 2]
    b = Q.algebra.bracket_of
    assert repr(b(V.basis_vector("g"), V.basis_vector("v1"))) == "v1"
    assert repr(b(V.basis_vector("g"), V.basis_vector("v2"))) == "-v2"
    assert repr(b(V.basis_vector("v1"), V.basis_vector("v2"))) == "g^"
    assert b(V.basis_vector("v1"), V.basis_vector("v1")).is_zero()
    assert Q.pairing.evaluate(V.basis_vector("g"), V.basis_vector("g^")) == 1
    assert Q.pairing.evaluate(V.basis_vector("v1"), V.basis_vector("v2")) == 1
    assert validate_pairing(Q).status() == "cyclic of degree 2"


def test_a_nonabelian_lie_algebra_gives_a_valid_cyclic_instance():
    # sl2 = sp2 acting on Q^2: the coadjoint block [g, k^] is the sum over
    # h of the coefficient of k in [h, g], times h^
    labels = ["e", "f", "h"]
    brackets = {("e", "f"): {"h": 1}, ("h", "e"): {"e": 2},
                ("h", "f"): {"f": -2}}
    actions = {"e": [[0, 1], [0, 0]], "f": [[0, 0], [1, 0]],
               "h": [[1, 0], [0, -1]]}
    R = SymplecticRepresentation(labels, brackets, ["v1", "v2"], actions,
                                 [[0, 1], [-1, 0]])
    assert R.validate() == []
    Q = from_symplectic_representation(R)
    assert validate_dgla(Q.algebra) == []
    assert validate_pairing(Q).status() == "cyclic of degree 2"
    V = Q.space
    b = Q.algebra.bracket_of
    assert repr(b(V.basis_vector("e"), V.basis_vector("h^"))) == "-f^"
    assert repr(b(V.basis_vector("h"), V.basis_vector("e^"))) == "-2*e^"


def test_a_bracket_breaking_jacobi_is_reported_once_per_sorted_triple():
    # sl2 with the sign of [h, f] flipped: not a Lie algebra
    labels = ["e", "f", "h"]
    brackets = {("e", "f"): {"h": 1}, ("h", "e"): {"e": 1},
                ("h", "f"): {"f": 1}}
    R = SymplecticRepresentation(labels, brackets, ["v1", "v2"], {},
                                 [[0, 1], [-1, 0]])
    sums = lie_jacobi_cyclic_sums_naive(labels, brackets)
    assert {tuple(sorted(t, key=labels.index)) for t in sums} \
        == {("e", "f", "h")}
    expected = [("jacobi", t, f"defect {R.lie_space.vector(s)}")
                for t, s in sums.items()
                if list(t) == sorted(t, key=labels.index)]
    assert expected == [("jacobi", ("e", "f", "h"), "defect 2*h")]
    rows = [(v.identity, v.where, v.detail) for v in R.validate()]
    # the built algebra also fails Jacobi on the coadjoint triples
    assert [r for r in rows if set(r[1]) <= set(labels)] == expected
    assert {r[1] for r in rows} == {("e", "f", "h"), ("e", "f", "h^"),
                                    ("e", "h", "h^"), ("f", "h", "h^")}


@pytest.mark.parametrize("omega, row", [
    ([[0, 1], [1, 0]], ("omega_skew", ("v1", "v2"), "defect 2")),
    ([[0, 0], [0, 0]], ("omega_nondegenerate", ("v1", "v2"), "rank 0 < 2")),
])
def test_a_bad_omega_is_reported(omega, row):
    R = SymplecticRepresentation(["g"], {}, ["v1", "v2"], {}, omega)
    assert row in [(v.identity, v.where, v.detail) for v in R.validate()]


@pytest.mark.parametrize("v_labels, action_label, clash", [
    (["v1", "v2"], "gg", "'gg'"), (["g^", "v2"], "g", "'g\\^'"),
    (["g", "v2"], "g", "'g'"), (["v1", "v1"], "g", "'v1'"),
])
def test_a_label_naming_no_or_two_basis_vectors_is_rejected(
        v_labels, action_label, clash):
    with pytest.raises(ValueError, match=clash):
        SymplecticRepresentation(["g"], {}, v_labels,
                                 {action_label: [[1, 0], [0, -1]]},
                                 [[0, 1], [-1, 0]])


def test_preserving_actions_give_cyclic_instances_and_violations_surface():
    rng = random.Random(11)
    for _ in range(6):
        R = random_symplectic(rng)
        assert R.validate() == []
        rep = validate_pairing(from_symplectic_representation(R))
        assert rep.is_cyclic and rep.violations == []
    for _ in range(6):
        R = random_symplectic(rng, violate=True)
        kinds = {v.identity for v in R.validate()}
        assert "pairing_cyclic" in kinds
        rep = validate_pairing(from_symplectic_representation(R))
        assert not rep.is_cyclic
        assert any(v.identity == "pairing_cyclic" for v in rep.violations)


# --- orthogonal normalization ------------------------------------------------------

def test_already_orthogonal_complement_is_kept():
    Q = weighted_pair()
    s = compute_splitting(Q.algebra)
    res = normalize_splitting(Q, s)
    assert [repr(v) for v in res.splitting.k_vectors] == ["u1", "u2"]
    assert res.restricted is False
    assert res.notes == []


def test_tilted_complement_is_orthogonalized_back():
    Q = tensor_cell(abelian_base())
    A, V, form = Q.algebra, Q.space, Q.pairing
    canonical = compute_splitting(A)
    tilted = Splitting(A, list(canonical.h_vectors), [
        V.basis_vector("e0.t"),
        V.vector({"e1.t": 1, "f1": 1}),
        V.basis_vector("f1.t"),
        V.basis_vector("f0.t"),
    ])
    assert form.evaluate(V.basis_vector("e1"),
                         V.vector({"e1.t": 1, "f1": 1})) == 1  # genuinely tilted
    res = normalize_splitting(Q, tilted)
    assert res.restricted is False
    new_k = res.splitting.k_vectors
    assert len(new_k) == 4
    for v in new_k:
        assert coordinates_in_span(canonical.k_vectors, v) is not None
    deg1 = [v for v in new_k if v.degree() == 1]
    assert coordinates_in_span(deg1, V.basis_vector("e1.t")) is not None
    assert coordinates_in_span(deg1, V.basis_vector("f1.t")) is not None


def test_non_perfect_representative_pairing_is_an_error():
    A = build_algebra([("x", 1), ("u", 1), ("du", 2)], {"u": {"du": 1}}, {})
    form = CyclicPairing(A.space, 2, [(("x", "u"), 1)])
    with pytest.raises(NormalizationError, match="is not an isomorphism"):
        normalize_splitting(QuasiCyclicDgla(A, form), compute_splitting(A))


def test_a_pairing_that_is_not_closed_fails_the_post_checks():
    # (g, du1) = 1 makes du1 = d(u1) pair with a representative, so the
    # orthogonalized K + d(K) is not the complement of H
    Q = weighted_pair()
    Q.pairing.set_entry(("g", "du1"), 1)
    with pytest.raises(NormalizationError,
                       match="failed its own consistency checks") as exc:
        normalize_splitting(Q, compute_splitting(Q.algebra))
    assert ("orthogonal_complement", ("du1", "g")) in [
        (v.identity, v.where) for v in exc.value.violations]


def test_negative_degree_representatives_violate_the_preconditions():
    A = build_algebra([("m", -1), ("w", 3)], {}, {})
    form = CyclicPairing(A.space, 2, [(("m", "w"), 1)])
    with pytest.raises(NormalizationError, match="preconditions") as exc:
        normalize_splitting(QuasiCyclicDgla(A, form), compute_splitting(A))
    assert any(v.identity == "H_nonnegative" for v in exc.value.violations)


def test_unclosed_degree_zero_family_violates_the_preconditions():
    # [g1, g2] = dq is a coboundary, so it escapes the span of the
    # degree-0 representatives g1, g2
    A = build_algebra([("q", -1), ("g1", 0), ("g2", 0), ("dq", 0)],
                      {"q": {"dq": 1}}, {("g1", "g2"): {"dq": 1}})
    assert validate_dgla(A) == []
    form = CyclicPairing(A.space, 0, [(("g1", "g1"), 1), (("g2", "g2"), 1)])
    s = compute_splitting(A)
    assert [repr(v) for v in s.h_vectors] == ["g1", "g2"]
    with pytest.raises(NormalizationError) as exc:
        normalize_splitting(QuasiCyclicDgla(A, form), s)
    assert any(v.identity == "H0_closed" for v in exc.value.violations)


def test_action_escaping_the_representatives_violates_the_preconditions():
    A = build_algebra(
        [("g", 0), ("u", 1), ("z", 2), ("du", 2)],
        {"u": {"du": 1}},
        {("g", "u"): {"u": 2}, ("g", "du"): {"du": 2}, ("g", "z"): {"du": 1}})
    form = CyclicPairing(A.space, 2, [(("g", "z"), 1)])
    with pytest.raises(NormalizationError) as exc:
        normalize_splitting(QuasiCyclicDgla(A, form), compute_splitting(A))
    assert any(v.identity == "invariance_H" for v in exc.value.violations)


def test_negative_degrees_trigger_restriction_to_a_subalgebra():
    A = build_algebra([("q", -1), ("dq", 0), ("e1", 1), ("f1", 1)],
                      {"q": {"dq": 1}}, {})
    form = CyclicPairing(A.space, 2, [(("e1", "f1"), 1)])
    Q, s = QuasiCyclicDgla(A, form), compute_splitting(A)
    res = normalize_splitting(Q, s)
    assert res.restricted is True
    assert res.quasi.space.dim == 2
    assert sorted(res.quasi.space.labels) == ["e1", "f1"]
    assert res.splitting.k_vectors == []
    assert res.notes and "restricted" in res.notes[0]
    # the witness is built on the restriction, with the report of the
    # pairing on the whole algebra (degenerate there, so quasi-cyclic)
    witness = build_formality_witness(res, validate_pairing(Q, s), 4)
    assert witness.report[0].startswith(
        "hypotheses checked before the build: quasi-cyclic of degree 2")
    T = witness.transfer
    assert T.algebra is res.quasi.algebra
    assert verify_witness(witness, T) == []


# --- single-constant perturbations ---------------------------------------------------

def test_perturbations_are_caught_or_legitimately_valid():
    rng = random.Random(5)
    caught = 0
    for _ in range(12):
        desc, P = perturb_quasi_cyclic(nocontraction(), rng)
        assert desc
        bad = validate_dgla(P.algebra)
        if bad:
            caught += 1
            assert all(v.identity in
                       {"d_squared", "leibniz", "jacobi"}
                       for v in bad), desc
            continue
        rep = validate_pairing(P)
        if rep.violations:
            caught += 1
            assert all(v.identity.startswith(("pairing_", "orthogonality_"))
                       for v in rep.violations), desc
        elif not rep.is_cyclic:
            caught += 1  # e.g. a rank drop without an identity failure
    assert caught >= 6


# --- the sparse compatibility scan against the dense references ---------------

CORPUS = standard_corpus()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CORPUS), st.integers(0, 3), st.randoms(use_true_random=False))
def test_cyclicity_violations_agree_with_the_dense_triple_loop(named, edits, rng):
    name, Q = named
    for _ in range(edits):
        name, Q = perturb_quasi_cyclic(Q, rng)
    d = Q.algebra.d
    if all(d.apply(column).is_zero() for column in d.columns.values()):
        violations = validate_pairing(Q).violations
    else:  # no splitting exists; check the scan on its own
        violations = _compatibility_violations(Q.algebra.operations(),
                                               Q.pairing)
    for identity, naive in (("pairing_closed", pairing_closed_violations_naive),
                            ("pairing_cyclic", pairing_cyclic_violations_naive)):
        got = [(v.where, v.detail) for v in violations
               if v.identity == identity]
        assert got == naive(Q), (identity, name)
    V = Q.space
    for i in range(V.dim):
        for j in range(V.dim):
            assert_exact_scalar(Q.pairing.value_indices(i, j))
            assert_exact_scalar(Q.pairing.evaluate(
                V.basis_vector(i).scale(rng.choice([1, Fraction(1, 2)])),
                V.basis_vector(j).scale(2)))


def test_the_compatibility_scan_reads_only_the_support(monkeypatch):
    counts = {}

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return original(*args)
        monkeypatch.setattr(cls, name, wrapper)

    counted(MultilinearMap, "evaluate_indices")
    counted(CyclicPairing, "lower")
    # weighted_pair: 2 d columns, 8 off-diagonal and 2 odd-diagonal bracket
    # keys, so 2 + 2 * 8 + 2 orderings, each evaluated and lowered once
    for Q, expected in ((abelian_base(), 0), (weighted_pair(), 20)):
        ops = Q.algebra.operations()
        counts.clear()
        _compatibility_violations(ops, Q.pairing)
        assert counts.get("evaluate_indices", 0) == expected
        assert counts.get("lower", 0) == expected


_SCALARS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CORPUS), st.integers(0, 3),
       st.randoms(use_true_random=False), st.data())
def test_stored_rows_agree_with_the_entries_oracle(named, edits, rng, data):
    """Evaluation, single values, row images and the pullback against
    the form's upper-half entries with the symmetry sign applied by hand."""
    name, Q = named
    for _ in range(edits):
        name, Q = perturb_quasi_cyclic(Q, rng)
    form, V = Q.pairing, Q.space

    def vector(indices):
        coeffs = data.draw(st.dictionaries(st.sampled_from(indices), _SCALARS,
                                           max_size=4))
        return Vector(V, coeffs)

    u, v = vector(range(V.dim)), vector(range(V.dim))
    assert form.evaluate(u, v) == pairing_value_naive(form, u, v), name

    def lowered_naive(x):
        values = {j: pairing_value_naive(form, x, V.basis_vector(j))
                  for j in range(V.dim)}
        return {j: c for j, c in values.items() if c}

    image = form.lower(u)
    assert image.coeffs == lowered_naive(u), name
    for c in image.coeffs.values():
        assert_exact_scalar(c)
    for i in range(V.dim):
        e_i = V.basis_vector(i)
        assert form.lower(e_i).coeffs == lowered_naive(e_i), (name, i)
        for j in range(V.dim):
            assert form.value_indices(i, j) == pairing_value_naive(
                form, e_i, V.basis_vector(j)), (name, i, j)
    degrees = data.draw(st.lists(st.sampled_from(V.degrees_present()),
                                 max_size=4))
    vectors = [vector(V.indices_of_degree(d)) for d in degrees]
    W = GradedVectorSpace([(f"w{a}", d) for a, d in enumerate(degrees)])
    pulled = form.pullback(W, vectors)
    for a, x in enumerate(vectors):
        for b, y in enumerate(vectors):
            assert pulled.value_indices(a, b) == pairing_value_naive(
                form, x, y), (name, a, b)


def test_a_bracket_edit_is_reported_on_every_triple_it_breaks():
    rng = random.Random(3)
    reported = 0
    for _ in range(40):
        desc, P = perturb_quasi_cyclic(nocontraction(), rng)
        if not desc.startswith("bracket"):
            continue
        got = [(v.where, v.detail) for v in validate_pairing(P).violations
               if v.identity == "pairing_cyclic"]
        assert got == pairing_cyclic_violations_naive(P), desc
        reported += len(got)
    assert reported
