import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie import core
from gradedlie.core import LinearMap, canonical_tuples, coordinates_in_span
from gradedlie.dgla import (
    DgLieAlgebra, EquivariantObstruction, Splitting, cohomology,
    compute_splitting, find_equivariant_splitting, restrict_to_span,
    validate_dgla, verify_splitting,
)
from gradedlie.corpus import (
    nocontraction, noformal_degree3, perturb_quasi_cyclic,
    random_quasi_cyclic_two_step, standard_corpus, weighted_pair,
)
from gradedlie.documents import (
    bundled_documents, document_splitting, document_to_quasi_cyclic,
    parse_document,
)

from oracles import (
    assert_exact_scalar, build_algebra, canonical_splitting_naive,
    contraction_violations_naive, degree_rich_algebras,
    dgla_violations_naive, rref_naive, splitting_maps_naive,
)


# --- axiom validation ---------------------------------------------------------

def test_corpus_algebras_satisfy_all_axioms():
    for name, Q in standard_corpus():
        assert validate_dgla(Q.algebra) == [], name


def test_differential_squaring_to_nonzero_is_reported():
    A = build_algebra([("a", 0), ("x", 1), ("z", 2)],
                      {"a": {"x": 1}, "x": {"z": 1}}, {})
    bad = validate_dgla(A)
    assert [v.identity for v in bad] == ["d_squared"]
    assert bad[0].where == ("a",)


def test_leibniz_failure_is_reported_at_the_offending_pair():
    A = build_algebra([("a", 0), ("b", 0), ("x", 1)],
                      {"a": {"x": 1}},
                      {("a", "b"): {"a": 1}})
    bad = validate_dgla(A)
    assert [v.identity for v in bad] == ["leibniz"]
    assert bad[0].where == ("a", "b")
    assert "x" in bad[0].detail


def test_jacobi_failure_is_reported_at_the_offending_triple():
    A = build_algebra([("a", 0), ("b", 0), ("c", 0)], {},
                      {("a", "b"): {"c": 1}, ("b", "c"): {"b": 1}})
    bad = validate_dgla(A)
    assert [v.identity for v in bad] == ["jacobi"]
    assert bad[0].where == ("a", "b", "c")


def test_pruned_checks_report_like_the_full_loops():
    """Leibniz and Jacobi visit only the degree-feasible tuples; on inputs
    with tuples on both sides of that prune they report exactly what
    the loops over every pair and triple report, in the same order."""
    found = set()
    for name, A in degree_rich_algebras():
        space = A.space
        for arity, shift in ((2, 1), (3, 0)):
            feasible = len(list(canonical_tuples(space, arity, shift)))
            assert 0 < feasible < len(list(canonical_tuples(space, arity))), \
                (name, arity)
        got = [(v.identity, v.where, v.detail) for v in validate_dgla(A)
               if v.identity in ("leibniz", "jacobi")]
        assert got == dgla_violations_naive(A), name
        found.update(identity for identity, _, _ in got)
    assert found == {"leibniz", "jacobi"}


def test_pruned_induced_jacobi_check_reports_like_the_full_loop():
    found = 0
    for name, A in degree_rich_algebras():
        try:
            C = cohomology(A)
        except ValueError:
            continue  # an edit with d^2 != 0 has no splitting
        H = C.space
        induced = DgLieAlgebra(H, LinearMap.zero(H, H, 1), C.bracket)
        expected = [("jacobi_induced", where, detail) for identity, where, detail
                    in dgla_violations_naive(induced) if identity == "jacobi"]
        assert [(v.identity, v.where, v.detail)
                for v in C.violations] == expected, name
        found += len(expected)
    assert found


def test_validation_evaluates_no_tuple_without_a_degree_to_land_in(monkeypatch):
    """In degrees 1-2 a Leibniz defect (degree sum + 1) and a Jacobi
    defect (degree sum) sit in degree 3 or more, outside the algebra, so
    no pair or triple is handed to the evaluation at all."""
    handed = {}

    def recording(space, arity, shift=None, degrees=None):
        items = list(canonical_tuples(space, arity, shift, degrees))
        handed.setdefault((arity, shift), []).append(len(items))
        return iter(items)

    monkeypatch.setattr(core, "canonical_tuples", recording)
    A = random_quasi_cyclic_two_step(random.Random(0), 4, 6).algebra
    assert set(A.space.degrees) == {1, 2}
    assert validate_dgla(A) == []
    leibniz, jacobi = handed[(2, 1)], handed[(3, 0)]
    assert [leibniz, jacobi] == [[0], [0]]


def test_a_bracket_breaking_leibniz_and_jacobi_is_still_reported():
    name, A = degree_rich_algebras()[-1]
    assert name == "nocontraction + [a, b] = b"
    bad = validate_dgla(A)
    assert ("leibniz", ("a", "b")) in [(v.identity, v.where) for v in bad]
    assert ("jacobi", ("a", "b", "x")) in [(v.identity, v.where) for v in bad]


def test_algebra_constructor_rejects_wrong_shapes():
    from gradedlie.core import GradedVectorSpace, LinearMap, MultilinearMap
    V = GradedVectorSpace([("a", 0), ("x", 1)])
    d = LinearMap.zero(V, V, 1)
    with pytest.raises(ValueError):
        DgLieAlgebra(V, LinearMap.zero(V, V, 0), MultilinearMap(V, V, 2, 0))
    with pytest.raises(ValueError):
        DgLieAlgebra(V, d, MultilinearMap(V, V, 3, 0))
    with pytest.raises(ValueError):
        DgLieAlgebra(V, d, MultilinearMap(V, V, 2, 1))


# --- splittings ----------------------------------------------------------------

def test_canonical_splitting_of_the_degree_two_example():
    A = nocontraction().algebra
    s = compute_splitting(A)
    assert [repr(v) for v in s.h_vectors] == ["a", "x", "y", "z"]
    assert [repr(v) for v in s.k_vectors] == ["b", "p"]
    assert [repr(v) for v in s.dk_vectors] == ["db", "dp"]
    # the homotopy is minus the inverse of d on the coboundaries
    assert repr(s.h(A.space.basis_vector("db"))) == "-b"
    assert repr(s.h(A.space.basis_vector("dp"))) == "-p"
    assert s.h(A.space.basis_vector("x")).is_zero()


def test_canonical_splitting_of_the_weighted_pair():
    A = weighted_pair().algebra
    s = compute_splitting(A)
    assert [repr(v) for v in s.h_vectors] == ["g", "x1", "x2", "w"]
    assert [repr(v) for v in s.k_vectors] == ["u1", "u2"]


def test_corpus_splittings_satisfy_the_contraction_identities():
    for name, Q in standard_corpus():
        s = compute_splitting(Q.algebra)
        assert verify_splitting(s) == [], name


def test_splitting_rejects_wrong_count_and_dependence():
    A = nocontraction().algebra
    V = A.space
    h = [V.basis_vector(l) for l in ("a", "x", "y", "z")]
    with pytest.raises(ValueError, match="6 vectors"):
        Splitting(A, h, [V.basis_vector("b")])
    h_bad = [V.basis_vector(l) for l in ("a", "x", "y", "db")]
    with pytest.raises(ValueError, match="do not span"):
        Splitting(A, h_bad, [V.basis_vector("b"), V.basis_vector("p")])
    with pytest.raises(ValueError):
        Splitting(A, h[:3] + [V.vector({"a": 1, "x": 1})],
                  [V.basis_vector("b"), V.basis_vector("p")])


CORPUS = standard_corpus()
TILTS = st.one_of(st.integers(-2, 2),
                  st.fractions(min_value=-2, max_value=2, max_denominator=3))


def tilted_splitting_vectors(s, draw):
    """H and K of a splitting, mixed triangularly within each degree:
    h' = c h + (coboundaries), k' = c k + (H, d(K), earlier K).  With a
    nonzero c this stays a splitting; c = 0 makes it degenerate."""
    def combine(vec, scale, others):
        out = vec.scale(scale)
        for w in others:
            if w.degree() == vec.degree():
                out = out + w.scale(draw(TILTS))
        return out
    h = [combine(v, draw(TILTS), s.dk_vectors) for v in s.h_vectors]
    k = []
    for j, v in enumerate(s.k_vectors):
        k.append(combine(v, draw(TILTS),
                         s.h_vectors + s.dk_vectors + s.k_vectors[:j]))
    return h, k


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_splitting_maps_agree_with_one_solve_per_basis_vector(data):
    name, Q = data.draw(st.sampled_from(CORPUS))
    A = Q.algebra
    h, k = tilted_splitting_vectors(compute_splitting(A), data.draw)
    if any(v.is_zero() for v in h + k):
        return
    rows = [v.dense() for v in h + [A.d.apply(v) for v in k] + k]
    if len(rref_naive(rows)[1]) < A.space.dim:
        with pytest.raises(ValueError, match="do not span"):
            Splitting(A, h, k)
        return
    s = Splitting(A, h, k)
    pi_cols, h_cols = splitting_maps_naive(s)
    assert {l: v.coeffs for l, v in s.pi.columns.items()} == pi_cols, name
    assert {l: v.coeffs for l, v in s.h.columns.items()} == h_cols, name
    for v in list(s.pi.columns.values()) + list(s.h.columns.values()):
        for c in v.coeffs.values():
            assert_exact_scalar(c)
    assert verify_splitting(s) == [], name
    # the identities verify_splitting leaves to the constructor:
    # pi iota = id, h iota = 0, pi h = 0, h h = 0
    for i, v in enumerate(s.h_vectors):
        assert _apply_columns(pi_cols, v.coeffs) == {i: 1}, name
        assert _apply_columns(h_cols, v.coeffs) == {}, name
    for column in h_cols.values():
        assert _apply_columns(pi_cols, column) == {}, name
        assert _apply_columns(h_cols, column) == {}, name


def _apply_columns(columns, coeffs):
    """The map with the given columns applied to a coefficient dict."""
    out = {}
    for l, c in coeffs.items():
        for i, x in columns.get(l, {}).items():
            out[i] = out.get(i, 0) + c * x
    return {i: x for i, x in out.items() if x}


def test_compute_splitting_matches_the_greedy_loops():
    inputs = [(name, Q.algebra) for name, Q in CORPUS] + degree_rich_algebras()
    rng = random.Random(11)
    for name, Q in CORPUS:
        for _ in range(20):
            desc, edited = perturb_quasi_cyclic(Q, rng)
            inputs.append((f"{name}: {desc}", edited.algebra))
    raised = 0
    for name, A in inputs:
        h, k = canonical_splitting_naive(A)
        try:
            expected = Splitting(A, h, k)
        except ValueError as error:
            raised += 1
            L = A.space
            defects = ((i, A.d.apply(A.d.apply(L.basis_vector(i))))
                       for i in range(L.dim))
            i, dd = next(((i, v) for i, v in defects if not v.is_zero()),
                         (None, None))
            message = (str(error) if i is None else
                       f"differential does not square to zero: "
                       f"d(d({L.labels[i]})) = {dd}")
            with pytest.raises(ValueError) as info:
                compute_splitting(A)
            assert str(info.value) == message, name
            continue
        s = compute_splitting(A)
        assert [repr(v) for v in s.h_vectors] == \
            [repr(v) for v in expected.h_vectors], name
        assert [repr(v) for v in s.k_vectors] == \
            [repr(v) for v in expected.k_vectors], name
    assert raised  # the d^2 != 0 branch ran


def test_non_cocycle_representative_fails_verification():
    A = nocontraction().algebra
    V = A.space
    h = [V.basis_vector("a"), V.vector({"x": 1, "p": 1}),
         V.basis_vector("y"), V.basis_vector("z")]
    s = Splitting(A, h, [V.basis_vector("b"), V.basis_vector("p")])
    bad = verify_splitting(s)
    assert "contraction:d_iota" in {v.identity for v in bad}


def _contraction_inputs(kind):
    if kind == "corpus":
        return [(name, compute_splitting(Q.algebra))
                for name, Q in standard_corpus()]
    if kind == "degree-rich":
        out = []
        for name, A in degree_rich_algebras():
            try:
                out.append((name, compute_splitting(A)))
            except ValueError:  # d^2 != 0: there is no splitting
                pass
        return out
    # seeded one-constant edits under each document's declared splitting
    out, rng = [], random.Random(17)
    for name, text in bundled_documents():
        doc = parse_document(text)
        Q = document_to_quasi_cyclic(doc)
        for _ in range(20):
            desc, edited = perturb_quasi_cyclic(Q, rng)
            out.append((f"{name}: {desc}",
                        document_splitting(doc, edited.algebra)))
    return out


@pytest.mark.parametrize("kind", ["corpus", "degree-rich", "declared-edits"])
def test_contraction_check_agrees_with_dense_products(kind):
    found = set()
    for name, s in _contraction_inputs(kind):
        got = [(v.identity, v.where, v.detail) for v in verify_splitting(s)]
        assert got == contraction_violations_naive(s), name
        found.update(identity for identity, _, _ in got)
    if kind == "declared-edits":
        assert found == {"contraction:d_iota", "contraction:pi_d",
                         "contraction:homotopy"}


def test_complement_tilted_by_cocycles_is_still_a_splitting():
    A = nocontraction().algebra
    V = A.space
    h = [V.basis_vector(l) for l in ("a", "x", "y", "z")]
    k = [V.basis_vector("b"), V.vector({"p": 1, "x": 1})]
    assert verify_splitting(Splitting(A, h, k)) == []


# --- equivariant splittings ------------------------------------------------------

def test_no_action_returns_the_canonical_splitting():
    A = nocontraction().algebra
    s = find_equivariant_splitting(A, [])
    assert isinstance(s, Splitting)
    assert [repr(v) for v in s.h_vectors] == ["a", "x", "y", "z"]


def test_invariant_canonical_splitting_is_returned_as_is():
    A = weighted_pair().algebra
    s = find_equivariant_splitting(A, [A.space.basis_vector("g")])
    assert isinstance(s, Splitting)
    assert [repr(v) for v in s.h_vectors] == ["g", "x1", "x2", "w"]


def test_obstructed_action_yields_a_certificate():
    A = nocontraction().algebra
    res = find_equivariant_splitting(A, [A.space.basis_vector("a")])
    assert isinstance(res, EquivariantObstruction)
    assert res.degree == 1
    assert (res.n_equations, res.n_unknowns) == (4, 3)
    assert res.action_label == "a"
    assert repr(res.vector) == "x"
    assert repr(res.image) == "-db"
    text = res.describe()
    assert "degree 1" in text and "[a, x] = -db" in text


def _action_moves_u_to_z(brackets):
    return build_algebra([("g", 0), ("u", 1), ("z", 1), ("du", 2)],
                         {"u": {"du": 1}}, brackets)


def test_no_invariant_complement_of_the_cocycles_is_an_obstruction():
    # [g, u] = z: any retraction P onto span(z) with P(z) = 1 would need
    # P([g, u]) = [g, P(u)] = 0
    A = _action_moves_u_to_z({("g", "u"): {"z": 1}})
    assert validate_dgla(A) == []
    res = find_equivariant_splitting(A, [A.space.basis_vector("g")])
    assert isinstance(res, EquivariantObstruction)
    assert res.degree == 1
    assert (res.n_equations, res.n_unknowns) == (3, 2)
    assert res.vector is None
    assert res.describe() == (
        "no invariant complement in degree 1: the 3 retraction equations "
        "in 2 unknowns are unsatisfiable")


def test_equivariant_search_rejects_an_action_off_the_flag():
    # [g, dv] = z moves a coboundary out of the coboundaries
    A = build_algebra([("g", 0), ("v", 0), ("dv", 1), ("z", 1)],
                      {"v": {"dv": 1}},
                      {("g", "dv"): {"z": 1}, ("g", "z"): {"dv": 1}})
    with pytest.raises(ValueError, match="does not preserve the flag"):
        find_equivariant_splitting(A, [A.space.basis_vector("g")])
    # [g, z] = u moves a cocycle out of the cocycles
    B = _action_moves_u_to_z({("g", "z"): {"u": 1}})
    with pytest.raises(ValueError, match="does not preserve the cocycles"):
        find_equivariant_splitting(B, [B.space.basis_vector("g")])


def test_solver_finds_a_non_canonical_invariant_complement():
    # the canonical degree-2 representative is moved into the coboundaries
    # by the action; the unique invariant representative is z - du/2
    A = build_algebra(
        [("g", 0), ("u", 1), ("z", 2), ("du", 2)],
        {"u": {"du": 1}},
        {("g", "u"): {"u": 2}, ("g", "du"): {"du": 2}, ("g", "z"): {"du": 1}})
    assert validate_dgla(A) == []
    g = A.space.basis_vector("g")
    canonical = compute_splitting(A)
    top = [v for v in canonical.h_vectors if v.degree() == 2]
    assert [repr(v) for v in top] == ["z"]  # and [g, z] = du escapes it
    s = find_equivariant_splitting(A, [g])
    assert isinstance(s, Splitting)
    rep = [v for v in s.h_vectors if v.degree() == 2]
    assert len(rep) == 1
    expected = A.space.vector({"z": 1, "du": Fraction(-1, 2)})
    assert coordinates_in_span(rep, expected) is not None
    assert A.bracket_of(g, rep[0]).is_zero()


def test_equivariant_search_validates_its_input():
    A = nocontraction().algebra
    V = A.space
    with pytest.raises(ValueError, match="degree 0"):
        find_equivariant_splitting(A, [V.basis_vector("x")])
    B = build_algebra([("a", 0), ("x", 1)], {"a": {"x": 1}}, {})
    with pytest.raises(ValueError, match="not a cocycle"):
        find_equivariant_splitting(B, [B.space.basis_vector("a")])
    C = build_algebra([("g1", 0), ("g2", 0), ("g3", 0)], {},
                      {("g1", "g2"): {"g3": 1}})
    with pytest.raises(ValueError, match="not closed"):
        find_equivariant_splitting(C, [C.space.basis_vector("g1"),
                                       C.space.basis_vector("g2")])


def test_generators_must_complement_the_coboundaries_in_degree_zero():
    # b is a degree-0 cocycle of the weighted pair only in this variant:
    # here the generator is a coboundary-shifted copy that stays legal,
    # while a dependent family must be rejected.
    A = weighted_pair().algebra
    g = A.space.basis_vector("g")
    with pytest.raises(ValueError, match="complement"):
        find_equivariant_splitting(A, [g, g.scale(2)])


# --- cohomology -------------------------------------------------------------------

def test_cohomology_of_the_degree_two_example_is_abelian():
    coh = cohomology(nocontraction().algebra)
    assert coh.dims == {0: 1, 1: 2, 2: 1}
    assert coh.bracket.is_zero()
    assert coh.violations == []
    assert [repr(v) for v in coh.representatives] == ["a", "x", "y", "z"]


def test_cohomology_of_the_degree_three_example():
    coh = cohomology(noformal_degree3().algebra)
    assert coh.dims == {1: 1, 2: 1}
    assert coh.bracket.is_zero()


def test_cohomology_of_the_weighted_pair_keeps_its_bracket():
    coh = cohomology(weighted_pair().algebra)
    assert coh.dims == {0: 1, 1: 2, 2: 1}
    H = coh.space
    ev = lambda a, b: coh.bracket.evaluate([H.basis_vector(a), H.basis_vector(b)])
    assert repr(ev("g", "x1")) == "x1"
    assert repr(ev("g", "x2")) == "-x2"
    assert repr(ev("x1", "x2")) == "w"
    assert ev("x1", "x1").is_zero()  # the self-bracket is exact downstairs
    assert coh.violations == []


def test_corpus_cohomology_brackets_satisfy_jacobi():
    for name, Q in standard_corpus():
        assert cohomology(Q.algebra).violations == [], name


# --- restriction --------------------------------------------------------------------

def test_restriction_to_a_closed_span():
    A = nocontraction().algebra
    V = A.space
    sub, embed = restrict_to_span(
        A, [V.basis_vector("a"), V.basis_vector("b"), V.basis_vector("db")])
    assert sub.space.dim == 3
    assert validate_dgla(sub) == []
    assert repr(sub.d.apply(sub.space.basis_vector("b"))) == "db"
    assert repr(embed.apply(sub.space.basis_vector("db"))) == "db"


def test_restriction_rejects_a_non_closed_span():
    A = nocontraction().algebra
    V = A.space
    with pytest.raises(ValueError, match="escapes"):
        restrict_to_span(A, [V.basis_vector("a"), V.basis_vector("x")])
