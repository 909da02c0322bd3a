import itertools
import random
import sys
import pytest
from hypothesis import given, settings, strategies as st

from gradedlie.core import GradedVectorSpace, MultilinearMap, canonical_tuples
from gradedlie import core, linfty
from gradedlie.dgla import Splitting, cohomology, compute_splitting
from gradedlie.linfty import (
    LInftyAlgebra, LInftyMorphismToDgla, check_linfty_axioms, check_morphism,
    homotopy_transfer,
)
from gradedlie.corpus import (
    abelian_base, nocontraction, random_quasi_cyclic_two_step,
    random_two_step, standard_corpus, weighted_pair,
)

from oracles import (
    build_algebra, degree_rich_algebras, linfty_axiom_violations_naive,
    morphism_violations_naive, transfer_tables_naive,
)


# --- generalized Jacobi identities ---------------------------------------------

def test_corpus_algebras_pass_as_linfty_structures():
    for name, Q in standard_corpus():
        L = LInftyAlgebra(Q.algebra.space, Q.algebra.operations(), 4)
        assert check_linfty_axioms(L, 4) == [], name


def test_arity_one_identity_is_d_squared():
    A = build_algebra([("a", 0), ("x", 1), ("z", 2)],
                      {"a": {"x": 1}, "x": {"z": 1}}, {})
    bad = check_linfty_axioms(LInftyAlgebra(A.space, A.operations(), 3), 1)
    assert [v.identity for v in bad] == ["generalized_jacobi_1"]
    assert bad[0].where == ("a",)


def test_arity_two_identity_is_the_leibniz_rule():
    A = build_algebra([("a", 0), ("b", 0), ("x", 1)],
                      {"a": {"x": 1}},
                      {("a", "b"): {"a": 1}})
    bad = check_linfty_axioms(LInftyAlgebra(A.space, A.operations(), 3), 2)
    assert [v.identity for v in bad] == ["generalized_jacobi_2"]
    assert bad[0].where == ("a", "b")


def test_arity_three_identity_is_jacobi():
    A = build_algebra([("a", 0), ("b", 0), ("c", 0)], {},
                      {("a", "b"): {"c": 1}, ("b", "c"): {"b": 1}})
    bad = check_linfty_axioms(LInftyAlgebra(A.space, A.operations(), 3), 3)
    assert [v.identity for v in bad] == ["generalized_jacobi_3"]
    assert bad[0].where == ("a", "b", "c")


def test_pruned_axiom_check_reports_like_the_full_sums():
    """The generalized Jacobi check visits only the tuples whose defect
    has a degree in the space (input sum + 3 - n); it reports what the
    full sums over every tuple report."""
    found = set()
    for name, A in degree_rich_algebras():
        for n in (1, 2, 3):
            feasible = len(list(canonical_tuples(A.space, n, 3 - n)))
            assert 0 < feasible < len(list(canonical_tuples(A.space, n))), \
                (name, n)
        L = LInftyAlgebra(A.space, A.operations(), 3)
        got = [(v.identity, v.where, v.detail)
               for v in check_linfty_axioms(L, 3)]
        assert got == linfty_axiom_violations_naive(L, 3), name
        found.update(identity for identity, _, _ in got)
    assert found == {f"generalized_jacobi_{n}" for n in (1, 2, 3)}


def test_axiom_check_refuses_untracked_arities():
    A = nocontraction().algebra
    L = LInftyAlgebra(A.space, A.operations(), 3)
    with pytest.raises(ValueError, match="tracked"):
        check_linfty_axioms(L, 4)
    with pytest.raises(ValueError, match="tracked"):
        L.operation(4)


def test_structure_constructor_rejects_wrong_shapes():
    V = GradedVectorSpace([("a", 1), ("b", 1)])
    good = MultilinearMap(V, V, 2, 0)
    with pytest.raises(ValueError, match="degree"):
        LInftyAlgebra(V, {2: MultilinearMap(V, V, 2, 1)}, 3)
    with pytest.raises(ValueError, match="arity"):
        LInftyAlgebra(V, {3: good}, 3)
    with pytest.raises(ValueError, match="outside"):
        LInftyAlgebra(V, {4: MultilinearMap(V, V, 4, -2)}, 3)


# --- morphism relations --------------------------------------------------------

def identity_morphism(A, bound):
    L = LInftyAlgebra(A.space, A.operations(), bound)
    g1 = MultilinearMap(A.space, A.space, 1, 0)
    for i in range(A.space.dim):
        g1.set_entry((i,), A.space.basis_vector(i))
    return LInftyMorphismToDgla(L, A, {1: g1}, bound)


def test_identity_morphism_has_empty_report():
    for name, Q in standard_corpus():
        m = identity_morphism(Q.algebra, 4)
        assert check_morphism(m, 4) == [], name


def test_dropping_the_quadratic_correction_breaks_the_relations():
    # on a non-formal instance the linear inclusion alone is not a morphism
    A = nocontraction().algebra
    T = homotopy_transfer(A, compute_splitting(A), 3)
    linear_only = LInftyMorphismToDgla(
        T.minimal, A, {1: T.inclusion.component(1)}, 3)
    bad = check_morphism(linear_only, 3)
    assert bad != []
    assert {v.identity for v in bad} <= {"morphism_relation_2", "morphism_relation_3"}


def test_flipping_the_quadratic_correction_breaks_the_relations():
    A = nocontraction().algebra
    T = homotopy_transfer(A, compute_splitting(A), 3)
    flipped = MultilinearMap(T.minimal.space, A.space, 2, -1)
    for key, value in T.inclusion.component(2).entries():
        flipped.set_entry(key, value.scale(-1))
    wrong = LInftyMorphismToDgla(
        T.minimal, A,
        {1: T.inclusion.component(1), 2: flipped,
         3: T.inclusion.component(3)}, 3)
    assert any(v.identity == "morphism_relation_2" for v in check_morphism(wrong, 3))


def test_morphism_constructor_rejects_wrong_shapes():
    A = nocontraction().algebra
    L = LInftyAlgebra(A.space, A.operations(), 3)
    with pytest.raises(ValueError, match="degree"):
        LInftyMorphismToDgla(
            L, A, {2: MultilinearMap(A.space, A.space, 2, 0)}, 3)
    with pytest.raises(ValueError, match="outside"):
        LInftyMorphismToDgla(
            L, A, {4: MultilinearMap(A.space, A.space, 4, -3)}, 3)


# --- homotopy transfer: frozen targets -----------------------------------------

def test_transfer_on_the_degree_two_instance():
    # quadratic correction iota2(x, x) = -p and ternary bracket -3z; these
    # frozen values were first confirmed by the brute-force oracle
    A = nocontraction().algebra
    T = homotopy_transfer(A, compute_splitting(A), 4)
    H = T.minimal.space
    xx = T.inclusion.component(2).evaluate_indices((H.index("x"), H.index("x")))
    assert repr(xx) == "-p"
    assert repr(T.minimal.operation(3).evaluate_indices((H.index("x"),) * 3)) \
        == "-3*z"
    assert 1 not in T.minimal.brackets
    assert check_linfty_axioms(T.minimal, 4) == []


def test_transfer_on_the_weighted_pair():
    A = weighted_pair().algebra
    T = homotopy_transfer(A, compute_splitting(A), 4)
    H = T.minimal.space
    i2 = T.inclusion.component(2)
    assert repr(i2.evaluate_indices((H.index("x1"), H.index("x1")))) == "-u1"
    assert repr(i2.evaluate_indices((H.index("x2"), H.index("x2")))) == "-u2"
    assert i2.evaluate_indices((H.index("x1"), H.index("x2"))).is_zero()
    g, x1, x2 = H.index("g"), H.index("x1"), H.index("x2")
    assert repr(T.minimal.operation(2).evaluate_indices((g, x1))) == "x1"
    assert repr(T.minimal.operation(2).evaluate_indices((x1, x2))) == "w"
    assert T.inclusion.component(3).is_zero()
    assert T.minimal.operation(3).is_zero()
    # the first genuinely higher operation appears at arity 4
    assert repr(T.minimal.operation(4).evaluate_indices((x1, x1, x2, x2))) \
        == "2*w"


def test_transfer_on_an_abelian_algebra_is_trivial():
    A = abelian_base().algebra
    T = homotopy_transfer(A, compute_splitting(A), 4)
    for p in range(2, 5):
        assert T.minimal.operation(p).is_zero()
        assert T.inclusion.component(p).is_zero()


def test_transferred_binary_bracket_is_the_cohomology_bracket():
    for name, Q in standard_corpus():
        s = compute_splitting(Q.algebra)
        T = homotopy_transfer(Q.algebra, s, 3)
        induced = cohomology(Q.algebra, s).bracket
        assert T.minimal.operation(2).table == induced.table, name


# --- homotopy transfer: oracle agreement ---------------------------------------

def test_transfer_tables_match_the_brute_force_oracle():
    # recursive no-memo evaluation over full permutation sums, compared
    # table for table against the production kernel on the whole corpus
    for name, Q in standard_corpus():
        A = Q.algebra
        s = compute_splitting(A)
        T = homotopy_transfer(A, s, 4)
        for p in range(2, 5):
            for kind, table in (("iota", T.inclusion.component(p)),
                                ("bracket", T.minimal.operation(p))):
                naive = transfer_tables_naive(A, s, kind, p)
                assert dict(table.entries()) == naive, (name, kind, p)


@pytest.mark.parametrize("seed", [0, 1])
def test_arity_five_tables_match_the_brute_force_oracle(seed):
    # two degree-1 classes: arity-5 tuples repeat a class two to five
    # times, and the arity-4 level splits (x1, x2 | x1, x2) into equal
    # halves, so the merged and paired shuffle terms are all exercised
    A = random_quasi_cyclic_two_step(random.Random(seed)).algebra
    s = compute_splitting(A)
    assert [d for d in s.h_space.degrees] == [1, 1]
    T = homotopy_transfer(A, s, 5)
    assert not T.inclusion.component(5).is_zero()
    for p in range(2, 6):
        for kind, table in (("iota", T.inclusion.component(p)),
                            ("bracket", T.minimal.operation(p))):
            naive = transfer_tables_naive(A, s, kind, p)
            assert dict(table.entries()) == naive, (seed, kind, p)


def test_planted_defect_is_reported_like_the_full_double_sum():
    # a wrong g_2(x, y) reaches the arity-4 relation at (x, x, y, y)
    # through [g_2(x, y), g_2(x, y)], a split into equal halves
    A = nocontraction().algebra
    T = homotopy_transfer(A, compute_splitting(A), 4)
    H = T.minimal.space
    xy = (H.index("x"), H.index("y"))
    planted = MultilinearMap(H, A.space, 2, -1)
    for key, value in T.inclusion.component(2).entries():
        if key != xy:
            planted.set_entry(key, value)
    planted.set_entry(xy, T.inclusion.component(2).evaluate_indices(xy)
                      + A.space.basis_vector("x"))
    taylor = dict(T.inclusion.taylor)
    taylor[2] = planted
    wrong = LInftyMorphismToDgla(T.minimal, A, taylor, 4)
    found = [(v.identity, v.where, v.detail) for v in check_morphism(wrong, 4)]
    assert found == morphism_violations_naive(wrong, 4)
    assert ("morphism_relation_4", ("x", "x", "y", "y")) in [
        (identity, where) for identity, where, _ in found]
    assert morphism_violations_naive(T.inclusion, 4) == []


def test_transferred_structures_verify_to_arity_five():
    for name, Q in standard_corpus():
        T = homotopy_transfer(Q.algebra, compute_splitting(Q.algebra), 5)
        assert check_linfty_axioms(T.minimal, 5) == [], name
        assert check_morphism(T.inclusion, 5) == [], name


@settings(max_examples=8, deadline=None)
@given(st.randoms(use_true_random=False))
def test_transfer_of_random_two_step_algebras_verifies(rng):
    A = random_two_step(rng, n_x=2, n_u=2, n_z=1)
    T = homotopy_transfer(A, compute_splitting(A), 4)
    assert check_linfty_axioms(T.minimal, 4) == []
    assert check_morphism(T.inclusion, 4) == []


# --- splitting independence -----------------------------------------------------

def test_ternary_class_is_independent_of_the_splitting_choice():
    # tilt the complement by a cocycle: the transferred tables change, but
    # the arity-3 bracket on classes does not (its indeterminacy is zero)
    A = nocontraction().algebra
    V = A.space
    reps = [V.basis_vector(k) for k in ("a", "x", "y", "z")]
    tilted = Splitting(A, reps, [V.basis_vector("b"),
                                 V.basis_vector("p") + V.basis_vector("x")])
    T = homotopy_transfer(A, tilted, 3)
    x = T.minimal.space.index("x")
    assert repr(T.minimal.operation(3).evaluate_indices((x, x, x))) == "-3*z"


# --- entry points and errors ----------------------------------------------------

def test_transfer_evaluates_only_tuples_with_a_degree_to_land_in(monkeypatch):
    """Each level and morphism relation of arity n gets exactly the
    canonical tuples whose degree sum + 2 - n is a degree of the algebra;
    the generalized Jacobi check of a model in degrees 1-2 gets none,
    its defects sitting in degree 3 or more."""
    by_loop, walked = {}, {}

    def recording(space, arity, shift=None, degrees=None):
        items = list(canonical_tuples(space, arity, shift, degrees))
        by_loop.setdefault(sys._getframe(1).f_code.co_name, []).append(items)
        return iter(items)

    def walk_recording(space, arity, shift=None, degrees=None):
        items = list(canonical_tuples(space, arity, shift, degrees))
        walked.setdefault((arity, shift), []).append(items)
        return iter(items)

    monkeypatch.setattr(linfty, "canonical_tuples", recording)
    monkeypatch.setattr(core, "canonical_tuples", walk_recording)
    A = random_two_step(random.Random(5))
    T = homotopy_transfer(A, compute_splitting(A), 4)
    walked.clear()
    assert check_linfty_axioms(T.minimal, 4) == []
    H = T.minimal.space
    assert set(H.degrees) == {1, 2}

    def landing(n, shift, degrees):
        return [idx for idx in itertools.combinations_with_replacement(
                    range(H.dim), n)
                if not any(a == b and H.degrees[a] % 2 == 0
                           for a, b in zip(idx, idx[1:]))
                and sum(H.degrees[i] for i in idx) + shift in degrees]

    expected = [landing(n, 2 - n, A.space.degrees) for n in range(2, 5)]
    assert by_loop["_level_tables"] == expected
    assert by_loop["check_morphism"] == [landing(1, 1, A.space.degrees)] \
        + expected
    assert walked and all(shift == 3 - n for n, shift in walked)
    assert all(items == [] for runs in walked.values() for items in runs)


def test_transfer_rejects_bad_inputs():
    A = nocontraction().algebra
    s = compute_splitting(A)
    with pytest.raises(ValueError, match="N >= 2"):
        homotopy_transfer(A, s, 1)
    other = nocontraction().algebra
    with pytest.raises(ValueError, match="different algebra"):
        homotopy_transfer(other, s, 3)
    V = A.space
    broken = Splitting(A, [V.basis_vector("a"),
                           V.basis_vector("x") + V.basis_vector("p"),
                           V.basis_vector("y"), V.basis_vector("z")],
                       [V.basis_vector("b"), V.basis_vector("p")])
    with pytest.raises(ValueError, match="splitting fails verification"):
        homotopy_transfer(A, broken, 3)
