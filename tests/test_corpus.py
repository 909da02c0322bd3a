import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie.cyclic import validate_pairing
from gradedlie.dgla import cohomology, compute_splitting, validate_dgla, verify_splitting
from gradedlie.corpus import (
    abelian_base, nocontraction, perturb_quasi_cyclic,
    random_quasi_cyclic_two_step, random_two_step, standard_corpus,
    tensor_cell, weighted_pair,
)

from gradedlie.documents import (
    bundled_documents, document_to_quasi_cyclic, parse_document,
)

from oracles import assert_exact_scalar, permute_basis


# --- generators are valid by construction ----------------------------------------

def test_two_step_random_tables_are_always_valid():
    rng = random.Random(31)
    for _ in range(8):
        A = random_two_step(rng, n_x=rng.choice([1, 2, 3]),
                            n_u=rng.choice([1, 2]), n_z=rng.choice([0, 1, 2]))
        assert validate_dgla(A) == []
        assert verify_splitting(compute_splitting(A)) == []


def test_two_step_random_pairings_are_always_quasi_cyclic():
    rng = random.Random(47)
    for _ in range(8):
        Q = random_quasi_cyclic_two_step(rng, n_x=rng.choice([2, 4]),
                                         n_u=rng.choice([1, 2, 3]))
        rep = validate_pairing(Q)
        assert rep.violations == []
        assert rep.is_quasi_cyclic
    with pytest.raises(ValueError, match="even"):
        random_quasi_cyclic_two_step(rng, n_x=3)


def test_cell_construction_requires_a_zero_differential():
    with pytest.raises(ValueError, match="zero differential"):
        tensor_cell(nocontraction())


def test_cell_differential_signs_follow_the_base_degree():
    Q = tensor_cell(abelian_base())
    V = Q.space
    d = Q.algebra.d
    assert repr(d.apply(V.basis_vector("e0.t"))) == "e0.s"    # even base degree
    assert repr(d.apply(V.basis_vector("e1.t"))) == "-e1.s"   # odd base degree
    assert d.apply(V.basis_vector("e1")).is_zero()


def test_cell_brackets_vanish_beyond_the_unit_and_single_cell_parts():
    from gradedlie.corpus import diagonal_symplectic
    from gradedlie.cyclic import from_symplectic_representation
    Q = tensor_cell(from_symplectic_representation(diagonal_symplectic()))
    V = Q.space
    b = Q.algebra.bracket_of
    assert repr(b(V.basis_vector("g"), V.basis_vector("v1.t"))) == "v1.t"
    assert repr(b(V.basis_vector("g.s"), V.basis_vector("v1"))) == "-v1.s"
    assert b(V.basis_vector("g.t"), V.basis_vector("v1.t")).is_zero()
    assert b(V.basis_vector("g.s"), V.basis_vector("v1.s")).is_zero()


def test_standard_corpus_is_deterministic():
    first = [(name, validate_pairing(Q).status()) for name, Q in standard_corpus()]
    second = [(name, validate_pairing(Q).status()) for name, Q in standard_corpus()]
    assert first == second
    assert [name for name, _ in first] == [
        "nocontraction", "noformal-degree3", "weighted-pair", "abelian-base",
        "diagonal-symplectic", "cell-abelian", "cell-symplectic",
        "random-quasi-cyclic-1", "random-quasi-cyclic-2"]


# --- relabeling invariance ---------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(8))))
def test_classification_is_independent_of_basis_order(perm):
    base = nocontraction()
    base_rep = validate_pairing(base)
    moved = permute_basis(base, perm)
    assert validate_dgla(moved.algebra) == []
    rep = validate_pairing(moved)
    assert rep.violations == []
    assert rep.status() == base_rep.status()
    assert (rep.rank_on_L, rep.rank_on_H) == (base_rep.rank_on_L, base_rep.rank_on_H)
    assert cohomology(moved.algebra).dims == cohomology(base.algebra).dims


@settings(max_examples=15, deadline=None)
@given(st.permutations(list(range(8))))
def test_weighted_pair_classification_is_order_independent(perm):
    base = weighted_pair()
    moved = permute_basis(base, perm)
    assert validate_dgla(moved.algebra) == []
    rep = validate_pairing(moved)
    assert rep.violations == []
    assert rep.status() == "quasi-cyclic of degree 2"
    assert cohomology(moved.algebra).dims == {0: 1, 1: 2, 2: 1}


def test_perturbations_keep_every_entry_homogeneous():
    """The degree prune of the checks relies on homogeneity; a perturbed
    bracket is written into its table directly, so the slot it picks
    must be degree-legal."""
    corpus = standard_corpus()
    rng = random.Random(6)
    for draw in range(200):
        name, Q = corpus[draw % len(corpus)]
        desc, edited = perturb_quasi_cyclic(Q, rng)
        A = edited.algebra
        degrees = A.space.degrees
        for key, value in A.bracket.table.items():
            expected = sum(degrees[i] for i in key)
            assert {degrees[j] for j in value.coeffs} <= {expected}, \
                (name, desc, key)
        for i, column in A.d.columns.items():
            assert {degrees[j] for j in column.coeffs} == {degrees[i] + 1}, \
                (name, desc, i)


def _assert_pairing_is_legal(form, where):
    degrees = form.space.degrees
    for (i, j), value in form.entries():
        assert i <= j and value, (where, i, j)
        assert_exact_scalar(value)
        assert degrees[i] + degrees[j] == form.degree, (where, i, j)
        assert i != j or degrees[i] % 2 == 0, (where, i)
    for i in range(form.space.dim):
        for j in range(form.space.dim):
            sign = -1 if degrees[i] % 2 and degrees[j] % 2 else 1
            assert form.value_indices(i, j) == sign * form.value_indices(j, i), \
                (where, i, j)


def test_pairing_tables_are_degree_legal_and_graded_symmetric():
    """``validate_pairing`` checks neither the degree nor the graded
    symmetry of a form: ``CyclicPairing`` refuses wrong-degree and
    odd-diagonal entries and writes (i, j) and (j, i) with the sign.  A
    perturbed pairing is rebuilt through the constructor, and a parsed
    one goes through ``set_entry``; both must hold what the checks'
    absence relies on, with exact int-or-Fraction values."""
    corpus = standard_corpus()
    rng = random.Random(11)
    for draw in range(200):
        name, Q = corpus[draw % len(corpus)]
        desc, edited = perturb_quasi_cyclic(Q, rng)
        _assert_pairing_is_legal(edited.pairing, (name, desc))
    for name, text in bundled_documents():
        Q = document_to_quasi_cyclic(parse_document(text))
        _assert_pairing_is_legal(Q.pairing, name)
