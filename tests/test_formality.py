import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from gradedlie.core import MultilinearMap, coordinates_in_span
from gradedlie.cyclic import CyclicPairing, QuasiCyclicDgla, validate_pairing
from gradedlie.dgla import Splitting, compute_splitting, validate_dgla
import gradedlie.linfty as linfty
from gradedlie.linfty import homotopy_transfer
import gradedlie.formality as formality
from gradedlie.formality import (
    FormalityWitness, MasseyTripleProduct, PairingFunctional, WitnessRejected,
    build_formality_witness, compute_I, detect_nonformality,
    formality_verdict, massey_triple, verify_witness,
)
from gradedlie.corpus import (
    abelian_base, diagonal_symplectic, nocontraction, noformal_degree3,
    random_quasi_cyclic_two_step, random_symplectic, standard_corpus,
    tensor_cell, weighted_pair,
)
from gradedlie.documents import (
    bundled_documents, document_splitting, document_to_quasi_cyclic,
    parse_document,
)
from gradedlie import from_symplectic_representation, normalize_splitting

from oracles import (
    assert_exact_scalar, build_algebra, degree_rich_algebras,
    detect_nonformality_naive,
)


def canonical(Q):
    return Q.algebra, compute_splitting(Q.algebra)


def prepared(Q, s=None):
    """What formality_verdict hands the witness builder: the normalization
    of ``s`` (the canonical splitting by default) and its pairing report."""
    s = s if s is not None else compute_splitting(Q.algebra)
    return normalize_splitting(Q, s), validate_pairing(Q, s)


# --- triple products ------------------------------------------------------------

def test_triple_product_of_the_degree_one_class():
    A, s = canonical(nocontraction())
    product = massey_triple(A, s, "x", "x", "x")
    assert repr(product.class_vector) == "2*z"
    assert repr(product.representative) == "2*z"
    assert product.indeterminacy == []
    assert product.degree == 2
    assert tuple(repr(v) for v in product.primitives) == ("p", "p")
    assert product.nonzero_mod_indeterminacy()


def test_triple_product_on_a_mixed_triple():
    A, s = canonical(nocontraction())
    product = massey_triple(A, s, "a", "x", "x")
    assert repr(product.class_vector) == "-2*y"
    assert product.indeterminacy == []
    assert product.nonzero_mod_indeterminacy()


def test_triple_product_on_the_degree_three_instance():
    A, s = canonical(noformal_degree3())
    product = massey_triple(A, s, "a", "a", "a")
    assert repr(product.class_vector) == "2*x"
    assert product.nonzero_mod_indeterminacy()


def test_triple_product_not_defined_when_an_inner_bracket_survives():
    A, s = canonical(weighted_pair())
    # [x1, x2] represents the nonzero class w, so no primitive exists
    assert massey_triple(A, s, "x1", "x2", "x1") is None


def test_triple_product_not_defined_when_the_representative_is_not_closed():
    # valid algebra where both inner brackets are exact yet the standard
    # representative has nonzero differential (its defect is [b, [a, c]])
    A = build_algebra(
        [("a", 0), ("b", 0), ("c", 0), ("e", 0), ("f", 0), ("s", -1),
         ("m", 0), ("t", -1)],
        {"s": {"m": 1}, "t": {"f": -1}},
        {("a", "b"): {"m": 1}, ("a", "c"): {"e": 1}, ("b", "e"): {"f": 1},
         ("m", "c"): {"f": -1}, ("s", "c"): {"t": 1}})
    assert validate_dgla(A) == []
    s = compute_splitting(A)
    for left, right in (("a", "b"), ("b", "c")):
        value = A.bracket_of(A.basis_vector(left), A.basis_vector(right))
        assert s.pi.apply(value).is_zero()
    assert massey_triple(A, s, "a", "b", "c") is None


def test_triple_product_rejects_non_cocycles():
    A, s = canonical(nocontraction())
    with pytest.raises(ValueError, match="cocycle"):
        massey_triple(A, s, "b", "x", "x")


def test_triple_product_rejects_zero_and_mixed_degree_inputs():
    A, s = canonical(nocontraction())
    with pytest.raises(ValueError, match="no single degree: 0"):
        massey_triple(A, s, A.space.zero(), "x", "x")
    mixed = A.basis_vector("a") + A.basis_vector("x")
    assert A.d.apply(mixed).is_zero()
    with pytest.raises(ValueError, match="no single degree"):
        massey_triple(A, s, "x", mixed, "x")


def test_zero_class_with_nonzero_indeterminacy():
    A, s = canonical(weighted_pair())
    product = massey_triple(A, s, "x1", "x1", "x1")
    assert product is not None
    assert product.class_vector.is_zero()
    assert [repr(v) for v in product.indeterminacy] == ["w"]
    assert not product.nonzero_mod_indeterminacy()


def test_class_inside_the_indeterminacy_span_does_not_count():
    A, s = canonical(weighted_pair())
    w = s.h_space.basis_vector("w")
    product = MasseyTripleProduct(
        inputs=(), primitives=(), representative=w.scale(0),
        class_vector=w.scale(3), indeterminacy=[w], degree=2)
    assert not product.nonzero_mod_indeterminacy()


def test_primitive_shifts_stay_inside_the_indeterminacy():
    cases = [
        (canonical(nocontraction()), ("x", "x", "x")),
        (canonical(nocontraction()), ("a", "x", "x")),
        (canonical(noformal_degree3()), ("a", "a", "a")),
    ]
    for (A, s), labels in cases:
        a, b, c = (A.basis_vector(l) for l in labels)
        product = massey_triple(A, s, a, b, c)
        sign = -1 if a.degree() % 2 else 1
        cocycles = [A.basis_vector(i) for i in range(A.space.dim)
                    if A.d.apply(A.basis_vector(i)).is_zero()]
        shifts = []
        for w in cocycles:
            if w.degree() == a.degree() + b.degree() - 1:
                shifts.append(A.bracket_of(w, c))
            if w.degree() == b.degree() + c.degree() - 1:
                shifts.append(A.bracket_of(a, w).scale(-sign))
        assert shifts, labels
        for shift in shifts:
            moved = s.pi.apply(product.representative + shift)
            difference = moved - product.class_vector
            if not difference.is_zero():
                assert coordinates_in_span(
                    product.indeterminacy, difference) is not None, labels


# --- scanning for certificates -------------------------------------------------

def test_scan_returns_the_diagonal_certificate_first():
    A, s = canonical(nocontraction())
    certificate = detect_nonformality(A, s)
    assert certificate.kind == "massey-triple"
    assert certificate.triple == ("x", "x", "x")
    assert repr(certificate.class_vector) == "2*z"
    assert certificate.indeterminacy == []
    # the mixed triple is also a certificate; the diagonal pass wins
    assert massey_triple(A, s, "a", "x", "x").nonzero_mod_indeterminacy()


def test_scan_on_the_degree_three_instance():
    A, s = canonical(noformal_degree3())
    certificate = detect_nonformality(A, s)
    assert certificate.triple == ("a", "a", "a")
    assert repr(certificate.class_vector) == "2*x"


def test_scan_is_inconclusive_on_formal_instances():
    for Q in (abelian_base(), weighted_pair()):
        A, s = canonical(Q)
        assert detect_nonformality(A, s) is None


# --- pairing functionals --------------------------------------------------------

def test_arity_two_functional_is_the_induced_pairing():
    Q = weighted_pair()
    A, s = canonical(Q)
    T = homotopy_transfer(A, s, 2)
    func = compute_I(T, Q.pairing, 2, 1)
    H = s.h_space
    x1, x2 = H.index("x1"), H.index("x2")
    assert func.value_indices((x1, x2)) == 1
    assert func.value_indices((x2, x1)) == -1
    assert func.value_indices((x1, x1)) == 0


def test_boundary_functionals_vanish_under_the_normalization():
    Q = weighted_pair()
    A, s = canonical(Q)
    T = homotopy_transfer(A, s, 3)
    for p, j in ((3, 1), (3, 2), (4, 1), (4, 3)):
        assert compute_I(T, Q.pairing, p, j).table == {}


def test_middle_functional_pairs_the_quadratic_corrections():
    Q = weighted_pair()
    A, s = canonical(Q)
    T = homotopy_transfer(A, s, 2)
    func = compute_I(T, Q.pairing, 4, 2)
    H = s.h_space
    x1, x2 = H.index("x1"), H.index("x2")
    # both corrections are nonzero and pair through (u1, u2) = 1
    assert func.value_indices((x1, x1, x2, x2)) == 1
    assert func.value_indices((x2, x2, x1, x1)) == -1
    assert func.value_indices((x1, x2, x1, x2)) == 0


def test_functional_arity_and_block_validation():
    Q = weighted_pair()
    A, s = canonical(Q)
    T = homotopy_transfer(A, s, 2)
    with pytest.raises(ValueError, match="arity out of range"):
        compute_I(T, Q.pairing, 6, 3)
    with pytest.raises(ValueError, match="block size"):
        compute_I(T, Q.pairing, 3, 0)
    func = compute_I(T, Q.pairing, 2, 1)
    with pytest.raises(ValueError, match="expected 2 arguments"):
        func.value_indices((0,))


def test_boundary_assertion_fires_without_the_normalization():
    rng = random.Random(3)
    Q = random_quasi_cyclic_two_step(rng)
    s = compute_splitting(Q.algebra)
    T = homotopy_transfer(Q.algebra, s, 2)
    with pytest.raises(AssertionError, match="boundary functional"):
        compute_I(T, Q.pairing, 3, 1)


# --- formality witnesses --------------------------------------------------------

def test_witness_on_the_weighted_pair():
    Q = weighted_pair()
    normalized, pairing = prepared(Q)
    A, s = normalized.quasi.algebra, normalized.splitting
    witness = build_formality_witness(normalized, pairing, 5)
    assert witness.verified_up_to == 5
    assert set(witness.taylor) <= {1, 3, 5}
    f3 = witness.taylor[3]
    H = s.h_space
    x1, x2 = H.index("x1"), H.index("x2")
    assert repr(f3.evaluate_indices((x1, x1, x2))) == "1/2*x1"
    assert repr(f3.evaluate_indices((x1, x2, x2))) == "1/2*x2"
    assert repr(f3.evaluate_indices((x1, x1, x1))) == "0"
    T = homotopy_transfer(A, s, 5)
    assert verify_witness(witness, T) == []
    assert witness.report and all(isinstance(line, str) for line in witness.report)


def test_witness_carries_the_transfer_it_was_built_on():
    Q = weighted_pair()
    normalized, pairing = prepared(Q)
    A, s = normalized.quasi.algebra, normalized.splitting
    witness = build_formality_witness(normalized, pairing, 5)
    T = witness.transfer
    assert T.arity_bound == 5 and T.splitting is s
    fresh = homotopy_transfer(A, s, 5)
    for p in range(2, 6):
        assert T.minimal.operation(p) == fresh.minimal.operation(p)
    assert verify_witness(witness, T) == []


def test_witness_taylor_starts_with_the_identity():
    normalized, pairing = prepared(weighted_pair())
    witness = build_formality_witness(normalized, pairing, 3)
    H = normalized.splitting.h_space
    for i in range(H.dim):
        assert witness.taylor[1].evaluate_indices((i,)) == H.basis_vector(i)
    assert 2 not in witness.taylor


def test_witness_on_every_hypothesis_satisfying_instance():
    rejected = {"nocontraction", "noformal-degree3"}
    for name, Q in standard_corpus():
        if name in rejected:
            continue
        normalized, pairing = prepared(Q)
        Qn, sn = normalized.quasi, normalized.splitting
        witness = build_formality_witness(normalized, pairing, 5)
        T = homotopy_transfer(Qn.algebra, sn, 5)
        assert verify_witness(witness, T) == [], name


def test_witness_is_the_identity_when_no_corrections_survive():
    for Q in (abelian_base(), tensor_cell(abelian_base())):
        witness = build_formality_witness(*prepared(Q), 4)
        assert set(witness.taylor) == {1}


def test_witness_refuses_higher_pairing_degrees():
    with pytest.raises(WitnessRejected, match="out of scope"):
        build_formality_witness(*prepared(noformal_degree3()), 4)


def test_witness_refuses_a_pairing_report_that_is_not_quasi_cyclic():
    normalized, pairing = prepared(weighted_pair())
    pairing.nondegenerate_on_H = False
    with pytest.raises(WitnessRejected) as info:
        build_formality_witness(normalized, pairing, 3)
    assert info.value.message == ("the pairing is not quasi-cyclic "
                                  "(not quasi-cyclic)")


def test_witness_arity_bound_validation():
    with pytest.raises(ValueError, match="N >= 2"):
        build_formality_witness(*prepared(weighted_pair()), 1)


def test_trivial_witness_in_low_pairing_degrees():
    zero_d = build_algebra([("g", 0)], {}, {})
    Q0 = QuasiCyclicDgla(zero_d, CyclicPairing(zero_d.space, 0, [(("g", "g"), 1)]))
    line = build_algebra([("e0", 0), ("e1", 1)], {}, {})
    Q1 = QuasiCyclicDgla(line, CyclicPairing(line.space, 1, [(("e0", "e1"), 1)]))
    for Q in (Q0, Q1):
        normalized, pairing = prepared(Q)
        witness = build_formality_witness(normalized, pairing, 4)
        assert set(witness.taylor) == {1}
        assert any("identity witness" in line for line in witness.report)
        T = homotopy_transfer(Q.algebra, normalized.splitting, 4)
        assert verify_witness(witness, T) == []


def test_corrupted_coefficients_fail_the_independent_verifier():
    # doubling the cubic coefficient breaks the relation that balances
    # it against the quartic bracket (the relation pins the sum of its
    # entries, so both must move together to leave the valid set)
    normalized, pairing = prepared(weighted_pair())
    A, s = normalized.quasi.algebra, normalized.splitting
    witness = build_formality_witness(normalized, pairing, 4)
    H = s.h_space
    bad_f3 = MultilinearMap(H, H, 3, -2)
    for key, value in witness.taylor[3].entries():
        bad_f3.set_entry(key, value.scale(2))
    corrupted = FormalityWitness({1: witness.taylor[1], 3: bad_f3}, 4, [])
    T = homotopy_transfer(A, s, 4)
    violations = verify_witness(corrupted, T)
    assert violations
    assert all(v.identity.startswith("morphism_relation") for v in violations)
    assert any(v.identity == "morphism_relation_4" for v in violations)


def test_pairing_functionals_return_int_or_non_integral_fraction():
    Q = dict(standard_corpus())["random-quasi-cyclic-2"]
    s = normalize_splitting(Q, compute_splitting(Q.algebra)).splitting
    T = homotopy_transfer(Q.algebra, s, 4)
    seen = set()
    for p, j in ((2, 1), (4, 2), (5, 2)):
        func = compute_I(T, Q.pairing, p, j)
        values = [func.value_indices((0,) * p)]
        values += [func.value_indices(idx) for idx in func.table]
        for value in values:
            assert_exact_scalar(value)
            seen.add(type(value))
    assert seen == {int, Fraction}


def test_scan_stops_at_the_first_certificate(monkeypatch):
    A, s = canonical(noformal_degree3())
    calls = []
    original = formality.massey_triple

    def counted(*args):
        calls.append(args[2:])
        return original(*args)
    monkeypatch.setattr(formality, "massey_triple", counted)
    certificate = detect_nonformality(A, s)
    assert certificate.triple == ("a", "a", "a")
    assert len(s.h_vectors) ** 3 > 1
    assert len(calls) == 1


def test_scan_rejects_a_non_cocycle_representative_before_any_certificate():
    # nocontraction plus c -> dc in degrees 2, 3, split with c among the
    # representatives: (x, x, x) certifies before the scan reaches c
    A = build_algebra(
        [("a", 0), ("b", 0), ("x", 1), ("y", 1), ("p", 1), ("db", 1),
         ("z", 2), ("dp", 2), ("c", 2), ("dc", 3)],
        {"b": {"db": 1}, "p": {"dp": 1}, "c": {"dc": 1}},
        {("a", "x"): {"db": -1}, ("a", "p"): {"y": 1}, ("x", "x"): {"dp": 1},
         ("p", "x"): {"z": 1}, ("b", "x"): {"y": 1}})
    V = A.space
    s = Splitting(A, [V.basis_vector(l) for l in ("a", "x", "y", "z", "c", "dc")],
                  [V.basis_vector("b"), V.basis_vector("p")])
    assert massey_triple(A, s, "x", "x", "x").nonzero_mod_indeterminacy()
    with pytest.raises(ValueError, match="not a cocycle: c"):
        detect_nonformality(A, s)


def scan_inputs():
    """(name, algebra, splitting) over every kind of scan input: classes
    in one degree (every triple pruned) and in several."""
    out = [(name, Q.algebra, None) for name, Q in standard_corpus()]
    out += [(name, A, None) for name, A in degree_rich_algebras()]
    for name, text in bundled_documents():
        doc = parse_document(text)
        A = document_to_quasi_cyclic(doc).algebra
        out.append((name, A, document_splitting(doc, A)))
    rng = random.Random(3)
    for t in range(20):
        Q = from_symplectic_representation(random_symplectic(rng))
        out.append((f"symplectic {t}", Q.algebra, None))
    for t in range(4):
        Q = random_quasi_cyclic_two_step(rng, 4, 3)
        out.append((f"quasi-cyclic {t}", Q.algebra, None))
    return out


def test_scan_matches_the_brute_force_scan():
    certified = 0
    for name, A, s in scan_inputs():
        try:
            s = s or compute_splitting(A)
        except ValueError:
            continue  # d^2 != 0: no splitting to scan
        expected = detect_nonformality_naive(A, s)
        certificate = detect_nonformality(A, s)
        got = certificate and (
            certificate.triple, repr(certificate.class_vector),
            [repr(v) for v in certificate.indeterminacy])
        assert got == expected, name
        certified += expected is not None
    assert certified >= 2


def test_scan_certifies_past_the_non_decreasing_triples():
    # [x, x] = w survives, so no triple with x next to x is defined; the
    # first certificate is <x, a, x>, whose first pair (x, a) reverses the
    # pair (a, x) of earlier triples and has the opposite primitive
    A = build_algebra(
        [("a", 0), ("b", 0), ("x", 1), ("y", 1), ("db", 1), ("w", 2)],
        {"b": {"db": 1}},
        {("a", "x"): {"db": -1}, ("b", "x"): {"y": 1}, ("x", "x"): {"w": 1}})
    assert validate_dgla(A) == []
    s = compute_splitting(A)
    assert [repr(v) for v in s.h_vectors] == ["a", "x", "y", "w"]
    certificate = detect_nonformality(A, s)
    assert certificate.triple == ("x", "a", "x")
    assert repr(certificate.class_vector) == "2*y"
    assert detect_nonformality_naive(A, s) == (("x", "a", "x"), "2*y", [])


def test_scan_brackets_nothing_when_every_triple_is_pruned(monkeypatch):
    # classes in degree 1 only: every triple product lands in degree 2
    A = random_quasi_cyclic_two_step(random.Random(5), 4, 6).algebra
    s = compute_splitting(A)
    assert s.h_vectors and {v.degree() for v in s.h_vectors} == {1}
    calls = []
    original = MultilinearMap.evaluate

    def counted(self, args):
        calls.append(args)
        return original(self, args)
    monkeypatch.setattr(MultilinearMap, "evaluate", counted)
    assert detect_nonformality(A, s) is None
    assert calls == []


# --- planted defects in the degree-0 action checks ------------------------------
#
# On diagonal_symplectic, g acts by -1 on v1 and +1 on v2 ([v1, g] = -v1,
# [v2, g] = v2), and no degree-0 check can fail on the true data.  Each
# test plants one non-equivariant value and pins the full message of the
# check that must catch it: a slot left out of the action sum, or an
# action row with the wrong sign, moves the failure or changes its sums.

def _symplectic_plane():
    Q = from_symplectic_representation(diagonal_symplectic())
    return Q, compute_splitting(Q.algebra)


def _witness_failure(Q, s, N):
    with pytest.raises(AssertionError) as info:
        build_formality_witness(*prepared(Q, s), N)
    message = str(info.value)
    suffix = (" -- the pairing and the normalization were checked, the "
              "DG-Lie identities were not: the input is not a DG-Lie "
              "algebra, or this is an implementation bug")
    assert message.endswith(suffix)
    return message[:-len(suffix)]


def test_planted_inclusion_value_fails_inclusion_equivariance(monkeypatch):
    Q, s = _symplectic_plane()
    original = formality.homotopy_transfer

    def planted(A, splitting, N):
        T = original(A, splitting, N)
        H = T.minimal.space
        v1, v2 = H.index("v1"), H.index("v2")
        T.inclusion.taylor[3] = MultilinearMap(H, A.space, 3, -2)
        T.inclusion.taylor[3].set_entry((v1, v1, v2), A.basis_vector("v2"))
        return T
    monkeypatch.setattr(formality, "homotopy_transfer", planted)
    assert _witness_failure(Q, s, 3) == (
        "arity-3 inclusion fails equivariance at ('v1', 'v1', 'v2') "
        "under g: v2 vs -v2")


def test_a_non_equivariant_lower_inclusion_fails_the_transfer(monkeypatch):
    # why the builder checks only iota_N for equivariance: below N it is
    # the arity-(p+1) relation at (g, idx), and the transfer checks that
    Q, s = _symplectic_plane()
    H = s.h_space
    v1 = H.index("v1")

    class Planted(MultilinearMap):
        # g acts by -1 on v1 and +1 on v2: equivariance at (v1, v1) asks
        # [iota_2(v1, v1), g] = -2 iota_2(v1, v1), and v2 gives +v2
        def __init__(self, domain, codomain, arity, degree):
            super().__init__(domain, codomain, arity, degree)
            if arity == 2 and degree == -1:
                self.set_entry((v1, v1), Q.algebra.basis_vector("v2"))
    monkeypatch.setattr(linfty, "MultilinearMap", Planted)
    builds = []
    monkeypatch.setattr(formality, "_build_degree_two_witness",
                        lambda *args: builds.append(args))
    with pytest.raises(AssertionError) as info:
        build_formality_witness(*prepared(Q, s), 3)
    # level 3 is built from the planted iota_2, so only the relation at
    # (g, v1, v1) sees it
    assert str(info.value) == (
        "internal error: inclusion fails its morphism relations: "
        "morphism_relation_3 at ('g', 'v1', 'v1')")
    assert builds == []


def _plant_coefficient(monkeypatch):
    # every coefficient solves to zero on the symplectic plane; the solve
    # at (v1, v1, v2) is shifted by v2 as the f_3 table is created
    class Planted(MultilinearMap):
        def __init__(self, domain, codomain, arity, degree):
            super().__init__(domain, codomain, arity, degree)
            if arity == 3:
                self.set_entry(("v1", "v1", "v2"),
                               codomain.basis_vector("v2"))
    monkeypatch.setattr(formality, "MultilinearMap", Planted)


def test_planted_coefficient_solution_fails_witness_equivariance(monkeypatch):
    Q, s = _symplectic_plane()
    _plant_coefficient(monkeypatch)
    assert _witness_failure(Q, s, 3) == (
        "witness coefficient f_3 fails equivariance at ('v1', 'v1', 'v2') "
        "under g: v2 vs -v2")


def test_the_top_inclusion_check_stops_an_invalid_algebra():
    # [x1, u1] = du1 breaks the Jacobi identity at (g, x1, u1), which
    # formality does not check.  At N = 3 every checked relation still
    # holds and only the equivariance check of iota_3 sees the defect; at
    # N = 4 it is the transfer's arity-4 relation at (g, x1, x1, x1)
    text = dict(bundled_documents())["weighted-pair"]
    doc = parse_document(text.replace(
        "  [x1, x2] = w\n", "  [x1, x2] = w\n  [x1, u1] = du1\n"))
    Q = document_to_quasi_cyclic(doc)
    s, h0 = document_splitting(doc, Q.algebra), [Q.algebra.basis_vector("g")]
    assert [str(v) for v in validate_dgla(Q.algebra)] == [
        "jacobi fails at (g, x1, u1): defect du1"]
    with pytest.raises(AssertionError) as info:
        formality_verdict(Q, s, h0, 3)
    assert str(info.value).startswith(
        "arity-3 inclusion fails equivariance at ('x1', 'x1', 'x1') under "
        "g: -6*u1 vs -9*u1 -- the pairing and the normalization were "
        "checked")
    with pytest.raises(AssertionError) as info:
        formality_verdict(Q, s, h0, 4)
    assert str(info.value) == (
        "internal error: inclusion fails its morphism relations: "
        "morphism_relation_4 at ('g', 'x1', 'x1', 'x1')")


# The builder leaves the morphism relations to verify_witness: a defect
# that only they see ends in FAIL with the relation that fails, not in an
# assertion of the builder.

def _verdict_leftovers(Q, N):
    s = compute_splitting(Q.algebra)
    verdict = formality_verdict(Q, s, degree_zero(s), N)
    assert verdict.status == "FAIL"
    return [str(v) for v in verdict.leftovers]


def _plant_bracket(monkeypatch, p, labels, shift):
    """Make the transfer return l_p with its value at ``labels`` shifted by
    the class ``shift``, past the transfer's own check."""
    original = formality.homotopy_transfer

    def planted(A, splitting, N):
        T = original(A, splitting, N)
        H = T.minimal.space
        old, op = T.minimal.operation(p), MultilinearMap(H, H, p, 2 - p)
        idx = tuple(H.index(label) for label in labels)
        for key, value in old.table.items():
            if key != idx:
                op.set_entry(key, value)
        op.set_entry(idx, old.evaluate_indices(idx) + H.basis_vector(shift))
        T.minimal.brackets[p] = op
        return T
    monkeypatch.setattr(formality, "homotopy_transfer", planted)


def test_planted_ternary_bracket_fails_the_independent_check(monkeypatch):
    _plant_bracket(monkeypatch, 3, ("v1", "v1", "v2"), "g^")
    Q, s = _symplectic_plane()
    assert _verdict_leftovers(Q, 4) == [
        "morphism_relation_3 fails at (v1, v1, v2): defect -g^"]


def test_planted_quartic_bracket_fails_the_independent_check(monkeypatch):
    _plant_bracket(monkeypatch, 4, ("x1", "x1", "x2", "x2"), "w")
    assert _verdict_leftovers(weighted_pair(), 5) == [
        "morphism_relation_4 fails at (x1, x1, x2, x2): defect -w"]


def test_planted_bracket_in_pairing_degree_one_fails_the_independent_check(
        monkeypatch):
    line = build_algebra([("e0", 0), ("e1", 1)], {}, {})
    Q = QuasiCyclicDgla(line, CyclicPairing(line.space, 1, [(("e0", "e1"), 1)]))
    _plant_bracket(monkeypatch, 3, ("e0", "e1", "e1"), "e1")
    assert _verdict_leftovers(Q, 4) == [
        "morphism_relation_3 fails at (e0, e1, e1): defect -e1"]


def test_planted_coefficient_below_the_top_fails_the_independent_check(
        monkeypatch):
    # the same planted f_3 as above, now below the top arity: its
    # equivariance is the arity-4 relation at (g, v1, v1, v2)
    _plant_coefficient(monkeypatch)
    Q, s = _symplectic_plane()
    assert _verdict_leftovers(Q, 4) == [
        "morphism_relation_4 fails at (g, v1, v1, v2): defect -2*v2",
        "morphism_relation_4 fails at (v1, v1, v1, v2): defect 3*g^"]


@pytest.mark.parametrize("constant", [0, 1])
def test_a_degenerate_gram_matrix_stops_the_coefficient_solves(monkeypatch,
                                                                constant):
    # the pairing of the degree-1 classes made zero, or of rank one (not
    # skew, so no CyclicPairing holds it): planted in the form pulled back
    # onto H, where the builder reads its Gram matrix
    Q, s = _symplectic_plane()
    args = prepared(Q, s)
    planted = SimpleNamespace(value_indices=lambda i, j: constant)
    monkeypatch.setattr(Q.pairing, "pullback", lambda space, vectors: planted)
    with pytest.raises(AssertionError) as info:
        build_formality_witness(*args, 3)
    assert str(info.value).startswith(
        "induced pairing is degenerate on the degree-1 classes; the "
        "coefficient solves cannot be unique -- ")


def test_hollow_inclusion_functionals_fail_the_independent_check(monkeypatch):
    # every coefficient solves to zero, which leaves the quartic bracket
    # unbalanced in the arity-4 relation
    def hollow(T, pairing, p, j):
        return PairingFunctional(p, (j, p - j), {})

    monkeypatch.setattr(formality, "compute_I", hollow)
    assert _verdict_leftovers(weighted_pair(), 4) == [
        "morphism_relation_4 fails at (x1, x1, x2, x2): defect -2*w"]


# A non-invariant pairing functional makes the coefficient solved from it
# non-equivariant: the builder's f_N check catches that at the top arity,
# and below the top it is the arity-(p+1) relation at (g, idx).

def test_planted_inclusion_pairing_entry_fails_the_coefficient_checks(
        monkeypatch):
    original = formality.compute_I

    def planted(T, pairing, p, j):
        func = original(T, pairing, p, j)
        if (p, j) == (4, 2):
            v1, v2 = T.minimal.space.index("v1"), T.minimal.space.index("v2")
            key = (v1, v1, v1, v2)
            func.table[key] = func.table.get(key, 0) + 1
        return func
    monkeypatch.setattr(formality, "compute_I", planted)
    Q, s = _symplectic_plane()
    assert _witness_failure(Q, s, 3) == (
        "witness coefficient f_3 fails equivariance at ('v1', 'v1', 'v1') "
        "under g: -3/2*v1 vs -9/2*v1")
    assert _verdict_leftovers(Q, 4) == [
        "morphism_relation_4 fails at (g, v1, v1, v1): defect -3*v1",
        "morphism_relation_4 fails at (g, v1, v1, v2): defect v2"]


def test_planted_coefficient_pairing_entry_fails_the_coefficient_checks(
        monkeypatch):
    Q, s = _symplectic_plane()
    original = formality._compute_F
    v1, v2 = s.h_space.index("v1"), s.h_space.index("v2")

    def planted(*args):
        func = original(*args)
        if args[-2:] == (4, 2):
            func.table[(v1, v2, v2, v2)] = 1
        return func
    monkeypatch.setattr(formality, "_compute_F", planted)
    assert _witness_failure(Q, s, 3) == (
        "witness coefficient f_3 fails equivariance at ('v1', 'v2', 'v2') "
        "under g: v1 vs -v1")
    assert _verdict_leftovers(Q, 4) == [
        "morphism_relation_4 fails at (g, v1, v2, v2): defect -2*v1",
        "morphism_relation_4 fails at (v1, v2, v2, v2): defect -3*g^"]


def _invariance_defects(Q, witness):
    """Nonzero degree-0 action sums of the pairing functionals I(q, j)
    (inclusion against inclusion, q <= N + 1) and F(p + 1, j) (witness
    coefficient against coefficient, 3 <= p <= N, 2 <= j <= p - 1), as
    (functional, q, j, tuple, g, sum), and the number of sums taken."""
    T, N = witness.transfer, witness.verified_up_to
    H, iota1 = T.minimal.space, T.splitting.iota1
    h1 = H.indices_of_degree(1)
    bracket2 = T.minimal.operation(2)
    inclusion = {j: T.inclusion.component(j) for j in range(1, N + 1)}
    coefficient = {j: witness.taylor.get(j, MultilinearMap(H, H, j, 1 - j))
                   for j in range(1, N)}

    def functional(maps, to_algebra, j):
        def value(idx):
            left = maps[j].evaluate_indices(idx[:j])
            right = maps[len(idx) - j].evaluate_indices(idx[j:])
            return Q.pairing.evaluate(to_algebra(left), to_algebra(right))
        return value

    splits = [("I", q, j, functional(inclusion, lambda v: v, j))
              for q in range(2, N + 2) for j in range(1, q)
              if max(j, q - j) <= N]
    splits += [("F", p + 1, j, functional(coefficient, iota1.apply, j))
               for p in range(3, N + 1) for j in range(2, p)]
    defects, sums = [], 0
    for name, q, j, value in splits:
        for idx in itertools.combinations_with_replacement(h1, q):
            for g in H.indices_of_degree(0):
                total = 0
                for slot, i in enumerate(idx):
                    row = bracket2.evaluate_indices((i, g)).coeffs
                    for t, c in row.items():
                        total += c * value(idx[:slot] + (t,) + idx[slot + 1:])
                sums += 1
                if total:
                    defects.append((name, q, j, idx, H.labels[g], total))
    return defects, sums


def test_pairing_functionals_are_invariant_on_every_built_witness():
    # the builder does not assert these sums: for I they follow from the
    # inclusion equivariance and cyclicity, for F from the equivariance of
    # the lower coefficients, which verify_witness checks.  One build at
    # N = 6 covers every N <= 6: neither iota_p nor f_p depends on N.
    rng = random.Random(7)
    instances = [(name, Q, compute_splitting(Q.algebra))
                 for name, Q in standard_corpus()]
    for t in range(20):
        Q = from_symplectic_representation(random_symplectic(rng))
        instances.append((f"symplectic {t}", Q, compute_splitting(Q.algebra)))
    built, sums = 0, 0
    for name, Q, s in instances:
        verdict = formality_verdict(Q, s, degree_zero(s), 6)
        if verdict.witness is None:
            continue
        assert verdict.status == "FORMAL-UP-TO-6", name
        defects, checked = _invariance_defects(Q, verdict.witness)
        assert defects == [], name
        built, sums = built + 1, sums + checked
    assert built >= 20 and sums > 0


def test_each_inclusion_functional_is_computed_once_per_build(monkeypatch):
    Q, s = _symplectic_plane()
    calls = []
    original = formality.compute_I

    def counted(T, pairing, p, j):
        calls.append((p, j))
        return original(T, pairing, p, j)
    monkeypatch.setattr(formality, "compute_I", counted)
    N = 6
    build_formality_witness(*prepared(Q, s), N)
    # only the splits the coefficient solves read: no boundary split, and
    # nothing of total arity 2 or 3
    assert calls == [(p + 1, j) for p in range(3, N + 1) for j in range(2, p)]
    assert len(calls) == 10


# --- the formality verdict ------------------------------------------------------

def degree_zero(s):
    return [v for v in s.h_vectors if v.degree() == 0]


def normalizations(monkeypatch):
    calls = []
    original = formality.normalize_splitting

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(formality, "normalize_splitting", counted)
    return calls


def test_verdict_rejects_a_pairing_that_is_not_quasi_cyclic(monkeypatch):
    line = build_algebra([("e0", 0), ("e1", 1)], {}, {})
    Q = QuasiCyclicDgla(line, CyclicPairing(line.space, 1))
    s = compute_splitting(line)
    calls = normalizations(monkeypatch)
    verdict = formality_verdict(Q, s, degree_zero(s), 3)
    assert verdict.status == "REJECTED"
    assert verdict.pairing.status() == "not quasi-cyclic"
    assert verdict.rejection.message == "the pairing is not quasi-cyclic"
    assert verdict.certificate is None and verdict.witness is None
    assert calls == []


def test_verdict_rejects_pairing_degree_three_before_normalizing(monkeypatch):
    Q = noformal_degree3()
    A, s = canonical(Q)
    calls = normalizations(monkeypatch)
    verdict = formality_verdict(Q, s, degree_zero(s), 4)
    assert verdict.status == "NON-FORMAL"
    assert verdict.pairing.status() == "cyclic of degree 3"
    assert "out of scope" in verdict.rejection.message
    assert verdict.certificate.triple == ("a", "a", "a")
    assert verdict.notes == [] and calls == []


def test_verdict_searches_for_an_invariant_splitting(monkeypatch):
    Q = weighted_pair()
    A, s = canonical(Q)
    tilted = Splitting(A, s.h_vectors,
                       [s.k_vectors[0] + A.basis_vector("x1"), s.k_vectors[1]])
    calls = normalizations(monkeypatch)
    verdict = formality_verdict(Q, tilted, degree_zero(tilted), 3)
    assert verdict.status == "FORMAL-UP-TO-3"
    assert verdict.notes == ["the given splitting is not invariant; the "
                             "equivariant search found one, normalizing it"]
    assert len(calls) == 2 and calls[1][1] is not tilted
    assert verdict.leftovers == [] and verdict.rejection is None


def test_verdict_carries_the_obstruction_and_the_certificate():
    Q = nocontraction()
    A, s = canonical(Q)
    verdict = formality_verdict(Q, s, degree_zero(s), 4)
    assert verdict.status == "NON-FORMAL"
    rejection = verdict.rejection
    assert rejection.message == ("no splitting invariant under the degree-0 "
                                 "classes exists")
    assert rejection.obstruction is not None and rejection.violations
    assert "x" in rejection.obstruction.describe()
    assert verdict.certificate.triple == ("x", "x", "x")
    assert verdict.witness is None


def test_verdict_normalizes_a_splitting_that_is_not_orthogonal(monkeypatch):
    # the canonical complement pairs nonzero against the representatives
    Q = random_quasi_cyclic_two_step(random.Random(3))
    A, s = canonical(Q)
    assert any(Q.pairing.evaluate(h, k)
               for h in s.h_vectors for k in s.k_vectors)
    calls = normalizations(monkeypatch)
    verdict = formality_verdict(Q, s, degree_zero(s), 3)
    assert verdict.status == "FORMAL-UP-TO-3"
    assert len(calls) == 1 and verdict.notes == []
    sn = verdict.witness.transfer.splitting
    assert not any(Q.pairing.evaluate(h, k)
                   for h in sn.h_vectors for k in sn.k_vectors)


def test_verdict_builds_and_checks_the_witness():
    Q = weighted_pair()
    A, s = canonical(Q)
    verdict = formality_verdict(Q, s, degree_zero(s), 4)
    assert verdict.status == "FORMAL-UP-TO-4"
    assert verdict.pairing.status() == "quasi-cyclic of degree 2"
    assert verdict.witness.verified_up_to == 4
    assert verdict.leftovers == []
    assert verdict.rejection is None and verdict.certificate is None


def test_verdict_checks_each_hypothesis_once(monkeypatch):
    # one pairing check, and one precondition scan per normalization:
    # the witness builder takes both results instead of re-checking
    import gradedlie.cyclic as cyclic
    Q = weighted_pair()
    A, s = canonical(Q)
    pairings, scans = [], []
    validate, scan = formality.validate_pairing, cyclic.precondition_violations

    def counted_validate(*args):
        pairings.append(args)
        return validate(*args)

    def counted_scan(*args):
        scans.append(args)
        return scan(*args)
    monkeypatch.setattr(formality, "validate_pairing", counted_validate)
    for module in (cyclic, formality):
        if hasattr(module, "precondition_violations"):
            monkeypatch.setattr(module, "precondition_violations", counted_scan)
    calls = normalizations(monkeypatch)
    verdict = formality_verdict(Q, s, degree_zero(s), 4)
    assert verdict.status == "FORMAL-UP-TO-4"
    assert len(pairings) == 1
    assert len(calls) == 1 and len(scans) == len(calls)


def test_verdict_refuses_an_arity_bound_below_two_first(monkeypatch):
    Q = nocontraction()
    A, s = canonical(Q)
    calls = []
    monkeypatch.setattr(formality, "validate_pairing",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="N >= 2"):
        formality_verdict(Q, s, degree_zero(s), 1)
    assert calls == []
