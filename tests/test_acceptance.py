"""End-to-end gate: ten scripted checks with pinned values and budgets.

Each test computes everything first, collects failures into a list,
records a single PASS/FAIL summary line (replayed by conftest at the
end of the run), and only then asserts — so a red line always comes
with a failing test, and the pinned tolerances are visible in one
place.  Time budgets are wall-clock upper bounds, asserted, with the
measured time printed on the line.
"""

import random
from collections import Counter
from importlib import resources
from time import perf_counter

from conftest import record_criterion
from oracles import transfer_operation_naive, transfer_tables_naive

from gradedlie.cli import main
from gradedlie.corpus import (
    from_symplectic_representation, perturb_quasi_cyclic, random_symplectic,
    random_two_step, standard_corpus,
)
from gradedlie.cyclic import NormalizationError, normalize_splitting, validate_pairing
from gradedlie.dgla import (
    EquivariantObstruction, compute_splitting, find_equivariant_splitting,
    validate_dgla,
)
from gradedlie.formality import (
    WitnessRejected, build_formality_witness, detect_nonformality,
    massey_triple, verify_witness,
)
from gradedlie.linfty import check_linfty_axioms, check_morphism, homotopy_transfer


def _bundled_path(name: str) -> str:
    return str(resources.files("gradedlie") / "data" / f"{name}.alg")


def _corpus():
    return dict(standard_corpus())


def conclude(number, title, failures, elapsed=None, budget=None):
    if budget is not None and elapsed >= budget:
        failures.append(f"exceeded the {budget:g}s budget: {elapsed:.2f}s")
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.2f}s/{budget:g}s]" if budget is not None else ""
    line = f"criterion {number:>2}: {status} — {title}{timing}"
    if failures:
        line += f" — {failures[0]}"
    record_criterion(line)
    assert not failures, f"criterion {number}: " + "; ".join(map(str, failures))


def test_criterion_01_validation_of_the_no_contraction_instance(capsys):
    failures = []
    start = perf_counter()
    code = main(["validate", _bundled_path("nocontraction")])
    elapsed = perf_counter() - start
    out = capsys.readouterr().out
    if code != 0:
        failures.append(f"exit code {code}")
    if "validate: PASS" not in out:
        failures.append("status is not PASS")
    if "cyclic of degree 2" not in out:
        failures.append("pairing status 'cyclic of degree 2' not reported")
    conclude(1, "no-contraction instance validates as cyclic of degree 2",
             failures, elapsed, 1.0)


def test_criterion_02_scan_certifies_the_diagonal_triple_product():
    Q = _corpus()["nocontraction"]
    A = Q.algebra
    s = compute_splitting(A)
    failures = []
    start = perf_counter()
    certificate = detect_nonformality(A, s)
    elapsed = perf_counter() - start
    if certificate is None:
        failures.append("no certificate found")
    else:
        if certificate.triple != ("x", "x", "x"):
            failures.append(f"certificate triple is {certificate.triple}")
        coeffs = certificate.class_vector.coeffs
        z = certificate.class_vector.space.index("z")
        if not coeffs or set(coeffs) != {z}:
            failures.append(
                f"class {certificate.class_vector!r} is not a nonzero "
                "multiple of z")
        if certificate.indeterminacy != []:
            failures.append("indeterminacy is not zero")
        if certificate.massey is not None \
                and not certificate.massey.nonzero_mod_indeterminacy():
            failures.append("class not essential modulo indeterminacy")
    conclude(2, "triple product on (x, x, x) certifies non-formality",
             failures, elapsed, 1.0)


def test_criterion_03_no_invariant_splitting_exists():
    A = _corpus()["nocontraction"].algebra
    failures = []
    start = perf_counter()
    result = find_equivariant_splitting(A, [A.basis_vector("a")])
    elapsed = perf_counter() - start
    if not isinstance(result, EquivariantObstruction):
        failures.append(f"expected an obstruction, got {type(result).__name__}")
    elif not result.describe():
        failures.append("obstruction certificate carries no description")
    conclude(3, "no splitting invariant under the degree-0 class exists",
             failures, elapsed, 1.0)


def test_criterion_04_degree_three_instance_is_certified_non_formal():
    Q = _corpus()["noformal-degree3"]
    A = Q.algebra
    failures = []
    start = perf_counter()
    s = compute_splitting(A)
    report = validate_pairing(Q, s)
    product = massey_triple(A, s, "a", "a", "a")
    certificate = detect_nonformality(A, s)
    elapsed = perf_counter() - start
    if validate_dgla(A):
        failures.append("instance fails basic validation")
    if report.status() != "cyclic of degree 3":
        failures.append(f"pairing status is {report.status()!r}")
    if product is None:
        failures.append("triple product is not defined")
    else:
        # the even bracket [a, a] has primitive b, so the triple power of
        # a is computed through the pair (a, a, b) of inputs-and-primitive
        if repr(product.primitives[0]) != "b":
            failures.append(f"primitive is {product.primitives[0]!r}, not b")
        if not product.nonzero_mod_indeterminacy():
            failures.append("triple power of a is not essential")
    if certificate is None:
        failures.append("scan found no certificate")
    conclude(4, "degree-3 instance: cyclic, and the triple power of a "
                "(primitive b) is essential", failures, elapsed, 1.0)


def test_criterion_05_symplectic_condition_matches_cyclicity():
    rng = random.Random(5)
    failures = []
    start = perf_counter()
    for i in range(20):
        Q = from_symplectic_representation(random_symplectic(rng))
        if validate_dgla(Q.algebra):
            failures.append(f"valid instance {i} fails algebra validation")
        report = validate_pairing(Q, compute_splitting(Q.algebra))
        if report.violations or not report.is_cyclic:
            failures.append(f"valid instance {i} fails cyclicity")
    for i in range(20):
        Q = from_symplectic_representation(random_symplectic(rng, violate=True))
        report = validate_pairing(Q, compute_splitting(Q.algebra))
        if not report.violations:
            failures.append(f"violating instance {i} passes cyclicity")
    elapsed = perf_counter() - start
    conclude(5, "20 random symplectic instances are cyclic and 20 "
                "violating ones are not", failures, elapsed, 10.0)


def test_criterion_06_transfer_property_suite():
    rng = random.Random(6)
    shapes = [(2, 2, 1), (2, 2, 2), (1, 2, 2), (2, 1, 2), (3, 2, 1)]
    algebras = [(name, Q.algebra) for name, Q in standard_corpus()]
    for i in range(20):
        n_x, n_u, n_z = shapes[i % len(shapes)]
        A = random_two_step(rng, n_x=n_x, n_u=n_u, n_z=n_z)
        algebras.append((f"random-{i}", A))
    failures = []
    start = perf_counter()
    for name, A in algebras:
        if name.startswith("random-") and A.space.dim > 8:
            failures.append(f"{name}: dimension {A.space.dim} exceeds 8")
            continue
        T = homotopy_transfer(A, compute_splitting(A), 5)
        axioms = check_linfty_axioms(T.minimal, 5)
        morphism = check_morphism(T.inclusion, 5)
        if axioms:
            failures.append(f"{name}: {axioms[0].identity}")
        if morphism:
            failures.append(f"{name}: {morphism[0].identity}")
    elapsed = perf_counter() - start
    conclude(6, "transferred structures satisfy the higher identities and "
                "the inclusion is a morphism to arity 5 on "
                f"{len(algebras)} algebras", failures, elapsed, 60.0)


def test_criterion_07_brute_force_oracle_agrees_with_the_kernel():
    failures = []
    start = perf_counter()
    for name, Q in standard_corpus():
        A = Q.algebra
        s = compute_splitting(A)
        T = homotopy_transfer(A, s, 4)
        for p in (2, 3, 4):
            for kind, table in (("iota", T.inclusion.component(p)),
                                ("bracket", T.minimal.operation(p))):
                naive = transfer_tables_naive(A, s, kind, p)
                if dict(table.entries()) != naive:
                    failures.append(f"{name}: {kind} table differs at "
                                    f"arity {p}")
    elapsed = perf_counter() - start
    conclude(7, "independent brute-force transfer agrees table-for-table "
                "to arity 4 on the whole corpus", failures, elapsed, 60.0)


def test_criterion_08_pinned_transferred_values():
    A = _corpus()["nocontraction"].algebra
    s = compute_splitting(A)
    failures = []
    if [repr(v) for v in s.h_vectors] != ["a", "x", "y", "z"]:
        failures.append(f"representatives are {s.h_vectors}")
    if [repr(v) for v in s.k_vectors] != ["b", "p"]:
        failures.append(f"complement is {s.k_vectors}")
    x = s.h_space.basis_vector("x")
    minus_p = A.basis_vector("p").scale(-1)
    minus_3z = s.h_space.basis_vector("z").scale(-3)
    # the naive recursion is the ground truth; the pinned numbers are the
    # expectation it must confirm before the production kernel is compared
    oracle_iota = transfer_operation_naive(A, s, "iota", (x, x))
    oracle_bracket = transfer_operation_naive(A, s, "bracket", (x, x, x))
    if oracle_iota != minus_p:
        failures.append(f"oracle pairs iota_2(x, x) = {oracle_iota!r}")
    if oracle_bracket != minus_3z:
        failures.append(f"oracle ternary value is {oracle_bracket!r}")
    T = homotopy_transfer(A, s, 3)
    kernel_iota = T.inclusion.component(2).evaluate((x, x))
    kernel_bracket = T.minimal.operation(3).evaluate((x, x, x))
    if kernel_iota != oracle_iota:
        failures.append(f"kernel iota_2(x, x) = {kernel_iota!r} disagrees")
    if kernel_bracket != oracle_bracket:
        failures.append(f"kernel ternary value {kernel_bracket!r} disagrees")
    conclude(8, "iota_2(x, x) = -p and {x, x, x}_3 = -3*z, oracle-confirmed",
             failures)


def test_criterion_09_witness_pipeline_on_the_eligible_corpus():
    failures = []
    eligible = 0
    start = perf_counter()
    for name, Q in standard_corpus():
        if Q.pairing.degree > 2 or name == "nocontraction":
            continue  # out of scope / fails the invariance hypothesis
        s = compute_splitting(Q.algebra)
        normalized = normalize_splitting(Q, s)
        Qn, sn = normalized.quasi, normalized.splitting
        # the builder asserts, over basis tuples, only the identities
        # verify_witness cannot see; the morphism relations are its alone
        witness = build_formality_witness(normalized, validate_pairing(Q, s),
                                          5)
        if witness.verified_up_to != 5:
            failures.append(f"{name}: witness stops at "
                            f"{witness.verified_up_to}")
        T = homotopy_transfer(Qn.algebra, sn, 5)
        bad = verify_witness(witness, T)
        if bad:
            failures.append(f"{name}: verifier reports {bad[0].identity}")
        eligible += 1
    elapsed = perf_counter() - start
    if eligible != 7:
        failures.append(f"expected 7 eligible instances, saw {eligible}")
    conclude(9, "formality witness built and independently verified at "
                "arity 5 on all 7 eligible instances", failures,
             elapsed, 120.0)


def _guarded_pipeline(Q) -> str:
    """Run the full guarded stack on one instance; name the first failure.

    Every stage either passes or yields a *named* outcome; reaching "ok"
    means the independent verifier accepted the witness.
    """
    violations = validate_dgla(Q.algebra)
    if violations:
        return f"algebra-validation:{violations[0].identity}"
    s = compute_splitting(Q.algebra)
    report = validate_pairing(Q, s)
    if report.violations:
        return f"pairing-validation:{report.violations[0].identity}"
    if not report.is_quasi_cyclic:
        return "pairing-validation:degenerate_on_H"
    try:
        normalized = normalize_splitting(Q, s)
    except NormalizationError as error:
        name = error.violations[0].identity if error.violations else "failed"
        return f"normalization:{name}"
    Qn, sn = normalized.quasi, normalized.splitting
    try:
        witness = build_formality_witness(normalized, report, 4)
    except WitnessRejected:
        return "witness-rejected"
    except AssertionError:
        return "lemma-battery"
    T = homotopy_transfer(Qn.algebra, sn, 4)
    bad = verify_witness(witness, T)
    if bad:
        return f"verifier:{bad[0].identity}"
    return "ok"


def test_criterion_10_single_constant_perturbations_never_pass_silently():
    rng = random.Random(10)
    bases = [(name, Q) for name, Q in standard_corpus()
             if Q.pairing.degree <= 2 and name != "nocontraction"]
    failures = []
    outcomes = Counter()
    start = perf_counter()
    for i in range(50):
        name, Q = bases[i % len(bases)]
        description, perturbed = perturb_quasi_cyclic(Q, rng)
        try:
            outcome = _guarded_pipeline(perturbed)
        except Exception as error:  # an unnamed crash is a silent failure
            failures.append(f"{name} ({description}): unnamed "
                            f"{type(error).__name__}: {error}")
            outcome = "unnamed-crash"
        outcomes[outcome.split(":")[0]] += 1
    elapsed = perf_counter() - start
    summary = ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
    conclude(10, f"50 perturbations all land on named outcomes ({summary})",
             failures, elapsed, 120.0)
