import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie import documents
from gradedlie.documents import (
    AlgebraDocument, DocumentError, ParseError, bundled_documents,
    document_splitting, document_to_algebra, document_to_quasi_cyclic,
    parse_document, serialize_document,
)
from gradedlie.corpus import (
    random_quasi_cyclic_two_step, random_two_step, standard_corpus,
)
from gradedlie.dgla import validate_dgla
from gradedlie.cyclic import validate_pairing

from oracles import assert_exact_scalar, parse_combination_naive


BUNDLED_NAMES = (
    "diagonal-symplectic", "nocontraction", "noformal-degree3",
    "weighted-pair")

# diagonal-symplectic keeps the builtin basis order but renames the
# degree-2 generator (the file grammar has no '^' in labels), so the
# structural comparison below works at the level of basis indices.
RELABELED = {"diagonal-symplectic"}


def _dense_columns(linear_map):
    return {key: tuple(value.dense())
            for key, value in linear_map.columns.items()}


def _dense_entries(multilinear_map):
    return {key: tuple(value.dense())
            for key, value in multilinear_map.entries()}


def test_bundled_documents_match_the_builtin_instances():
    twins = dict(standard_corpus())
    names = []
    for name, text in bundled_documents():
        names.append(name)
        doc = parse_document(text)
        assert doc.name == name
        Q = document_to_quasi_cyclic(doc)
        assert validate_dgla(Q.algebra) == [], name
        twin = twins[name]
        if name not in RELABELED:
            assert Q.algebra.space.labels == twin.algebra.space.labels
        assert Q.algebra.space.degrees == twin.algebra.space.degrees
        assert _dense_columns(Q.algebra.d) == _dense_columns(twin.algebra.d)
        assert (_dense_entries(Q.algebra.bracket)
                == _dense_entries(twin.algebra.bracket))
        assert Q.pairing.degree == twin.pairing.degree
        space, twin_space = Q.algebra.space, twin.algebra.space
        for i in range(space.dim):
            for j in range(space.dim):
                assert Q.pairing.evaluate(
                    space.basis_vector(i), space.basis_vector(j)
                ) == twin.pairing.evaluate(
                    twin_space.basis_vector(i), twin_space.basis_vector(j))
    assert sorted(names) == sorted(BUNDLED_NAMES)


def test_bundled_splittings_are_declared_and_valid():
    for name, text in bundled_documents():
        doc = parse_document(text)
        Q = document_to_quasi_cyclic(doc)
        s = document_splitting(doc, Q.algebra)
        assert s is not None, name
        report = validate_pairing(Q, s)
        assert report.is_quasi_cyclic, name


def test_round_trip_is_idempotent_after_one_normalization():
    for name, text in bundled_documents():
        once = serialize_document(parse_document(text))
        twice = serialize_document(parse_document(once))
        assert once == twice, name


def test_reversed_entries_are_canonicalized_by_skew_completion():
    text = """
name reversed
field Q

basis
  a 0
  x 1
  db 1

differential  # comments are allowed anywhere
  # d kills a and x

bracket
  [x, a] = db   # the skew image of [a, x] = -db
"""
    doc = parse_document(text)
    assert doc.brackets == {("a", "x"): {"db": Fraction(-1)}}
    assert "[a, x] = -db" in serialize_document(doc)


def test_reversed_pairing_entries_pick_up_the_symmetry_sign():
    text = """
name reversed-pairing
field Q

basis
  x 1
  y 1

pairing degree 2
  (y, x) = 1
"""
    doc = parse_document(text)
    # odd-odd pairing is antisymmetric: (x, y) = -(y, x)
    assert doc.pairing == [(("x", "y"), Fraction(-1))]


def test_consistent_skew_duplicates_are_accepted():
    text = """
name duplicated
field Q

basis
  a 0
  x 1
  db 1

bracket
  [a, x] = -db
  [x, a] = db
"""
    doc = parse_document(text)
    assert doc.brackets == {("a", "x"): {"db": Fraction(-1)}}


def test_inconsistent_skew_entries_are_a_parse_error():
    text = """name conflicted
field Q

basis
  a 0
  x 1
  db 1

bracket
  [a, x] = -db
  [x, a] = -db
"""
    with pytest.raises(ParseError, match="conflicts with the skew image"):
        parse_document(text)
    try:
        parse_document(text)
    except ParseError as error:
        assert error.line == 11
        assert "line 10" in str(error)


def test_duplicate_ordered_pair_is_a_parse_error():
    text = """name duplicated
field Q

basis
  x 1
  dp 2

bracket
  [x, x] = dp
  [x, x] = dp
"""
    with pytest.raises(ParseError, match="duplicate bracket entry"):
        parse_document(text)


def test_even_diagonal_bracket_must_vanish():
    text = """name evendiag
field Q

basis
  a 0

bracket
  [a, a] = a
"""
    with pytest.raises(ParseError, match="must vanish for an even generator"):
        parse_document(text)


def test_combination_grammar():
    text = """name combos
field Q

basis
  x1 1
  x2 1
  u  2
  v  2
  w  2

differential

bracket
  [x1, x1] = 0
  [x1, x2] = 3/2*u - v + 2*w - 1/2*w
"""
    doc = parse_document(text)
    assert ("x1", "x1") not in doc.brackets
    assert doc.brackets[("x1", "x2")] == {
        "u": Fraction(3, 2), "v": Fraction(-1), "w": Fraction(3, 2)}


def test_parsed_coefficients_are_int_or_non_integral_fraction():
    text = """name exact
field Q

basis
  a  0
  x1 1
  x2 1
  u  2
  v  2

differential
  a -> 4/2*x1 + 1/2*x2 + 1/2*x2

bracket
  [x1, x2] = 3/2*u - v + 2*u - 7/2*u
  [a, x1]  = 1/3*x2

pairing degree 2
  (x1, x2) = -3/2
  (a, u)   = 6/3
  (a, v)   = 1.5
"""
    doc = parse_document(text)
    assert doc.differential == {"a": {"x1": 2, "x2": 1}}
    assert doc.brackets[("x1", "x2")] == {"v": -1}
    assert dict(doc.pairing) == {("x1", "x2"): Fraction(-3, 2),
                                 ("a", "u"): 2, ("a", "v"): Fraction(3, 2)}
    docs = [doc] + [parse_document(text) for _, text in bundled_documents()]
    for parsed in docs:
        tables = (list(parsed.differential.values())
                  + list(parsed.brackets.values()))
        for table in tables:
            for c in table.values():
                assert_exact_scalar(c)
        for _, c in parsed.pairing:
            assert_exact_scalar(c)


@pytest.mark.parametrize("entry, message", [
    ("  [x, x] = 2 dp", "expected '\\*'"),
    ("  [x, x] = dp +", "dangling sign"),
    ("  [x, x] = 1/0*dp", "expected a rational"),
    ("  [x, x] = nope", "unknown basis label"),
    ("  [x, x] = x", "must be homogeneous of degree 2"),
    ("  [x, nope] = dp", "unknown basis label"),
    ("  x, x = dp", "expected: \\["),
])
def test_bad_bracket_entries(entry, message):
    text = ("name bad\nfield Q\n\nbasis\n  x 1\n  dp 2\n\nbracket\n"
            + entry + "\n")
    with pytest.raises(ParseError, match=message):
        parse_document(text)


GRAMMAR_HEADER = ("name grammar\nfield Q\n\nbasis\n  x 1\n  y 1\n  dp 2\n"
                  "  dq 2\n\nbracket\n")
GRAMMAR_DEGREES = {"x": 1, "y": 1, "dp": 2, "dq": 2}


@pytest.mark.parametrize("value, table", [
    ("-dp", {"dp": -1}),
    ("+dp", {"dp": 1}),
    ("dp - - dq", {"dp": 1, "dq": 1}),
    ("dp + -dq", {"dp": 1, "dq": -1}),
    ("2/4*dp", {"dp": Fraction(1, 2)}),
    ("2*  dp", {"dp": 2}),
    ("0", None),
    ("0*dp", None),
    ("dp - dp", None),
])
def test_accepted_combinations(value, table):
    # the entry `  [x, y] = <value>` is line 11
    doc = parse_document(GRAMMAR_HEADER + f"  [x, y] = {value}\n")
    assert doc.brackets.get(("x", "y")) == table


@pytest.mark.parametrize("value, column, message", [
    ("dp dq", 15, "expected '+' or '-', got 'dq'"),
    ("dp ^ dq", 15, "expected '+' or '-', got '^'"),
    ("2 dp", 12, "expected '*' and a basis label after the coefficient"),
    ("-0", 13, "expected '*' and a basis label after the coefficient"),
    ("2*", 13, "expected a basis label after '*'"),
    ("2*3", 13, "expected a basis label after '*'"),
    ("dp +", 11, "dangling sign at the end of [x, y]"),
    ("", 10, "missing value for [x, y]"),
    ("1/0*dp", 12, "expected a rational number, got '1/0'"),
    ("x", 12, "[x, y] must be homogeneous of degree 2; 'x' has degree 1"),
    ("nope", 12, "unknown basis label 'nope'"),
])
def test_refused_combinations(value, column, message):
    text = GRAMMAR_HEADER + f"  [x, y] = {value}\n"
    with pytest.raises(ParseError, match="^" + re.escape(
            f"line 11, column {column}: {message}") + "$"):
        parse_document(text)


def _combination_outcome(parse, text):
    try:
        table = parse(text, 11, 11, GRAMMAR_DEGREES, 2, "[x, y]")
    except ParseError as error:
        return "refused", error.reason, error.line, error.column
    return "accepted", {label: (type(c), c) for label, c in table.items()}


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(
    ["x", "dp", "dq", "nope", *"0123456789", "/", "*", "+", "-", "^", " "]),
    max_size=12).map("".join))
def test_combination_scanner_matches_the_token_walk(text):
    assert (_combination_outcome(documents._parse_combination, text)
            == _combination_outcome(parse_combination_naive, text))


def _exact_rows(table):
    return {key: {i: (type(c), c) for i, c in value.coeffs.items()}
            for key, value in table.items()}


@pytest.mark.parametrize("n_u", [6, 7, 8, None])
def test_workload_sized_documents_round_trip(n_u):
    # dim 16-20: negative first terms and `2*` coefficients, built back
    # with exactly the generator's constants
    rng = random.Random(f"round trip {n_u}")
    if n_u is None:
        A, pairing = random_two_step(rng, 4, 6, 2), None
    else:
        Q = random_quasi_cyclic_two_step(rng, 4, n_u)
        A, pairing = Q.algebra, Q.pairing
    labels = A.space.labels
    doc = AlgebraDocument(
        name="sized", basis=list(zip(labels, A.space.degrees)),
        differential={labels[i]: {labels[j]: c for j, c in v.coeffs.items()}
                      for i, v in A.d.columns.items()},
        brackets={(labels[i], labels[j]): {labels[k]: c
                                           for k, c in v.coeffs.items()}
                  for (i, j), v in A.bracket.entries()})
    if pairing is not None:
        doc.pairing_degree = pairing.degree
        doc.pairing = [((labels[i], labels[j]), c)
                       for (i, j), c in pairing.entries()]
    text = serialize_document(doc)
    assert re.search(r"= -", text) and "2*" in text
    parsed = parse_document(text)
    if pairing is None:
        B = document_to_algebra(parsed)
    else:
        Q = document_to_quasi_cyclic(parsed)
        B = Q.algebra
        rows = [Q.pairing.lower(Q.space.basis_vector(i)).coeffs
                for i in range(Q.space.dim)]
        assert rows == [pairing.lower(A.space.basis_vector(i)).coeffs
                        for i in range(A.space.dim)]
    assert B.space == A.space
    assert _exact_rows(B.d.columns) == _exact_rows(A.d.columns)
    assert _exact_rows(B.bracket.table) == _exact_rows(A.bracket.table)


def test_parse_error_carries_line_and_column():
    text = "name bad\nfield Q\n\nbasis\n  x 1\n\nbracket\n  [x, q] = x\n"
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert info.value.line == 8
    assert info.value.column == 7
    assert str(info.value).startswith("line 8, column 7")
    # a bad pairing degree is located at the value, not at the keyword
    text = "name bad\nfield Q\n\nbasis\n  x 1\n\npairing degree degree\n"
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert (info.value.line, info.value.column) == (7, 16)


@pytest.mark.parametrize("value", ["1", "2"])
def test_a_repeated_pairing_entry_is_a_parse_error(value):
    # same rule as a repeated bracket entry, whatever the second value
    text = dict(bundled_documents())["weighted-pair"].replace(
        "  (x1, x2) = 1\n", f"  (x1, x2) = 1\n  (x1, x2) = {value}\n")
    with pytest.raises(ParseError, match=r"^line \d+, column 3: duplicate "
                       r"pairing entry for \(x1, x2\)$"):
        parse_document(text)


def test_differential_degree_bookkeeping():
    text = "name bad\nfield Q\n\nbasis\n  a 0\n  z 2\n\ndifferential\n  a -> z\n"
    with pytest.raises(ParseError, match="degree 1"):
        parse_document(text)


def test_pairing_degree_bookkeeping():
    text = ("name bad\nfield Q\n\nbasis\n  x 1\n  y 1\n\n"
            "pairing degree 3\n  (x, y) = 1\n")
    with pytest.raises(ParseError, match="declared in degree 3"):
        parse_document(text)


def test_pairing_symmetry_conflict():
    text = ("name bad\nfield Q\n\nbasis\n  x 1\n  y 1\n\n"
            "pairing degree 2\n  (x, y) = 1\n  (y, x) = 1\n")
    with pytest.raises(ParseError, match="symmetric image"):
        parse_document(text)


def test_odd_diagonal_pairing_must_vanish():
    # graded symmetry forces (x, x) = -(x, x) when x is odd; the parser
    # rejects it up front (an explicit zero entry is still fine)
    base = "name bad\nfield Q\n\nbasis\n  x 1\n\npairing degree 2\n"
    with pytest.raises(ParseError, match="must vanish for an odd generator"):
        parse_document(base + "  (x, x) = 2\n")
    assert parse_document(base + "  (x, x) = 0\n").pairing == []


@pytest.mark.parametrize("text, message", [
    ("name a\nfield R\n\nbasis\n  x 1\n", "field Q"),
    ("field Q\n\nbasis\n  x 1\n", "missing 'name'"),
    ("name a\n\nbasis\n  x 1\n", "missing 'field Q'"),
    ("name a\nfield Q\n", "empty basis"),
    ("name a\nfield Q\n\nbracket\n  [x, x] = x\n", "must precede"),
    ("name a\nfield Q\n\nbasis\n  x 1\nbasis\n  y 1\n", "duplicate section"),
    ("name a\nfield Q\n\nbasis\n  x 1\n\npairing degree 2\n"
     "pairing degree 2\n", "^line 8, column 1: duplicate section 'pairing'"),
    ("name a\nfield Q\n\n  x 1\n", "outside any section"),
    ("name a\nfield Q\n\nmystery\n", "unknown section"),
    ("name a\nfield Q\n\nbasis\n  x 1\n  x 2\n", "duplicate basis label"),
    ("name a\nfield Q\n\nbasis\n  1x 1\n", "invalid label"),
    ("name a\nfield Q\n\nbasis\n  x 1\n\nsplitting\n  H x\n",
     "both an H and a K"),
    ("name a\nfield Q\n\nbasis\n  x 1\n\nsplitting\n  H x\n  K x\n",
     "overlap"),
    ("name a\nfield Q\n\nbasis\n  x 1\n\nh0 x\n", "degree-0 declaration"),
    ("name a\nfield Q\n\nbasis\n  g 0\n  gg 0\n\nh0 gg g g\n",
     "lists 'g' twice"),
    ("name a\nfield Q\n\nbasis\n  x 1\n\npairing degree two\n",
     "expected an integer"),
    ("name a\nfield Q\n\nbasis\n  x 1\n\npairing degree degree\n",
     "^line 7, column 16: expected an integer degree, got 'degree'$"),
    ("name a\nfield Q\n\nbasis\n  x 1\n\npairing degree 2\n  (qq, x) = 1\n",
     "^line 8, column 4: unknown basis label 'qq'"),
    ("name a\nfield Q\n\nbasis\n  u1 1\n  u2 1\n\nsplitting\n  H\n"
     "  K u1 u2 K\n", "^line 10, column 11: unknown basis label 'K'"),
    ("name a\nfield Q\n\nbasis\n  g 0\n  x1 1\n  x2 1\n\nsplitting\n"
     "  H g x1 x1 x2\n  K\n", "^line 10, column 10: H line lists 'x1' twice"),
])
def test_schema_violations(text, message):
    with pytest.raises((ParseError, DocumentError), match=message):
        parse_document(text)


def test_quasi_cyclic_conversion_requires_a_pairing():
    doc = parse_document("name bare\nfield Q\n\nbasis\n  x 1\n")
    with pytest.raises(DocumentError, match="declares none") as info:
        document_to_quasi_cyclic(doc)
    assert info.value.path == "pairing"


def test_missing_splitting_yields_none():
    doc = parse_document("name bare\nfield Q\n\nbasis\n  x 1\n")
    assert document_splitting(doc, document_to_algebra(doc)) is None


def test_serializer_formats_fractions_and_orders_terms():
    text = """
name fractions
field Q

basis
  x 1
  y 1
  u 2

bracket
  [x, y] = -1/2*u
"""
    out = serialize_document(parse_document(text))
    assert "[x, y] = -1/2*u" in out
    assert out.index("name fractions") < out.index("field Q") < out.index("basis")
