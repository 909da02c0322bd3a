"""Human-writable text documents for algebras, and their exact loader.

A document is a line-oriented description of a differential graded Lie
algebra over the exact rationals: a basis with degrees, differential
and bracket tables with rational coefficients ("p/q"), an optional
invariant pairing of declared degree, and optional splitting/degree-0
declarations.  Bracket and pairing entries are given on ordered pairs
only; the graded skew (respectively symmetric) completion happens at
load time with conflict detection.  Parsing canonicalizes entry order
and orientation, so serializing a parsed document is idempotent.

Sections start at column 1; their entries are indented.  `#` starts a
comment.  The full grammar ships in docs/format.md next to annotated
examples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .core import (
    GradedVectorSpace, LinearMap, MultilinearMap, Vector, as_scalar,
    format_scalar,
)
from .cyclic import CyclicPairing, QuasiCyclicDgla
from .dgla import DgLieAlgebra, Splitting

__all__ = [
    "AlgebraDocument", "DocumentError", "ParseError", "bundled_documents",
    "document_splitting", "document_to_algebra", "document_to_quasi_cyclic",
    "load_document", "parse_document", "serialize_document",
]


class ParseError(ValueError):
    """Unreadable document text, located by line and column (1-based)."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.reason = message
        self.line = line
        self.column = column


class DocumentError(ValueError):
    """Schema-level problem, located by a path into the document."""

    def __init__(self, message, path):
        super().__init__(f"at {path}: {message}")
        self.reason = message
        self.path = path


_LABEL = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")
_TOKEN = re.compile(r"[+\-*]|[0-9]+(?:/[0-9]+)?|[A-Za-z_][A-Za-z0-9_.]*|\S")


@dataclass
class AlgebraDocument:
    """Parsed, canonicalized content of an algebra document.

    Bracket keys are ordered pairs with the earlier basis label first
    (the skew image of any reversed input entry); pairing entries are
    oriented the same way.  Coefficient tables never store zeros.
    """

    name: str
    basis: list
    differential: dict = field(default_factory=dict)
    brackets: dict = field(default_factory=dict)
    pairing_degree: int | None = None
    pairing: list = field(default_factory=list)
    h_labels: list | None = None
    k_labels: list | None = None
    h0_labels: list | None = None

    def space(self) -> GradedVectorSpace:
        return GradedVectorSpace(self.basis)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _parse_rational(token, line, column):
    """An exact scalar: int for plain digits (with an optional leading
    `-`), Fraction's grammar otherwise."""
    try:
        digits = token[1:] if token[:1] == "-" else token
        if digits.isdigit() and digits.isascii():
            return int(token)
        return as_scalar(Fraction(token))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational number, got {token!r}",
                         line, column) from None


# One term of a combination: its signs, an optional `rational*` and its
# label.  A coefficient is a number as _TOKEN reads one, or a lone
# non-ASCII decimal digit (a one-character token that Fraction reads as
# an integer).  A prefix of a number is never followed by `*`, so
# backtracking cannot split one.
_TERM = re.compile(r"\s*((?:[-+]\s*)*)(?:([0-9]+(?:/[0-9]+)?|\d)\s*\*\s*)?"
                   r"([A-Za-z_][A-Za-z0-9_.]*)")


def _parse_combination(text, line, offset, degrees, expected_degree, what):
    """Parse `coeff*label +/- ...` (or `0`) into a label -> scalar table.

    Each term is one _TERM match; its sign is the parity of its `-`
    signs, and every term but the first needs at least one sign.
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError(f"missing value for {what}", line, offset)
    if stripped == "0":
        return {}
    out = {}
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = _TERM.match(text, pos)
        if m is None:
            raise _term_error(text, pos, line, offset, what)
        signs, coefficient, label = m.groups()
        if pos and not signs:
            raise _term_error(text, pos, line, offset, what)
        if coefficient is None:
            value = 1
        elif "/" in coefficient:
            value = _parse_rational(coefficient, line, offset + m.start(2) + 1)
        else:
            value = int(coefficient)
        degree = degrees.get(label)
        if degree != expected_degree:
            column = offset + m.start(3) + 1
            if degree is None:
                raise ParseError(f"unknown basis label {label!r}",
                                 line, column)
            raise ParseError(
                f"{what} must be homogeneous of degree {expected_degree}; "
                f"{label!r} has degree {degree}", line, column)
        if signs.count("-") % 2:
            value = -value
        out[label] = as_scalar(out[label] + value) if label in out else value
        pos = m.end()
    return {label: c for label, c in out.items() if c}


def _term_error(text, pos, line, offset, what):
    """The error of the term that _TERM refuses at ``pos``, named from
    the tokens there: a missing sign between terms, a dangling sign, or
    a malformed coefficient or label (a bad rational raises its own)."""
    tokens = ((m.group(0), offset + m.start() + 1)
              for m in _TOKEN.finditer(text, pos))
    token, column = next(tokens)
    if pos and token not in ("+", "-"):
        return ParseError(f"expected '+' or '-', got {token!r}", line, column)
    while token in ("+", "-"):
        token, column = next(tokens, (None, None))
        if token is None:
            return ParseError(f"dangling sign at the end of {what}",
                              line, offset)
    if not token[0].isdigit():
        return ParseError(f"unexpected token {token!r} in {what}",
                          line, column)
    _parse_rational(token, line, column)
    star, star_column = next(tokens, (None, None))
    if star != "*":
        return ParseError(
            "expected '*' and a basis label after the coefficient",
            line, column)
    return ParseError("expected a basis label after '*'", line, star_column)


_BASIS_ENTRY = re.compile(r"\s+(\S+)\s+(-?\d+)\s*$")
_DIFFERENTIAL_ENTRY = re.compile(r"(\s+)(\S+)\s*->\s*")
_BRACKET_ENTRY = re.compile(r"(\s+)\[\s*([^\s,\]]+)\s*,\s*([^\s,\]]+)\s*\]\s*=\s*")
_PAIRING_ENTRY = re.compile(r"(\s+)\(\s*([^\s,)]+)\s*,\s*([^\s,)]+)\s*\)\s*=\s*(\S+)\s*$")
_SPLITTING_ENTRY = re.compile(r"\s+(H|K)\b\s*(.*)$")


def parse_document(text: str) -> AlgebraDocument:
    """Parse document text; raise ParseError with line/column on failure."""
    name = None
    field_seen = False
    basis = []
    degrees = {}
    order = {}
    differential = {}
    brackets = {}
    bracket_lines = {}
    bracket_sources = {}
    pairing_degree = None
    pairing = {}
    pairing_lines = {}
    pairing_sources = set()
    h_labels = k_labels = h0_labels = None
    section = None
    seen_sections = set()

    def store_bracket(left, right, value, lineno, column):
        if (left, right) in bracket_sources:
            raise ParseError(f"duplicate bracket entry for [{left}, {right}]",
                             lineno, column)
        bracket_sources[(left, right)] = lineno
        if order[left] <= order[right]:
            key, table = (left, right), value
        else:
            # graded skew symmetry: [u, v] = -(-1)^{|u||v|} [v, u]
            sign = 1 if (degrees[left] * degrees[right]) % 2 else -1
            key = (right, left)
            table = {label: sign * c for label, c in value.items()}
        if left == right and degrees[left] % 2 == 0 and table:
            raise ParseError(
                f"[{left}, {left}] must vanish for an even generator",
                lineno, column)
        if key in brackets:
            if brackets[key] != table:
                raise ParseError(
                    f"[{left}, {right}] conflicts with the skew image of "
                    f"[{key[0]}, {key[1]}] given on line "
                    f"{bracket_lines[key]}", lineno, column)
        else:
            brackets[key] = table
            bracket_lines[key] = lineno

    def store_pairing(left, right, value, lineno, column):
        if (left, right) in pairing_sources:
            raise ParseError(f"duplicate pairing entry for ({left}, {right})",
                             lineno, column)
        pairing_sources.add((left, right))
        if left == right and degrees[left] % 2 and value:
            # graded symmetry forces (u, u) = -(u, u) for odd u
            raise ParseError(
                f"({left}, {left}) must vanish for an odd generator",
                lineno, column)
        if order[left] <= order[right]:
            key, entry = (left, right), value
        else:
            # graded symmetry: (u, v) = (-1)^{|u||v|} (v, u)
            sign = -1 if (degrees[left] * degrees[right]) % 2 else 1
            key, entry = (right, left), sign * value
        if key in pairing:
            if pairing[key] != entry:
                raise ParseError(
                    f"({left}, {right}) conflicts with the symmetric image "
                    f"of ({key[0]}, {key[1]}) given on line "
                    f"{pairing_lines[key]}", lineno, column)
        else:
            pairing[key] = entry
            pairing_lines[key] = lineno

    def require_basis(line, column, header):
        if not basis:
            raise ParseError(f"the basis section must precede {header!r}",
                             line, column)

    def label_at(token, line, column):
        if token not in degrees:
            raise ParseError(f"unknown basis label {token!r}", line, column)
        return token

    def labels_from(tokens, line, lineno, end, what):
        """Each token's label and column, searched after the previous
        token (from ``end`` on); a label may appear once."""
        seen = set()
        for token in tokens:
            column = line.index(token, end) + 1
            end = column - 1 + len(token)
            label = label_at(token, lineno, column)
            if label in seen:
                raise ParseError(f"{what} lists {label!r} twice", lineno, column)
            seen.add(label)
            yield label, column

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        indented = line[0].isspace()

        if not indented:
            words = line.split()
            header = words[0]
            if header in seen_sections:
                raise ParseError(f"duplicate section {header!r}", lineno, 1)
            if header == "name":
                if len(words) != 2:
                    raise ParseError("expected: name <identifier>", lineno, 1)
                name = words[1]
            elif header == "field":
                if len(words) != 2 or words[1] != "Q":
                    raise ParseError(
                        "only the exact rationals are supported: field Q",
                        lineno, len("field ") + 1)
                field_seen = True
            elif header == "basis":
                if len(words) != 1:
                    raise ParseError("the basis header takes no arguments",
                                     lineno, 1)
                section = "basis"
            elif header in ("differential", "bracket", "splitting"):
                if len(words) != 1:
                    raise ParseError(
                        f"the {header} header takes no arguments", lineno, 1)
                require_basis(lineno, 1, header)
                section = header
            elif header == "pairing":
                if len(words) != 3 or words[1] != "degree":
                    raise ParseError("expected: pairing degree <integer>",
                                     lineno, 1)
                try:
                    pairing_degree = int(words[2])
                except ValueError:
                    raise ParseError(
                        f"expected an integer degree, got {words[2]!r}",
                        lineno, line.index(words[2], line.index(words[1])
                                           + len(words[1])) + 1) from None
                require_basis(lineno, 1, header)
                section = "pairing"
            elif header == "h0":
                require_basis(lineno, 1, header)
                h0_labels = []
                for label, column in labels_from(
                        words[1:], line, lineno, len(header),
                        "degree-0 declaration"):
                    if degrees[label] != 0:
                        raise ParseError(
                            f"degree-0 declaration lists {label!r} of "
                            f"degree {degrees[label]}", lineno, column)
                    h0_labels.append(label)
                section = None
            else:
                raise ParseError(f"unknown section {header!r}", lineno, 1)
            seen_sections.add(header)
            continue

        column = len(line) - len(line.lstrip()) + 1
        if section == "basis":
            m = _BASIS_ENTRY.match(line)
            if not m:
                raise ParseError("expected: <label> <integer degree>",
                                 lineno, column)
            label, degree = m.group(1), int(m.group(2))
            if not _LABEL.match(label):
                raise ParseError(
                    f"invalid label {label!r} (use letters, digits, '_', "
                    f"'.', starting with a letter or '_')", lineno, column)
            if label in degrees:
                raise ParseError(f"duplicate basis label {label!r}",
                                 lineno, column)
            basis.append((label, degree))
            degrees[label] = degree
            order[label] = len(basis) - 1
        elif section == "differential":
            m = _DIFFERENTIAL_ENTRY.match(line)
            if not m:
                raise ParseError("expected: <label> -> <combination>",
                                 lineno, column)
            src = label_at(m.group(2), lineno, len(m.group(1)) + 1)
            if src in differential:
                raise ParseError(f"duplicate differential entry for {src!r}",
                                 lineno, column)
            value = _parse_combination(
                line[m.end():], lineno, m.end(), degrees,
                degrees[src] + 1, f"d({src})")
            if value:
                differential[src] = value
        elif section == "bracket":
            m = _BRACKET_ENTRY.match(line)
            if not m:
                raise ParseError(
                    "expected: [<label>, <label>] = <combination>",
                    lineno, column)
            left = label_at(m.group(2), lineno, m.start(2) + 1)
            right = label_at(m.group(3), lineno, m.start(3) + 1)
            value = _parse_combination(
                line[m.end():], lineno, m.end(), degrees,
                degrees[left] + degrees[right], f"[{left}, {right}]")
            store_bracket(left, right, value, lineno, column)
        elif section == "pairing":
            m = _PAIRING_ENTRY.match(line)
            if not m:
                raise ParseError(
                    "expected: (<label>, <label>) = <rational>",
                    lineno, column)
            left = label_at(m.group(2), lineno, m.start(2) + 1)
            right = label_at(m.group(3), lineno, m.start(3) + 1)
            if degrees[left] + degrees[right] != pairing_degree:
                raise ParseError(
                    f"({left}, {right}) has total degree "
                    f"{degrees[left] + degrees[right]}, but the pairing "
                    f"is declared in degree {pairing_degree}",
                    lineno, column)
            value = _parse_rational(m.group(4), lineno, m.start(4) + 1)
            store_pairing(left, right, value, lineno, column)
        elif section == "splitting":
            m = _SPLITTING_ENTRY.match(line)
            if not m:
                raise ParseError("expected: H <labels...> or K <labels...>",
                                 lineno, column)
            labels = [label for label, _ in labels_from(
                m.group(2).split(), line, lineno, m.start(2),
                f"{m.group(1)} line")]
            if m.group(1) == "H":
                if h_labels is not None:
                    raise ParseError("duplicate H line", lineno, column)
                h_labels = labels
            else:
                if k_labels is not None:
                    raise ParseError("duplicate K line", lineno, column)
                k_labels = labels
        else:
            raise ParseError("indented entry outside any section",
                             lineno, column)

    if name is None:
        raise DocumentError("missing 'name' declaration", "name")
    if not field_seen:
        raise DocumentError("missing 'field Q' declaration", "field")
    if not basis:
        raise DocumentError("missing or empty basis section", "basis")
    if (h_labels is None) != (k_labels is None):
        raise DocumentError("a splitting needs both an H and a K line",
                            "splitting")
    if h_labels is not None and set(h_labels) & set(k_labels):
        overlap = sorted(set(h_labels) & set(k_labels))
        raise DocumentError(f"H and K overlap in {overlap}", "splitting")
    return AlgebraDocument(
        name=name, basis=basis, differential=differential,
        brackets={key: table for key, table in brackets.items() if table},
        pairing_degree=pairing_degree,
        pairing=sorted(
            ((pair, value) for pair, value in pairing.items() if value),
            key=lambda item: (order[item[0][0]], order[item[0][1]])),
        h_labels=h_labels, k_labels=k_labels, h0_labels=h0_labels)


def load_document(path) -> AlgebraDocument:
    # utf-8-sig: a byte-order mark, if any, is not part of the text
    with open(path, encoding="utf-8-sig") as handle:
        return parse_document(handle.read())


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _format_combination(space, table) -> str:
    return repr(space.vector(table))


def serialize_document(doc: AlgebraDocument) -> str:
    """Canonical text for a document; a fixed point of parse-then-serialize."""
    space = doc.space()
    order = {label: i for i, (label, _) in enumerate(doc.basis)}
    lines = [f"name {doc.name}", "field Q", "", "basis"]
    width = max(len(label) for label, _ in doc.basis)
    for label, degree in doc.basis:
        lines.append(f"  {label:<{width}} {degree}")
    if doc.differential:
        lines.extend(["", "differential"])
        for label in sorted(doc.differential, key=order.get):
            comb = _format_combination(space, doc.differential[label])
            lines.append(f"  {label} -> {comb}")
    if doc.brackets:
        lines.extend(["", "bracket"])
        for left, right in sorted(doc.brackets, key=lambda p: (order[p[0]],
                                                               order[p[1]])):
            comb = _format_combination(space, doc.brackets[(left, right)])
            lines.append(f"  [{left}, {right}] = {comb}")
    if doc.pairing_degree is not None:
        lines.extend(["", f"pairing degree {doc.pairing_degree}"])
        for (left, right), value in sorted(
                doc.pairing, key=lambda item: (order[item[0][0]],
                                               order[item[0][1]])):
            lines.append(f"  ({left}, {right}) = {format_scalar(value)}")
    if doc.h_labels is not None:
        lines.extend(["", "splitting",
                      ("  H " + " ".join(doc.h_labels)).rstrip(),
                      ("  K " + " ".join(doc.k_labels)).rstrip()])
    if doc.h0_labels is not None:
        lines.extend(["", "h0 " + " ".join(doc.h0_labels)])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Documents to algebra objects
# ---------------------------------------------------------------------------

def document_to_algebra(doc: AlgebraDocument) -> DgLieAlgebra:
    space = doc.space()
    index = {label: i for i, (label, _) in enumerate(doc.basis)}

    def vector(table):
        return space.vector({index[label]: c for label, c in table.items()})

    d = LinearMap(space, space, 1,
                  {index[src]: vector(table)
                   for src, table in doc.differential.items()})
    bracket = MultilinearMap(space, space, 2, 0)
    for (left, right), table in doc.brackets.items():
        bracket.set_entry((index[left], index[right]), vector(table))
    return DgLieAlgebra(space, d, bracket)


def document_to_quasi_cyclic(doc: AlgebraDocument) -> QuasiCyclicDgla:
    if doc.pairing_degree is None:
        raise DocumentError(
            "this command needs a pairing, but the document declares none",
            "pairing")
    A = document_to_algebra(doc)
    pairing = CyclicPairing(A.space, doc.pairing_degree, doc.pairing)
    return QuasiCyclicDgla(A, pairing)


def document_splitting(doc: AlgebraDocument, A: DgLieAlgebra):
    """The declared splitting as vectors, or None when not declared."""
    if doc.h_labels is None:
        return None
    return Splitting(A,
                     [A.basis_vector(label) for label in doc.h_labels],
                     [A.basis_vector(label) for label in doc.k_labels])


def bundled_documents():
    """The example documents shipped with the package, as (name, text)."""
    out = []
    data = resources.files(__package__) / "data"
    for entry in sorted(data.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".alg"):
            out.append((entry.name[:-len(".alg")], entry.read_text("utf-8")))
    return out
