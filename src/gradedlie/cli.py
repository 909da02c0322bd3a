"""Command line front end.

Subcommands
    validate    differential/bracket identities and the pairing axioms
    cohomology  dimensions, representatives, induced bracket
    transfer    minimal-model tables, re-verified against the axioms
    massey      one triple product, or a full certificate scan
    formality   the verdict of ``formality.formality_verdict``: pairing
                check, arity and pairing-degree scope, normalization
                with the equivariant search as fallback, witness,
                independent check, certificate scan on a rejection
    corpus      golden expectations over the bundled example documents

Each file subcommand loads its document once and checks the algebra
(``validate_dgla``) and any declared splitting (``verify_splitting``)
before its query and its pairing; a violation gives FAIL with the
violations ``validate`` lists first.  Reports render as text (default)
or as stable JSON (``--format structured``).  Exit codes: 0 for every
verdict except FAIL, or NON-FORMAL from ``formality``, which exit 1;
unreadable input (parse errors, schema violations, missing files,
ill-posed queries) exits 2; an internal error (a failed self-check,
raised as an ``AssertionError``) prints one line on stderr and exits 3.
``massey`` is an evidence query: finding a certificate still exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii

from .cyclic import validate_pairing
from .dgla import compute_splitting, cohomology
from .documents import (
    DocumentError, ParseError, bundled_documents, document_splitting,
    document_to_algebra, document_to_quasi_cyclic, load_document,
    parse_document,
)
from .formality import detect_nonformality, formality_verdict, massey_triple
# check_morphism stays in this namespace for callers that look it up here;
# the transfer path never calls it, as homotopy_transfer checks the
# morphism relations in the walk that builds each level
from .linfty import (  # noqa: F401
    check_linfty_axioms, check_morphism, homotopy_transfer,
)

__all__ = ["Report", "main"]


@dataclass
class Report:
    """Deterministic command outcome; timing is informational only."""

    command: str
    status: str
    findings: list = field(default_factory=list)
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {"command": self.command, "status": self.status,
                "findings": self.findings, "seconds": round(self.seconds, 6)}


def _violation_finding(v) -> dict:
    return {"kind": "violation", "identity": v.identity,
            "where": list(v.where), "detail": v.detail}


def _note(text) -> dict:
    return {"kind": "note", "text": text}


def _table_findings(kind, arity, table) -> list:
    return [{"kind": kind, "arity": arity, "args": list(table.labels_of(key)),
             "value": repr(value)} for key, value in table.entries()]


def _certificate_finding(certificate) -> dict:
    return {"kind": "certificate", "certificate": certificate.kind,
            "triple": list(certificate.triple),
            "class": repr(certificate.class_vector),
            "indeterminacy": [repr(v) for v in certificate.indeterminacy],
            "text": certificate.describe()}


# ---------------------------------------------------------------------------
# Subcommands: one staged run per document, rendered by each handler
# ---------------------------------------------------------------------------

class _Run:
    """One document's stages, each run at most once: (1) the algebra, in
    its ``QuasiCyclicDgla`` if a pairing is declared; (2) the algebra's and
    any declared splitting's ``violations``, and their ``failed`` verdict;
    (3) ``splitting``, lazily."""

    def __init__(self, doc):
        self.doc = doc
        self.quasi_cyclic = (document_to_quasi_cyclic(doc)
                             if doc.pairing_degree is not None else None)
        self.algebra = (self.quasi_cyclic.algebra if self.quasi_cyclic
                        else document_to_algebra(doc))
        self.violations = list(self.algebra.violations)
        # Splitting raises ValueError on vectors that are no basis
        self.declared = document_splitting(doc, self.algebra)
        if self.declared is not None:
            self.violations += self.declared.violations
        findings = [_violation_finding(v) for v in self.violations]
        # FAIL, the only verdict such a run gets
        self.failed = ("FAIL", findings) if findings else None

    @cached_property
    def splitting(self):
        return (self.declared if self.declared is not None
                else compute_splitting(self.algebra))


def cmd_validate(run) -> tuple:
    findings = [_violation_finding(v) for v in run.violations]
    Q, quasi_cyclic = run.quasi_cyclic, True
    if (Q is not None and run.declared is None
            and any(v.identity == "d_squared" for v in run.violations)):
        # classifying the pairing needs a splitting, and none can be
        # computed when d^2 != 0; the violations already make this a FAIL
        findings.append(_note("pairing not classified: no splitting "
                              "exists while d^2 != 0"))
    elif Q is not None:
        report = validate_pairing(Q, run.splitting)
        findings.append({"kind": "pairing-status", "text": report.status()})
        findings.extend(_violation_finding(v) for v in report.violations)
        quasi_cyclic = report.is_quasi_cyclic
    else:
        findings.append(_note("no pairing declared"))
    bad = any(f["kind"] == "violation" for f in findings)
    status = "PASS" if not bad and quasi_cyclic else "FAIL"
    return status, findings


def cmd_formality(run, arity=None) -> tuple:
    # a document with no pairing makes document_to_quasi_cyclic raise
    Q = run.quasi_cyclic or document_to_quasi_cyclic(run.doc)
    s0 = run.splitting
    if run.doc.h0_labels is not None:
        h0 = [Q.algebra.basis_vector(label) for label in run.doc.h0_labels]
    else:
        h0 = [v for v in s0.h_vectors if v.degree() == 0]
    N = arity if arity is not None else len(s0.h_vectors) + 2
    verdict = formality_verdict(Q, s0, h0, N)

    findings = [{"kind": "pairing-status", "text": verdict.pairing.status()}]
    findings.extend(_note(text) for text in verdict.notes)
    rejection = verdict.rejection
    if rejection is not None:
        findings.append(_note(rejection.message))
        if rejection.obstruction is not None:
            findings.append({"kind": "obstruction",
                             "text": rejection.obstruction.describe()})
        findings.extend(_violation_finding(v) for v in rejection.violations)
        if verdict.certificate is not None:
            findings.append(_certificate_finding(verdict.certificate))
        else:
            findings.append(_note("no triple-product certificate found on "
                                  "the representatives"))
        return verdict.status, findings

    witness = verdict.witness
    findings.extend({"kind": "witness-check", "text": line}
                    for line in witness.report)
    for p in sorted(witness.taylor):
        if p == 1:
            findings.append(_note("f_1 is the identity"))
        else:
            findings += _table_findings("witness-coefficient", p,
                                        witness.taylor[p])
    findings.append(_note(
        f"independent morphism-relation check to arity {N}: "
        f"{len(verdict.leftovers)} violations"))
    findings.extend(_violation_finding(v) for v in verdict.leftovers)
    return verdict.status, findings


def cmd_cohomology(run) -> tuple:
    presentation = cohomology(run.algebra, run.splitting)
    findings = [{"kind": "dimensions",
                 "by_degree": [[d, n] for d, n in sorted(
                     presentation.dims.items())]}]
    H = presentation.space
    for i, rep in enumerate(presentation.representatives):
        findings.append({"kind": "representative", "label": H.labels[i],
                         "degree": H.degrees[i], "vector": repr(rep)})
    for key, value in presentation.bracket.entries():
        findings.append({"kind": "bracket-entry",
                         "args": list(presentation.bracket.labels_of(key)),
                         "value": repr(value)})
    findings.extend(_violation_finding(v) for v in presentation.violations)
    status = "PASS" if not presentation.violations else "FAIL"
    return status, findings


def cmd_transfer(run, arity) -> tuple:
    s = run.splitting
    N = arity if arity is not None else len(s.h_vectors) + 2
    T = homotopy_transfer(run.algebra, s, N)
    findings = []
    for p in range(1, N + 1):
        findings += _table_findings("inclusion-entry", p,
                                    T.inclusion.component(p))
    for p in range(2, N + 1):
        findings += _table_findings("transfer-bracket", p,
                                    T.minimal.operation(p))
    # homotopy_transfer has already checked the morphism relations to
    # arity N and raises on any failure, so none are left to report
    problems = check_linfty_axioms(T.minimal, N)
    findings.append(_note(
        f"re-verified: strong homotopy axioms and morphism relations "
        f"to arity {N}: {len(problems)} violations"))
    findings.extend(_violation_finding(v) for v in problems)
    return "PASS" if not problems else "FAIL", findings


def cmd_massey(run, triple) -> tuple:
    A, s = run.algebra, run.splitting
    if triple:
        for label in triple:
            if label not in A.space.labels:
                raise DocumentError(f"unknown basis label {label!r}",
                                    "triple")
        product = massey_triple(A, s, *triple)
        if product is None:
            finding = {"kind": "triple-product", "triple": list(triple),
                       "defined": False}
        else:
            finding = {
                "kind": "triple-product", "triple": list(triple),
                "defined": True, "class": repr(product.class_vector),
                "representative": repr(product.representative),
                "indeterminacy": [repr(v) for v in product.indeterminacy],
                "nonzero_mod_indeterminacy":
                    product.nonzero_mod_indeterminacy()}
        return "PASS", [finding]
    certificate = detect_nonformality(A, s)
    if certificate is None:
        findings = [_note("no certificate among the representatives; "
                          "vanishing triple products prove nothing")]
        return "INCONCLUSIVE", findings
    return "NON-FORMAL", [_certificate_finding(certificate)]


_EXPECTED_CORPUS = {
    "diagonal-symplectic": {"validate": "PASS",
                            "pairing": "cyclic of degree 2",
                            "formality": "FORMAL-UP-TO-6"},
    "nocontraction": {"validate": "PASS", "pairing": "cyclic of degree 2",
                      "formality": "NON-FORMAL"},
    "noformal-degree3": {"validate": "PASS", "pairing": "cyclic of degree 3",
                         "formality": "NON-FORMAL"},
    "weighted-pair": {"validate": "PASS",
                      "pairing": "quasi-cyclic of degree 2",
                      "formality": "FORMAL-UP-TO-6"},
}


def cmd_corpus() -> tuple:
    findings = []
    seen = set()
    for name, text in bundled_documents():
        run = _Run(parse_document(text))
        seen.add(name)
        validate_status, validate_findings = cmd_validate(run)
        pairing = next((f["text"] for f in validate_findings
                        if f["kind"] == "pairing-status"), "none")
        formality_status = (run.failed or cmd_formality(run))[0]
        expected = _EXPECTED_CORPUS.get(name)
        got = {"validate": validate_status, "pairing": pairing,
               "formality": formality_status}
        findings.append({"kind": "corpus-entry", "name": name, **got,
                         "expected": expected, "match": expected == got})
    for missing in sorted(set(_EXPECTED_CORPUS) - seen):
        findings.append({"kind": "corpus-entry", "name": missing,
                         "expected": _EXPECTED_CORPUS[missing],
                         "match": False})
    status = "PASS" if all(f["match"] for f in findings) else "FAIL"
    return status, findings


# ---------------------------------------------------------------------------
# Rendering and dispatch
# ---------------------------------------------------------------------------

# the findings that render as a fixed prefix and their "text"
_TEXT_PREFIX = {"note": "", "certificate": "", "pairing-status": "pairing: ",
                "obstruction": "obstruction: ", "witness-check": "checked: "}


def _finding_text(f) -> str:
    kind = f.get("kind")
    if kind in _TEXT_PREFIX:
        return _TEXT_PREFIX[kind] + f["text"]
    if kind == "violation":
        where = ", ".join(f["where"])
        text = f"violation {f['identity']} at ({where})"
        return text + (f": {f['detail']}" if f.get("detail") else "")
    if kind == "dimensions":
        parts = ", ".join(f"dim H^{d} = {n}" for d, n in f["by_degree"])
        return parts or "cohomology vanishes"
    if kind == "representative":
        return (f"class {f['label']} (degree {f['degree']}) "
                f"is represented by {f['vector']}")
    if kind == "bracket-entry":
        return f"[{', '.join(f['args'])}] = {f['value']}"
    if kind == "inclusion-entry":
        return f"i_{f['arity']}({', '.join(f['args'])}) = {f['value']}"
    if kind == "transfer-bracket":
        return f"{{{', '.join(f['args'])}}}_{f['arity']} = {f['value']}"
    if kind == "triple-product":
        triple = ", ".join(f["triple"])
        if not f["defined"]:
            return f"triple product of ({triple}) is not defined"
        verdict = ("essentially nonzero"
                   if f["nonzero_mod_indeterminacy"] else
                   "zero modulo the indeterminacy")
        return (f"triple product of ({triple}): class {f['class']}, "
                f"indeterminacy of dimension {len(f['indeterminacy'])}, "
                f"{verdict}")
    if kind == "witness-coefficient":
        return f"f_{f['arity']}({', '.join(f['args'])}) = {f['value']}"
    if kind == "corpus-entry":
        verdict = "ok" if f["match"] else "MISMATCH"
        return (f"{f['name']}: validate={f.get('validate')}, "
                f"pairing={f.get('pairing')}, "
                f"formality={f.get('formality')} [{verdict}]")
    return json.dumps(f, sort_keys=True)


def _dumps(value, indent="\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` byte for byte, but
    with no pure-Python encoder, which ``json`` runs given an indent.
    str, int, None and bool go by exact class, the rest as ``json`` does."""
    cls = value.__class__
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is int:
        return int.__repr__(value)
    if value is None or cls is bool:
        return {None: "null", True: "true", False: "false"}[value]
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{encode_basestring_ascii(k)}: {_dumps(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _dumps(v, inner) for v in value]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    return json.dumps(value)


def _render(report: Report, fmt: str) -> str:
    if fmt == "structured":
        return _dumps(report.as_dict())
    lines = [f"{report.command}: {report.status} "
             f"({report.seconds:.3f}s)"]
    lines.extend(f"  - {_finding_text(f)}" for f in report.findings)
    return "\n".join(lines)


def _exit_code(report: Report) -> int:
    if report.status == "FAIL":
        return 1
    if report.command == "formality" and report.status == "NON-FORMAL":
        return 1
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; treat it as read-only."""
    parser = argparse.ArgumentParser(
        prog="gradedlie",
        description="Exact minimal models, Massey products, and formality "
                    "certificates for differential graded Lie algebras.",
        epilog="Each file subcommand loads its document once and "
               "validates the algebra and any declared splitting before "
               "its query and its pairing; a violation gives FAIL.  "
               "Exit codes: 0 verdict computed (PASS, INCONCLUSIVE, "
               "REJECTED, FORMAL-UP-TO-N, and NON-FORMAL outside "
               "'formality'); 1 FAIL, or NON-FORMAL from 'formality'; "
               "2 unreadable input; 3 internal error.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, needs_file=True, arity=False,
            triple=False):
        cmd = sub.add_parser(name, help=help_text)
        if needs_file:
            cmd.add_argument("file", help="algebra document (.alg)")
        if arity:
            cmd.add_argument("--arity", type=int, default=None, metavar="N",
                             help="arity bound (default: dim H + 2)")
        if triple:
            cmd.add_argument("--triple", nargs=3, default=None,
                             metavar=("L1", "L2", "L3"),
                             help="compute one triple product instead of "
                                  "scanning")
        cmd.add_argument("--format", choices=("text", "structured"),
                         default="text", help="report rendering")
        cmd.set_defaults(handler=handler)

    # validate is the one subcommand that renders an invalid run
    add("validate", cmd_validate,
        "check the graded Leibniz/Jacobi identities and the pairing")
    add("cohomology", cmd_cohomology,
        "dimensions, representatives, and the induced bracket")
    add("transfer", cmd_transfer, "minimal-model tables, re-verified",
        arity=True)
    add("massey", cmd_massey, "triple products and certificate scans",
        triple=True)
    add("formality", cmd_formality,
        "hypothesis check, witness construction, independent verification",
        arity=True)
    add("corpus", cmd_corpus, "golden expectations over bundled examples",
        needs_file=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if "file" in args:  # one run per document, checked before the query
            run = _Run(load_document(args.file))
            query = {k: v for k, v in vars(args).items()
                     if k in ("arity", "triple")}
            result = (run.failed if run.failed and args.command != "validate"
                      else args.handler(run, **query))
        else:
            result = args.handler()
        report = Report(args.command, *result)
    except (ParseError, DocumentError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except AssertionError as error:
        # the library's signal that one of its own checks failed
        text = " ".join(str(error).split()) or "assertion failed"
        if not text.startswith("internal error"):
            text = f"internal error: {text}"
        print(text, file=sys.stderr)
        return 3
    report.seconds = time.perf_counter() - started
    _emit(_render(report, args.format))
    return _exit_code(report)


def _emit(text: str) -> None:
    """Print a report; a reader that went away (``| head``) is no error."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # send what is still buffered to devnull, so that the flush at
        # interpreter exit does not raise the same error again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
