"""Seeded inputs for the four benchmark workloads, and the checks every op passes.

Each input is made by a ``gradedlie.corpus`` generator from the workload
seed, turned into a document, serialized with
``documents.serialize_document`` and written to a file.  The program sees
only those files, through ``gradedlie.cli.main``.

An op is one ``main([...])`` call.  Ops are listed in a seeded order, so
the first ops of a run are the same on every run with that seed; the
client walks the list in passes.  Every timed op must pass its checks.
``probe`` ops are run once each, untimed, and their failures are counted,
not fatal: on ``documents`` they are the invalid edits through every
subcommand but ``validate``, whose wrong verdicts and tracebacks are the
robustness number.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gradedlie import corpus, documents  # noqa: E402
from gradedlie.cyclic import from_symplectic_representation, validate_pairing  # noqa: E402
from gradedlie.dgla import validate_dgla, verify_splitting  # noqa: E402

# Rungs are (generator arguments, arity N, instances per seed).  Every
# rung stays under about a second per op, so that a run collects the 100
# samples its 90th percentile needs.  Counts are chosen so that the median
# and the 90th percentile each fall inside a well-filled band of rungs of
# similar cost, not on the step between two bands, where the seed would
# move them.  The deepest rungs (dim H 6 or N 6 for transfer, n_x 4 for
# the witness) run once per pass.
TRANSFER_LADDER = [
    ((2, 2, 1), 4, 8), ((2, 3, 1), 4, 8), ((3, 1, 1), 4, 8),
    ((3, 2, 1), 4, 10), ((2, 2, 1), 5, 8), ((3, 2, 2), 4, 6),
    ((2, 3, 1), 5, 2), ((3, 1, 1), 5, 10), ((2, 2, 1), 6, 1),
    ((4, 3, 2), 4, 1),
]
WITNESS_LADDER = [
    ((2, 1), 4, 20), ((2, 2), 4, 18), ((2, 1), 5, 8), ((2, 3), 4, 4),
    ((2, 2), 5, 7), ((2, 4), 4, 4), ((4, 1), 4, 1),
]
# (N, dim, instances): random_symplectic draws dim 4, 6 or 8; draws of
# another dim are skipped, so that every seed has the same mix of sizes.
SYMPLECTIC_LADDER = [(4, 4, 4), (4, 6, 4), (5, 4, 6), (6, 4, 4)]
# (n_x, n_u, instances): dim = n_x + 2 n_u, here 16 to 20.  With n_x = 4
# every Massey scan covers 64 triples, so the scan's cost varies smoothly
# with dim instead of jumping between n_x = 2 and 4.  Most instances have
# dim 16, so that the median (a Massey scan) and the 90th percentile (a
# validation) both fall inside one rung rather than between two.
WIDE_LADDER = [((4, 6), 18), ((4, 7), 2), ((4, 8), 1)]
# Edits per bundled document and class (invalid, quasi-cyclic), close to
# the rates at which perturb_quasi_cyclic produces each class; fixed counts
# keep the mix of error paths and full pipelines, and the number of probe
# ops, the same for every seed.
EDIT_QUOTAS = {
    "diagonal-symplectic": {(True, False): 18, (False, False): 6},
    "nocontraction": {(True, False): 16, (False, False): 8},
    "noformal-degree3": {(False, False): 16, (False, True): 6,
                         (True, False): 2},
    "weighted-pair": {(True, True): 11, (True, False): 11,
                      (False, False): 2},
}
MAX_EDIT_DRAWS = 1000
DOCUMENT_COMMANDS = ("validate", "cohomology", "transfer", "massey",
                     "formality")

EXPECTED_STATUS = {"transfer": {"PASS"}, "validate": {"PASS"},
                   "cohomology": {"PASS"}, "massey": {"INCONCLUSIVE"}}
_VIOLATION_NOTE = re.compile(
    r"^(re-verified|independent morphism-relation check).*: (\d+) violations$")


@dataclass(frozen=True)
class Doc:
    name: str
    text: str
    invalid: bool = False
    quasi_cyclic: bool = True


@dataclass(frozen=True)
class Op:
    doc: int
    command: str
    arity: int | None = None

    def argv(self, path) -> list:
        argv = [self.command, str(path)]
        if self.arity is not None:
            argv += ["--arity", str(self.arity)]
        return argv + ["--format", "structured"]


@dataclass
class Workload:
    name: str
    docs: list
    ops: list
    warmups: list
    probe: list = field(default_factory=list)

    def key(self, op: Op) -> str:
        arity = "" if op.arity is None else f" N={op.arity}"
        return f"{self.docs[op.doc].name} {op.command}{arity}"

    def inputs_digest(self) -> str:
        h = hashlib.sha256()
        for doc in self.docs:
            h.update(doc.text.encode())
        for op in self.ops + self.probe:
            h.update(repr((op.doc, op.command, op.arity)).encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Algebras to documents
# ---------------------------------------------------------------------------

def document_labels(labels) -> list:
    """Rename labels the document format refuses (``g1^`` becomes ``g1_``).

    ``from_symplectic_representation`` emits such labels, and
    ``serialize_document`` writes them unchecked, so ``parse_document``
    would refuse the file.
    """
    out = [re.sub(r"[^A-Za-z0-9_.]", "_", label) for label in labels]
    if len(set(out)) != len(out):
        raise ValueError(f"renaming made labels collide: {out}")
    return out


def algebra_document(name, A, pairing=None, like=None):
    """A document for the algebra (and pairing); ``like`` lends its
    declared splitting and degree-0 classes."""
    labels = document_labels(A.space.labels)

    def table(vec):
        return {labels[i]: c for i, c in vec.coeffs.items()}

    doc = documents.AlgebraDocument(
        name=name, basis=list(zip(labels, A.space.degrees)),
        differential={labels[i]: table(v) for i, v in A.d.columns.items()
                      if not v.is_zero()},
        brackets={(labels[i], labels[j]): table(v)
                  for (i, j), v in A.bracket.entries()})
    if pairing is not None:
        doc.pairing_degree = pairing.degree
        doc.pairing = [((labels[i], labels[j]), c)
                       for (i, j), c in pairing.entries()]
    if like is not None:
        doc.h_labels, doc.k_labels = like.h_labels, like.k_labels
        doc.h0_labels = like.h0_labels
    return doc


def _text(doc) -> str:
    text = documents.serialize_document(doc)
    documents.parse_document(text)   # the program must be able to read it
    return text


def classify(text):
    """(invalid, quasi_cyclic) for a document, decided outside any timing.

    Invalid: the algebra fails ``validate_dgla`` or the declared
    splitting fails ``verify_splitting``.
    """
    doc = documents.parse_document(text)
    A = documents.document_to_algebra(doc)
    invalid = bool(validate_dgla(A))
    try:
        splitting = documents.document_splitting(doc, A)
        invalid = invalid or bool(splitting and verify_splitting(splitting))
    except ValueError:
        splitting, invalid = None, True
    try:
        Q = documents.document_to_quasi_cyclic(doc)
        quasi_cyclic = validate_pairing(
            Q, None if invalid else splitting).is_quasi_cyclic
    except (ValueError, AssertionError):
        quasi_cyclic = False
    return invalid, quasi_cyclic


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _scaled(count, scale):
    return max(1, round(count * scale))


def _transfer(rng, scale):
    docs, strata = [], []
    for shape, N, count in TRANSFER_LADDER:
        strata.append([])
        for _ in range(_scaled(count, scale)):
            A = corpus.random_two_step(rng, *shape)
            name = f"t{len(docs):03d}"
            docs.append(Doc(name, _text(algebra_document(name, A))))
            strata[-1].append(Op(len(docs) - 1, "transfer", N))
    return docs, strata, [strata[0][0]], []


def _witness(rng, scale):
    docs, strata = [], []

    def add(Q, N):
        name = f"w{len(docs):03d}"
        docs.append(Doc(name, _text(algebra_document(
            name, Q.algebra, Q.pairing))))
        strata[-1].append(Op(len(docs) - 1, "formality", N))

    for (n_x, n_u), N, count in WITNESS_LADDER:
        strata.append([])
        for _ in range(_scaled(count, scale)):
            add(corpus.random_quasi_cyclic_two_step(rng, n_x, n_u), N)
    for N, dim, count in SYMPLECTIC_LADDER:
        strata.append([])
        for _ in range(_scaled(count, scale)):
            Q = from_symplectic_representation(corpus.random_symplectic(rng))
            while Q.space.dim != dim:
                Q = from_symplectic_representation(
                    corpus.random_symplectic(rng))
            add(Q, N)
    return docs, strata, [strata[0][0]], []


def _wide(rng, scale):
    commands = ("validate", "cohomology", "massey")
    docs, strata = [], []
    for (n_x, n_u), count in WIDE_LADDER:
        strata += [[] for _ in commands]
        for _ in range(_scaled(count, scale)):
            Q = corpus.random_quasi_cyclic_two_step(rng, n_x, n_u)
            name = f"v{len(docs):03d}"
            docs.append(Doc(name, _text(algebra_document(
                name, Q.algebra, Q.pairing))))
            for stratum, command in zip(strata[-3:], commands):
                stratum.append(Op(len(docs) - 1, command))
    return docs, strata, [Op(0, command) for command in commands], []


def _documents(rng, scale):
    docs, strata, probe = [], [], []
    for name, text in documents.bundled_documents():
        first = len(docs)
        docs.append(Doc(name, text, *classify(text)))
        parsed = documents.parse_document(text)
        Q = documents.document_to_quasi_cyclic(parsed)
        wanted = {cls: _scaled(n, scale)
                  for cls, n in EDIT_QUOTAS[name].items()}
        for draw in itertools.count():
            if not any(wanted.values()):
                break
            if draw == MAX_EDIT_DRAWS:
                raise RuntimeError(f"edit quotas for {name} not met in "
                                   f"{MAX_EDIT_DRAWS} draws")
            _, edited = corpus.perturb_quasi_cyclic(Q, rng)
            edit_name = f"{name}-edit{len(docs) - first - 1:02d}"
            edit_text = _text(algebra_document(
                edit_name, edited.algebra, edited.pairing, like=parsed))
            cls = classify(edit_text)
            if wanted.get(cls):
                wanted[cls] -= 1
                docs.append(Doc(edit_name, edit_text, *cls))
        # Invalid edits are timed through ``validate`` only.  The other
        # subcommands give wrong verdicts or raise on many of them (ROADMAP
        # item 2), so those ops are probed once each instead of timed.
        for c in DOCUMENT_COMMANDS:
            stratum = []
            for i in range(first, len(docs)):
                timed = c == "validate" or not docs[i].invalid
                (stratum if timed else probe).append(Op(i, c))
            strata.append(stratum)
    return docs, strata, [Op(0, c) for c in DOCUMENT_COMMANDS], probe


_GENERATORS = {"transfer": _transfer, "witness": _witness, "wide": _wide,
             "documents": _documents}


def interleave(strata, rng) -> list:
    """A seeded order of all ops in which every prefix holds each stratum
    (one rung and subcommand) in proportion to its size, so that a run
    stopping part-way through a pass still measures the stated mix."""
    keyed = []
    for stratum in strata:
        offset = rng.random()
        keyed += [((j + offset) / len(stratum), rng.random(), op)
                  for j, op in enumerate(stratum)]
    keyed.sort(key=lambda item: item[:2])
    return [op for _, _, op in keyed]


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The workload's documents and its seeded op order.

    ``scale`` multiplies the instances per rung (at least one each); the
    benchmark uses 1, its tests a small ladder.
    """
    rng = random.Random(f"{name}-{seed}")
    docs, strata, warmups, probe = _GENERATORS[name](rng, scale)
    return Workload(name, docs, interleave(strata, rng), warmups, probe)


# ---------------------------------------------------------------------------
# Per-op checks
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    raised: str | None = None

    def report(self):
        if self.raised is None and self.code in (0, 1) and self.stdout:
            return json.loads(self.stdout)
        return None


def result_digest(outcome: Outcome) -> str:
    """Digest of the status and the value-bearing findings.

    Skips ``seconds``, free-text notes and ``witness-check`` lines.
    """
    report = outcome.report()
    if report is None:
        payload = [outcome.code, outcome.raised, outcome.stderr.strip()]
    else:
        payload = [outcome.code, report["command"], report["status"],
                   [f for f in report["findings"]
                    if f.get("kind") not in ("note", "witness-check")]]
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def op_failures(workload: Workload, op: Op, outcome: Outcome) -> list:
    """Reasons this op fails, by the rules of its workload (empty: passed)."""
    if outcome.raised is not None:
        return [f"raised {outcome.raised}"]
    if workload.name == "documents":
        return _document_failures(workload.docs[op.doc], op, outcome)
    report = outcome.report()
    if outcome.code != 0 or report is None:
        return [f"exit {outcome.code}: {outcome.stderr.strip()[:200]}"]
    status = report["status"]
    if op.command == "formality":
        expected = status in (f"FORMAL-UP-TO-{op.arity}", "REJECTED")
    else:
        expected = status in EXPECTED_STATUS[op.command]
    reasons = [] if expected else [f"unexpected status {status}"]
    for f in report["findings"]:
        m = f.get("kind") == "note" and _VIOLATION_NOTE.match(f["text"])
        if m and m.group(2) != "0":
            reasons.append(f"note reports violations: {f['text']}")
    return reasons


def _document_failures(doc: Doc, op: Op, outcome: Outcome) -> list:
    if outcome.code not in (0, 1, 2):
        return [f"exit {outcome.code}"]
    report = outcome.report()
    status = report["status"] if report else None
    if doc.invalid and op.command in ("cohomology", "transfer") \
            and status == "PASS":
        return [f"PASS from {op.command} on an invalid document"]
    if doc.invalid and status is not None and (
            status == "NON-FORMAL" or status.startswith("FORMAL-UP-TO-")):
        return [f"{status} on an invalid document"]
    if not doc.quasi_cyclic and status is not None \
            and status.startswith("FORMAL-UP-TO-"):
        return [f"{status} on a pairing that is not quasi-cyclic"]
    return []
