import itertools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gradedlie.cli import main
from gradedlie.corpus import perturb_quasi_cyclic
from gradedlie.documents import (
    bundled_documents, document_splitting, document_to_quasi_cyclic,
    parse_document, serialize_document,
)
from oracles import contraction_violations_naive, dgla_violations_naive

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    paths = {}
    for name, text in bundled_documents():
        path = root / f"{name}.alg"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_pass(corpus_files, capsys):
    code, out, err = run(capsys, "validate", corpus_files["nocontraction"])
    assert code == 0
    assert "validate: PASS" in out
    assert "cyclic of degree 2" in out
    assert err == ""


def test_validate_fail_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text(
        "name broken\nfield Q\n\nbasis\n  a 0\n  x 1\n  z 2\n\n"
        "differential\n  a -> x\n  x -> z\n", encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "validate: FAIL" in out
    assert "d_squared" in out


def test_cohomology_dimensions(corpus_files, capsys):
    code, out, _ = run(capsys, "cohomology", corpus_files["nocontraction"])
    assert code == 0
    assert "dim H^0 = 1" in out
    assert "dim H^1 = 2" in out
    assert "dim H^2 = 1" in out


def test_transfer_reports_golden_tables(corpus_files, capsys):
    code, out, _ = run(capsys, "transfer", corpus_files["nocontraction"],
                       "--arity", "3")
    assert code == 0
    assert "i_2(x, x) = -p" in out
    assert "{x, x, x}_3 = -3*z" in out
    assert "0 violations" in out


def test_transfer_default_arity_is_dim_h_plus_two(corpus_files, capsys):
    code, out, _ = run(capsys, "transfer", corpus_files["nocontraction"])
    assert code == 0
    assert "arity 6" in out


def test_massey_single_triple(corpus_files, capsys):
    code, out, _ = run(capsys, "massey", corpus_files["nocontraction"],
                       "--triple", "x", "x", "x")
    assert code == 0
    assert "2*z" in out
    assert "essentially nonzero" in out


def test_massey_scan_is_an_evidence_query(corpus_files, capsys):
    # A scan that finds a certificate still exits 0: the verdict belongs
    # to the formality command; here NON-FORMAL is a reported finding.
    code, out, _ = run(capsys, "massey", corpus_files["nocontraction"])
    assert code == 0
    assert "massey: NON-FORMAL" in out

    code, out, _ = run(capsys, "massey", corpus_files["weighted-pair"])
    assert code == 0
    assert "massey: INCONCLUSIVE" in out


def test_formality_nonformal_exits_one(corpus_files, capsys):
    code, out, _ = run(capsys, "formality", corpus_files["nocontraction"])
    assert code == 1
    assert "formality: NON-FORMAL" in out
    assert "no splitting invariant" in out
    assert "(x, x, x)" in out
    assert "2*z" in out


def test_formality_without_degree_zero_classes_checks_its_own(
        corpus_files, tmp_path, capsys):
    # an empty h0 line leaves nothing to search under; the splitting is
    # still checked against its own degree-0 representative a, and fails
    text = Path(corpus_files["nocontraction"]).read_text(encoding="utf-8")
    assert text.endswith("\nh0 a\n")
    bare = tmp_path / "bare-h0.alg"
    bare.write_text(text[:-len("h0 a\n")] + "h0\n", encoding="utf-8")
    code, out, err = run(capsys, "formality", str(bare))
    assert code == 1 and err == ""
    assert "formality: NON-FORMAL" in out
    assert "violation invariance_H at (a, x)" in out
    assert "massey-triple certificate on (x, x, x)" in out
    assert "equivariant search" not in out


def test_formality_witness_on_weighted_pair(corpus_files, capsys):
    code, out, _ = run(capsys, "formality", corpus_files["weighted-pair"])
    assert code == 0
    assert "formality: FORMAL-UP-TO-6" in out
    assert "f_3(x1, x1, x2) = 1/2*x1" in out
    assert "0 violations" in out


def test_formality_identity_witness_on_symplectic_instance(
        corpus_files, capsys):
    code, out, _ = run(capsys, "formality",
                       corpus_files["diagonal-symplectic"])
    assert code == 0
    assert "formality: FORMAL-UP-TO-6" in out
    assert "f_1 is the identity" in out
    assert "f_3" not in out


def test_formality_degree_three_certificate(corpus_files, capsys):
    code, out, _ = run(capsys, "formality", corpus_files["noformal-degree3"])
    assert code == 1
    assert "formality: NON-FORMAL" in out
    assert "(a, a, a)" in out


def test_corpus_passes(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "corpus: PASS" in out
    assert out.count("[ok]") == 4


def test_corpus_structured_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "corpus", "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "PASS"
        payload.pop("seconds")
        runs.append(json.dumps(payload, sort_keys=True))
    assert runs[0] == runs[1]


def test_structured_output_shape(corpus_files, capsys):
    code, out, _ = run(capsys, "validate", corpus_files["weighted-pair"],
                       "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "validate"
    assert payload["status"] == "PASS"
    assert isinstance(payload["findings"], list)
    assert isinstance(payload["seconds"], float)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": ()},
    ("x", 1, [2, (3,)]),
    {"by_degree": [[0, 1], [1, 2], [2, 1]], "kind": "dimensions"},
    {"text": "H¹ ⊗ ω, tab\t, quote \", slash \\, \x00"},
    {"z": True, "y": False, "x": None, "w": 0.25, "v": 1e-07, "u": -3,
     "t": 123456.789},
    [[[]], [{}], [[{"k": [None]}]]],
    "plain", 7, 2.5, None, True,
    2 ** 64, -2 ** 70 - 1, [2 ** 64 + 1, [-(2 ** 100)]], -0.0, [-0.0, 0.0],
    [True, [False, [None]], {"t": [True, None], "f": False}],
])
def test_structured_rendering_is_json_dumps(value):
    from gradedlie.cli import _dumps
    assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_structured_rendering_is_json_dumps_on_every_golden():
    golden = sorted((Path(__file__).resolve().parent / "golden").glob("*.json"))
    assert len(golden) == 33
    from gradedlie.cli import _dumps
    for path in golden:
        value = json.loads(path.read_text(encoding="utf-8"))
        for report in (value, value["report"]):
            assert _dumps(report) == json.dumps(report, sort_keys=True,
                                                indent=2), path.name


def test_structured_output_is_the_report_through_json_dumps(corpus_files,
                                                            capsys):
    code, out, _ = run(capsys, "transfer", corpus_files["weighted-pair"],
                       "--format", "structured")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_missing_file_exits_two(capsys):
    code, out, err = run(capsys, "validate", "/nonexistent/nowhere.alg")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_the_documents_in_the_format_doc_validate(tmp_path, capsys):
    text = (Path(SRC).parent / "docs" / "format.md").read_text("utf-8")
    blocks = [b for b in re.findall(r"```\n(.*?)```", text, re.S)
              if b.startswith("name ")]
    assert blocks
    for n, block in enumerate(blocks):
        path = tmp_path / f"example{n}.alg"
        path.write_text(block, encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert (code, err) == (0, ""), out + err
        assert out.startswith("validate: PASS")


def test_parse_error_exits_two_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("name bad\nfield Q\n\nbasis\n  x 1\n\nbracket\n"
                   "  [x, q] = x\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line 8, column 7" in err


def test_a_byte_order_mark_is_not_part_of_the_document(corpus_files, tmp_path,
                                                      capsys):
    plain = Path(corpus_files["weighted-pair"])
    marked = tmp_path / "weighted-pair.alg"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    payloads = []
    for path in (plain, marked):
        code, out, err = run(capsys, "validate", str(path),
                             "--format", "structured")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["status"] == "PASS"
        payload.pop("seconds")
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_unknown_massey_label_exits_two(corpus_files, capsys):
    code, _, err = run(capsys, "massey", corpus_files["nocontraction"],
                       "--triple", "x", "x", "q")
    assert code == 2
    assert "unknown basis label 'q'" in err


@pytest.mark.parametrize("argv, expected", [
    (["validate", "weighted-pair"], 0),
    (["formality", "nocontraction"], 1),
])
def test_closed_stdout_keeps_the_report_exit_code(corpus_files, argv, expected):
    # the read end is closed before the command starts, so its first
    # write to stdout fails with a broken pipe, as under `| head`
    command, name = argv
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "gradedlie.cli", command, corpus_files[name]],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [SRC, os.environ.get("PYTHONPATH")]))})
    finally:
        os.close(write_end)
    assert done.returncode == expected
    assert done.stderr == ""


def counting(monkeypatch, name, *modules):
    """Count calls of ``name`` through every module that binds it."""
    calls = []
    original = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    for module in modules:
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_transfer_checks_the_morphism_relations_once(corpus_files, capsys,
                                                     monkeypatch):
    # the relations are checked in the walk that builds each level: no
    # separate check_morphism pass, and one walk per arity 1..N
    import gradedlie.cli
    import gradedlie.linfty
    calls = counting(monkeypatch, "check_morphism", gradedlie.linfty,
                     gradedlie.cli)
    walks = []
    original = gradedlie.linfty.canonical_tuples

    def recording(space, arity, *rest):
        walks.append(arity)
        return original(space, arity, *rest)
    monkeypatch.setattr(gradedlie.linfty, "canonical_tuples", recording)
    code, out, _ = run(capsys, "transfer", corpus_files["nocontraction"],
                       "--arity", "4")
    assert code == 0
    assert calls == []
    assert walks == [1, 2, 3, 4]
    assert "morphism relations to arity 4: 0 violations" in out


def test_formality_transfers_once(corpus_files, capsys, monkeypatch):
    import gradedlie.cli
    import gradedlie.formality
    calls = counting(monkeypatch, "homotopy_transfer", gradedlie.formality,
                     gradedlie.cli)
    code, out, _ = run(capsys, "formality", corpus_files["weighted-pair"])
    assert code == 0 and "FORMAL-UP-TO-" in out
    assert calls == ["homotopy_transfer"]


def test_formality_does_not_normalize_out_of_scope_documents(
        corpus_files, capsys, monkeypatch):
    import gradedlie.cli
    import gradedlie.cyclic
    import gradedlie.formality
    modules = [m for m in (gradedlie.cyclic, gradedlie.formality,
                           gradedlie.cli) if hasattr(m, "normalize_splitting")]
    calls = counting(monkeypatch, "normalize_splitting", *modules)
    code, out, _ = run(capsys, "formality", corpus_files["noformal-degree3"])
    assert code == 1 and "out of scope" in out
    assert calls == []


@pytest.mark.parametrize("name", ["diagonal-symplectic", "nocontraction",
                                  "noformal-degree3", "weighted-pair"])
@pytest.mark.parametrize("arity", ["1", "0"])
def test_formality_arity_below_two_exits_two(corpus_files, capsys, name,
                                             arity):
    code, out, err = run(capsys, "formality", corpus_files[name],
                         "--arity", arity)
    assert code == 2
    assert out == ""
    assert err == "error: witness construction needs arity bound N >= 2\n"


# formality's verify_splitting calls and exit code per bundled document:
# the declared splitting, then, on a FORMAL run, the normalized one, which
# the transfer reads from its memo instead of checking it again
_FORMALITY_SPLITTING_CHECKS = {"diagonal-symplectic": (2, 0),
                               "weighted-pair": (2, 0),
                               "nocontraction": (1, 1),
                               "noformal-degree3": (1, 1)}


@pytest.mark.parametrize("command", ["validate", "cohomology", "transfer",
                                     "massey", "formality", "corpus"])
def test_each_document_is_built_and_validated_once(corpus_files, capsys,
                                                   monkeypatch, command):
    # one load per file subcommand (corpus parses its bundled texts), one
    # algebra, in its pairing, for the checks, the splitting and the query,
    # and one check of each splitting, whose memo the library reads
    modules = [m for name, m in sys.modules.items()
               if name.split(".")[0] == "gradedlie"]
    counts = [
        counting(monkeypatch, name, *[m for m in modules if hasattr(m, name)])
        for name in ("load_document", "document_to_quasi_cyclic",
                     "document_to_algebra", "validate_dgla",
                     "verify_splitting")]
    if command == "corpus":
        cases = [([], 0, len(bundled_documents()), sum(
            checks for checks, _ in _FORMALITY_SPLITTING_CHECKS.values()), 0)]
    elif command == "formality":
        cases = [([corpus_files[name]], 1, 1, checks, code) for name, (
            checks, code) in _FORMALITY_SPLITTING_CHECKS.items()]
    else:
        cases = [([corpus_files["nocontraction"]], 1, 1, 1, 0)]
    for files, loads, documents, splitting_checks, expected_code in cases:
        for calls in counts:
            calls.clear()
        code, out, _ = run(capsys, command, *files)
        assert code == expected_code, out
        assert [len(calls) for calls in counts] == [
            loads, documents, documents, documents, splitting_checks], files


def test_internal_error_exits_three_with_one_line(corpus_files, capsys,
                                                  monkeypatch):
    # a self-check of the library fails on a valid document: the walk
    # that builds the transfer reports one failed morphism relation
    import gradedlie.linfty
    from gradedlie.dgla import Violation
    original = gradedlie.linfty._level_tables

    def failing(*args):
        iota, brackets, failures = original(*args)
        return iota, brackets, failures + [
            Violation("morphism_relation_2", ("x", "x"), "planted")]
    monkeypatch.setattr(gradedlie.linfty, "_level_tables", failing)
    code, out, err = run(capsys, "transfer", corpus_files["nocontraction"])
    assert code == 3
    assert out == ""
    assert err == ("internal error: inclusion fails its morphism relations: "
                   "morphism_relation_2 at ('x', 'x')\n")


@pytest.mark.parametrize("command", [
    ["cohomology"], ["transfer"], ["massey"], ["formality"],
    # validation comes before the query's own arguments, which would exit
    # 2 on a valid algebra
    ["transfer", "--arity", "1"], ["formality", "--arity", "0"],
    ["massey", "--triple", "x", "x", "q"]], ids=" ".join)
def test_an_invalid_algebra_fails_with_the_violations_of_validate(
        corpus_files, tmp_path, capsys, command):
    # one extra bracket constant breaks the Jacobi identity; no command
    # computes anything on it, and each lists what validate lists first
    text = Path(corpus_files["nocontraction"]).read_text(encoding="utf-8")
    bad = tmp_path / "edited.alg"
    bad.write_text(text.replace("[b, x] = y\n", "[b, x] = y\n  [b, p] = -2*x\n"),
                   encoding="utf-8")
    code, out, err = run(capsys, "validate", str(bad), "--format",
                         "structured")
    assert code == 1 and err == ""
    violations = list(itertools.takewhile(
        lambda f: f["kind"] == "violation", json.loads(out)["findings"]))
    assert [f["identity"] for f in violations] == ["jacobi"] * 3
    code, out, err = run(capsys, command[0], str(bad), *command[1:],
                         "--format", "structured")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["status"] == "FAIL"
    assert report["findings"] == violations


_NO_PAIRING = "name ok\nfield Q\n\nbasis\n  a 0\n  x 1\n\ndifferential\n"


def test_formality_without_a_pairing_exits_two(tmp_path, capsys):
    path = tmp_path / "nopairing.alg"
    path.write_text(_NO_PAIRING + "  a -> x\n", encoding="utf-8")
    assert run(capsys, "validate", str(path))[0] == 0
    code, out, err = run(capsys, "formality", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: at pairing: this command needs a pairing, but the "
                   "document declares none\n")


def test_formality_without_a_pairing_checks_the_algebra_first(tmp_path,
                                                              capsys):
    # d(d(a)) = z: the algebra check comes before the missing pairing
    path = tmp_path / "nopairing.alg"
    path.write_text(_NO_PAIRING.replace("  x 1\n", "  x 1\n  z 2\n")
                    + "  a -> x\n  x -> z\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path), "--format",
                         "structured")
    assert code == 1 and err == ""
    findings = json.loads(out)["findings"]
    assert [f["kind"] for f in findings] == ["violation", "note"]
    code, out, err = run(capsys, "formality", str(path), "--format",
                         "structured")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["status"] == "FAIL"
    assert report["findings"] == findings[:1]
    assert findings[0]["identity"] == "d_squared"


def test_formality_on_an_invalid_algebra_fails_at_the_top_arity(
        corpus_files, tmp_path, capsys):
    # [x1, u1] = du1 breaks the Jacobi identity; at --arity 3 only the
    # equivariance check of the top inclusion would see it, but validation
    # runs first and names it
    text = Path(corpus_files["weighted-pair"]).read_text(encoding="utf-8")
    bad = tmp_path / "edited.alg"
    bad.write_text(text.replace("[x1, x2] = w\n",
                                "[x1, x2] = w\n  [x1, u1] = du1\n"),
                   encoding="utf-8")
    code, out, err = run(capsys, "formality", str(bad), "--arity", "3")
    assert code == 1 and err == ""
    assert out.startswith("formality: FAIL")
    assert "  - violation jacobi at (g, x1, u1): defect du1\n" in out
    assert "FORMAL-UP-TO-3" not in out


def test_corpus_gives_no_formality_verdict_on_an_invalid_document(
        capsys, monkeypatch):
    import gradedlie.cli
    texts = dict(bundled_documents())
    bad = texts["nocontraction"].replace("[b, x] = y\n",
                                         "[b, x] = y\n  [b, p] = -2*x\n")
    monkeypatch.setattr(gradedlie.cli, "bundled_documents",
                        lambda: [("nocontraction", bad)])
    code, out, _ = run(capsys, "corpus", "--format", "structured")
    assert code == 1
    entry = json.loads(out)["findings"][0]
    assert entry["name"] == "nocontraction" and not entry["match"]
    assert (entry["validate"], entry["formality"]) == ("FAIL", "FAIL")


def test_the_parser_is_built_once_per_process(corpus_files, capsys,
                                              monkeypatch):
    import argparse
    import gradedlie.cli
    built = []
    original = argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    gradedlie.cli.build_parser.cache_clear()
    assert run(capsys, "validate", corpus_files["nocontraction"])[0] == 0
    first = list(built)
    assert first.count("gradedlie") == 1
    assert run(capsys, "cohomology", corpus_files["nocontraction"])[0] == 0
    assert built == first


def test_a_usage_error_exits_two_with_a_warm_parser(corpus_files, capsys):
    assert run(capsys, "validate", corpus_files["nocontraction"])[0] == 0
    for argv in (["transfer"], ["transfer", corpus_files["nocontraction"],
                                "--arity", "x"], ["nosuch"]):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert "usage:" in capsys.readouterr().err
    assert run(capsys, "validate", corpus_files["nocontraction"])[0] == 0


def test_a_differential_that_does_not_square_to_zero_is_named(
        corpus_files, tmp_path, capsys):
    text = Path(corpus_files["nocontraction"]).read_text(encoding="utf-8")
    text = text.replace("  p -> dp\n", "  p -> dp\n  db -> 2*dp\n")
    bad = tmp_path / "dsquared.alg"
    bad.write_text(text[:text.index("splitting\n")], encoding="utf-8")
    code, out, err = run(capsys, "cohomology", str(bad))
    assert code == 1 and err == ""
    assert out.startswith("cohomology: FAIL")
    assert "  - violation d_squared at (b): d(d(.)) = 2*dp\n" in out


def test_validate_fails_on_d_squared_with_a_pairing_and_no_splitting(
        corpus_files, tmp_path, capsys):
    text = Path(corpus_files["nocontraction"]).read_text(encoding="utf-8")
    text = text.replace("  p -> dp\n", "  p -> dp\n  db -> 2*dp\n")
    bad = tmp_path / "dsquared.alg"
    bad.write_text(text[:text.index("splitting\n")], encoding="utf-8")
    code, out, err = run(capsys, "validate", str(bad),
                         "--format", "structured")
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert payload["status"] == "FAIL"
    findings = payload["findings"]
    assert findings[0] == {"kind": "violation", "identity": "d_squared",
                           "where": ["b"], "detail": "d(d(.)) = 2*dp"}
    assert findings[-1]["kind"] == "note"
    assert "pairing not classified" in findings[-1]["text"]
    assert not any(f["kind"] == "pairing-status" for f in findings)


def _document_of(parsed, Q):
    """``parsed`` with the structure constants of ``Q``, on its labels."""
    labels = Q.space.labels

    def table(v):
        return {labels[i]: c for i, c in v.coeffs.items()}
    A = Q.algebra
    return replace(
        parsed,
        differential={labels[i]: table(v) for i, v in A.d.columns.items()
                      if not v.is_zero()},
        brackets={(labels[i], labels[j]): table(v)
                  for (i, j), v in A.bracket.entries() if not v.is_zero()},
        pairing=[((labels[i], labels[j]), c)
                 for (i, j), c in Q.pairing.entries()])


def _invalid_naive(doc, A):
    """Whether the algebra or the declared splitting fails, judged by the
    brute-force oracles and a dense d^2."""
    n = A.space.dim
    d = [[A.d.columns[j].coeffs.get(i, 0) if j in A.d.columns else 0
          for j in range(n)] for i in range(n)]
    if any(sum(d[i][k] * d[k][j] for k in range(n))
           for i in range(n) for j in range(n)):
        return True
    if dgla_violations_naive(A):
        return True
    try:
        splitting = document_splitting(doc, A)
    except ValueError:
        return True
    return bool(splitting and contraction_violations_naive(splitting))


def test_no_verdict_on_a_single_constant_edit_that_breaks_the_algebra(
        tmp_path, capsys):
    # the edits of corpus.perturb_quasi_cyclic, each through every
    # subcommand: a documented exit code always, and on an invalid algebra
    # neither a PASS from the computations nor a formality claim
    rng = random.Random(26)
    # the status each subcommand may not give on an invalid algebra,
    # besides FORMAL-UP-TO-N
    claims = {"validate": "PASS", "cohomology": "PASS", "transfer": "PASS",
              "massey": "NON-FORMAL", "formality": "NON-FORMAL"}
    problems, invalid_edits = [], 0
    for name, text in bundled_documents():
        parsed = parse_document(text)
        Q = document_to_quasi_cyclic(parsed)
        for n in range(30):
            description, edited = perturb_quasi_cyclic(Q, rng)
            doc = _document_of(parsed, edited)
            path = tmp_path / f"{name}-{n}.alg"
            path.write_text(serialize_document(doc), encoding="utf-8")
            invalid = _invalid_naive(doc, edited.algebra)
            invalid_edits += invalid
            for command, claim in claims.items():
                code, out, _ = run(capsys, command, str(path),
                                   "--format", "structured")
                status = json.loads(out)["status"] if out else ""
                if code not in (0, 1, 2) or invalid and (
                        status == claim or status.startswith("FORMAL-UP-TO-")):
                    problems.append(f"{name} ({description}): {command} "
                                    f"exits {code}, status {status!r}")
    assert invalid_edits > 30
    assert problems == []
