import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gradedlie.cli import main
from gradedlie.documents import bundled_documents

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
    import gradedlie.cli
    import gradedlie.linfty
    calls = counting(monkeypatch, "check_morphism", gradedlie.linfty,
                     gradedlie.cli)
    code, out, _ = run(capsys, "transfer", corpus_files["nocontraction"])
    assert code == 0
    assert calls == ["check_morphism"]
    assert "morphism relations to arity" in out and ": 0 violations" in out


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


def test_validate_builds_the_algebra_once(corpus_files, capsys, monkeypatch):
    # the pairing is validated on the algebra the splitting was built on
    import gradedlie.cli
    import gradedlie.documents
    calls = counting(monkeypatch, "document_to_algebra", gradedlie.documents,
                     gradedlie.cli)
    code, out, _ = run(capsys, "validate", corpus_files["nocontraction"])
    assert code == 0 and "cyclic of degree 2" in out
    assert calls == ["document_to_algebra"]


def test_internal_error_exits_three_with_one_line(corpus_files, tmp_path,
                                                  capsys):
    # one extra bracket constant makes the algebra invalid; transfer does
    # not validate it first (a known gap), and its inclusion then fails
    # the morphism relations, the library's own consistency check
    text = Path(corpus_files["nocontraction"]).read_text(encoding="utf-8")
    bad = tmp_path / "edited.alg"
    bad.write_text(text.replace("[b, x] = y\n", "[b, x] = y\n  [b, p] = -2*x\n"),
                   encoding="utf-8")
    code, out, err = run(capsys, "transfer", str(bad))
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: inclusion fails its morphism "
                          "relations")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_formality_on_an_invalid_algebra_exits_three_at_the_top_arity(
        corpus_files, tmp_path, capsys):
    # [x1, u1] = du1 breaks the Jacobi identity; at --arity 3 only the
    # equivariance check of the top inclusion sees it, and no verdict is
    # printed
    text = Path(corpus_files["weighted-pair"]).read_text(encoding="utf-8")
    bad = tmp_path / "edited.alg"
    bad.write_text(text.replace("[x1, x2] = w\n",
                                "[x1, x2] = w\n  [x1, u1] = du1\n"),
                   encoding="utf-8")
    code, out, err = run(capsys, "formality", str(bad), "--arity", "3")
    assert code == 3
    assert "FORMAL-UP-TO-3" not in out
    assert err.startswith(
        "internal error: arity-3 inclusion fails equivariance at "
        "('x1', 'x1', 'x1') under g: -6*u1 vs -9*u1")


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
    assert code == 2
    assert out == ""
    assert err == ("error: differential does not square to zero: "
                   "d(d(b)) = 2*dp\n")


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
