"""Structured output of every subcommand on the bundled documents, pinned.

Each golden file under ``tests/golden/`` holds the exit code and the
``--format structured`` report of one command line, with the
informational ``seconds`` field stripped.  A faster evaluation strategy
must leave every one of them byte-identical.

To regenerate after an intended change of output::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
import threading
from pathlib import Path

import pytest

from gradedlie.cli import main
from gradedlie.documents import bundled_documents

GOLDEN = Path(__file__).resolve().parent / "golden"

_COMMANDS = (
    ("validate",),
    ("cohomology",),
    ("transfer",),
    ("transfer", "--arity", "5"),
    ("massey",),
    ("formality",),
    ("formality", "--arity", "2"),
    ("formality", "--arity", "6"),
)


def _cases():
    """(golden file stem, document name or None, argv without the file)."""
    cases = []
    for name, _ in bundled_documents():
        for command in _COMMANDS:
            stem = "-".join([name, command[0]] + [a.lstrip("-")
                                                  for a in command[1:]])
            cases.append((stem, name, command))
    cases.append(("corpus", None, ("corpus",)))
    return cases


def _outcome(name, command, files) -> str:
    """The exit code and the structured report, ``seconds`` stripped."""
    argv = [command[0]] + ([files[name]] if name else []) + list(command[1:])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "structured"])
    report = json.loads(out.getvalue())
    del report["seconds"]
    return json.dumps({"exit_code": code, "report": report},
                      sort_keys=True, indent=2) + "\n"


def _write_documents(root: Path) -> dict:
    paths = {}
    for name, text in bundled_documents():
        path = root / f"{name}.alg"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


@pytest.fixture(scope="module")
def document_files(tmp_path_factory):
    return _write_documents(tmp_path_factory.mktemp("golden-docs"))


@pytest.mark.parametrize("stem,name,command", _cases(),
                         ids=[stem for stem, _, _ in _cases()])
def test_structured_output_matches_golden(stem, name, command, document_files):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert _outcome(name, command, document_files) == expected


def test_every_subcommand_runs_without_starting_a_thread(document_files,
                                                          monkeypatch):
    def refuse(self):
        raise RuntimeError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for stem, name, command in _cases():
        expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
        assert _outcome(name, command, document_files) == expected, stem


def test_an_arity_option_does_not_stick_to_the_next_call(document_files):
    # the parser is built once per process; each call starts from defaults
    _outcome("nocontraction", ("transfer", "--arity", "5"), document_files)
    expected = (GOLDEN / "nocontraction-transfer.json").read_text(
        encoding="utf-8")
    assert _outcome("nocontraction", ("transfer",), document_files) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        files = _write_documents(Path(tmp))
        for stem, name, command in _cases():
            (GOLDEN / f"{stem}.json").write_text(
                _outcome(name, command, files), encoding="utf-8")
            print(f"wrote {stem}.json")
