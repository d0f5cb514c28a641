"""Every CLI document of a fixed argv list, pinned byte for byte with its exit code.

The fixture `cli_documents.json` holds, for each argv below, the stdout and
exit code of `ellmult.cli.main`, which reads argv and nothing else.  A change
that means to alter a document rewrites the fixture with

    PYTHONPATH=src python tests/test_cli_documents.py

and the diff of the fixture shows every byte it changed.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellmult import cli

FIXTURE = Path(__file__).with_name("cli_documents.json")
ENTRIES = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []

CURVE = ["--A", "-25", "--B", "0"]
POINTS = (["--x", "45", "--y", "300"], ["--x", "-4", "--y", "6"])
FORMATS = ("json", "text", "csv")

ARGV = (
    [
        [command, *CURVE, *point, *extra, "--format", fmt]
        for command, extra in (("analyze", ["--n-max", "5"]), ("eds", ["--n-max", "5"]), ("heights", []))
        for point in POINTS
        for fmt in FORMATS
    ]
    + [["periods", *CURVE, "--format", fmt] for fmt in FORMATS]
    + [
        ["congruent-table", "--N-max", "30", "--format", "json"],
        ["congruent-table", "--N-max", "30", "--format", "csv"],
        ["congruent-table", "--N-max", "29", "--x-max", "100"],
        ["analyze", *CURVE, "--x", "3", "--y", "3"],
        ["bounds", "no-such-bound"],
        ["bounds", "calculus", "--a", "4.1"],
        ["heights", *CURVE, "--x", "-4", "--y", "6", "--tol", "1e-30"],
    ]
)


def replay(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def test_fixture_covers_the_argv_list():
    assert [entry["argv"] for entry in ENTRIES] == ARGV


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_document_is_unchanged(entry):
    assert replay(entry["argv"]) == entry


def test_documents_ignore_the_environment(monkeypatch):
    # variables named like the settings, one of them malformed, change no document
    for name, value in (
        ("ELLMULT_FORMAT", "text"),
        ("ELLMULT_N_MAX", "3"),
        ("ELLMULT_TOL", "not-a-number"),
        ("ELLMULT_PRECISION_BITS", "256"),
        ("ELLMULT_X_MAX", "1"),
    ):
        monkeypatch.setenv(name, value)
    assert [replay(entry["argv"]) for entry in ENTRIES] == ENTRIES


def test_documents_need_no_sympy():
    # in a fresh interpreter where `import sympy` raises ImportError
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import json, sys; sys.modules['sympy'] = None; "
        "import test_cli_documents as t; print(json.dumps([t.replay(e['argv']) for e in t.ENTRIES]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": os.pathsep.join((src, str(FIXTURE.parent)))},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(done.stdout) == ENTRIES


if __name__ == "__main__":
    entries = [replay(argv) for argv in ARGV]
    FIXTURE.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} documents to {FIXTURE}")
