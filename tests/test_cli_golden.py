"""Pinned CLI bytes: exact stdout and exit code of a fixed argv list.

``data/cli_golden.json`` was captured once from the CLI and is never
regenerated: a change to any pinned byte is a behaviour change.  The list
holds the README examples, every subcommand for each model (CSV and JSON),
the ``critical`` and ``--on-circle`` presets, and invalid inputs, for which
only the exit code and a substring of stderr naming the offending option are
pinned.  Replay is in-process through ``cli.main`` so the suite stays fast.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from rabi_spectra import cli

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", GOLDEN["outputs"], ids=lambda c: " ".join(c["argv"]))
def test_stdout_is_pinned(case):
    code, out, err = run_main(case["argv"])
    assert code == case["exit"], err
    assert out == case["stdout"]


@pytest.mark.parametrize("case", GOLDEN["errors"], ids=lambda c: " ".join(c["argv"]))
def test_error_exit_and_message(case):
    code, out, err = run_main(case["argv"])
    assert code == case["exit"]
    assert out == ""
    assert case["stderr_has"] in err
