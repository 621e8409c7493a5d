"""Pinned bytes of `collapse` runs at the benchmark's seeded size.

``data/collapse_digests.json`` holds, for 16 ``collapse`` runs on two grid
points at cutoff 300 and k 15, the SHA-256 of ``json.dumps([exit code,
stdout, stderr])``.  The runs cover every sector of two-photon, intensity,
anisotropic and Rabi-Stark models, a wide two-photon grid and one grid
point on the critical coupling, whose warning goes to stderr.  They were
captured once before the row-dominance certificate and are never
regenerated: however the stacked passes find them, the gaps keep their bits.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from rabi_spectra import cli

CASES = json.loads((Path(__file__).parent / "data" / "collapse_digests.json").read_text())["cases"]


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"][2:]))
def test_collapse_bytes(case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(case["argv"])
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    assert hashlib.sha256(blob.encode()).hexdigest() == case["sha256"]
