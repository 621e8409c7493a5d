"""Pinned bytes of full 1000-row spectra.

``data/spectrum_digests.json`` holds the SHA-256 of the stdout of
``spectrum --cutoff 1000`` for every sector of two-photon (g 0.3 and 0.45),
anisotropic (g+ 0.6, g- 0.2, delta 2), Rabi-Stark (g 0.3, kappa 0.5) and
intensity (g 0.3, kappa 1) models, delta 1 where not given.  They were
captured once from the speculative count-pass bisection, whose bytes are
the one-level loop's, and are never regenerated: every eigenvalue of a
full spectrum, however the solve finds it, must keep its bits.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from rabi_spectra import cli

CASES = json.loads((Path(__file__).parent / "data" / "spectrum_digests.json").read_text())["cases"]


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"][2:]))
def test_full_spectrum_bytes(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(case["argv"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == case["sha256"]
