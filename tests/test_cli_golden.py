"""Pinned CLI bytes: exact stdout and exit code of a fixed argv list.

``data/cli_golden.json`` was captured once from the CLI and is never
regenerated: a change to any pinned byte is a behaviour change.  The list
holds the README examples, every subcommand for each model (CSV and JSON),
the ``critical`` and ``--on-circle`` presets, and invalid inputs, for which
only the exit code and a substring of stderr naming the offending option are
pinned.  Replay is in-process through ``cli.main`` so the suite stays fast.

One deliberate re-pin: the traces of three anisotropic ``classify`` outputs
(g+ 0.8 / g- 0.3 as CSV and as JSON, and g+ 1.3 / g- 0.3) carried the last
bit of one BLAS kernel's fused multiply-add.  The period products now follow
one rule in Python arithmetic, and those outputs were re-pinned to its bytes,
which are the bytes the earlier code printed under a non-FMA kernel.  The
``classify`` cases are also run under two OpenBLAS kernels, which must print
the same bytes.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rabi_spectra
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


# run in a child process: argv lists on stdin; out a 2 x 2 matmul probe and each stdout
_CHILD = """
import contextlib, io, json, sys
import numpy as np
from rabi_spectra import cli

# x * x rounds to 1 + 2^-26, so the entry is 0 when each product is rounded
# and 2^-54 when x * x is fused with the other; the product sits first, then second
x, y = 1.0 + 2.0 ** -27, -(1.0 + 2.0 ** -26)
probe = [float((np.array([[a, b], [0.0, 0.0]]) @ np.array([[c, 0.0], [d, 0.0]]))[0, 0])
         for a, b, c, d in ((1.0, x, y, x), (x, 1.0, x, y))]
outs = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:  # a usage error
            pass
    outs.append(out.getvalue())
json.dump({"probe": probe, "stdout": outs}, sys.stdout)
"""


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # numpy before 1.26 has no dicts mode
        return "unknown"


def _cpu_has(*features: str) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return all(__cpu_features__.get(f, False) for f in features)


def _run_under(coretype: str, argvs: list) -> dict:
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(rabi_spectra.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(argvs),
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_classify_bytes_do_not_depend_on_the_blas_kernel():
    """Haswell's dgemm kernel fuses multiply-adds and Prescott's does not;
    the pinned ``classify`` argv lists must print the same bytes under both."""
    if "openblas" not in _blas_name().lower():
        pytest.skip(f"numpy's BLAS is {_blas_name()!r}, not OpenBLAS, so "
                    "OPENBLAS_CORETYPE selects no kernel")
    if not _cpu_has("AVX2", "FMA3"):
        pytest.skip("this CPU cannot run OpenBLAS's Haswell kernel (no AVX2 or FMA3)")
    argvs = [case["argv"] for case in GOLDEN["outputs"] + GOLDEN["errors"]
             if case["argv"][0] == "classify"]
    fused, plain = _run_under("Haswell", argvs), _run_under("Prescott", argvs)
    if fused["probe"] == plain["probe"]:
        pytest.skip("OPENBLAS_CORETYPE did not change how numpy's 2 x 2 matmul rounds "
                    f"(both kernels gave {fused['probe']}); this OpenBLAS may not be "
                    "built with DYNAMIC_ARCH")
    assert len(argvs) >= 20
    for argv, a, b in zip(argvs, fused["stdout"], plain["stdout"]):
        assert a == b, argv
