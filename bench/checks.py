"""Correctness oracle for benchmark outputs.

Imported only after the timed section and after peak RSS is read, because it
pulls in scipy.  Each check returns None when the output is correct and a
one-line reason otherwise.  Eigenvalues are compared with LAPACK
(``scipy.linalg.eigh_tridiagonal``): the library's bisection brackets every
eigenvalue to half-width ``tol``, so a correct eigenvalue lies within
``2 tol`` of the reference, and a gap (difference of two eigenvalues) within
``4 tol``.  Edge counts are compared exactly with LAPACK ``stebz`` Sturm counts.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import time
from pathlib import Path

import numpy as np
from scipy.linalg import eigh_tridiagonal

from rabi_spectra import (
    AnisotropicTwoPhoton,
    IntensityDependent,
    SectorLabel,
    TwoPhoton,
    TwoPhotonRabiStark,
    classify,
    jacobi_params,
    monodromy,
    sectors,
)

GOLDEN_PATH = Path("tests") / "data" / "collapse_two_photon.csv"
# sha256 of the golden file, so that a regenerated golden file cannot pass
GOLDEN_SHA256 = "f95751bf85bfb36e1c28baaeb0e667aa28ba4cabadaa53c3509a550db4e0840a"
# acceptance criterion 3 (tests/test_acceptance.py): in-block deviation bound
DECOMP_TOL = 1e-12
# the closed-form endpoint and the printed one must agree this closely
ENDPOINT_TOL = 1e-9


def _model(name: str, p: dict, g: float | None = None):
    """The model the CLI builds for these arguments; ``g`` overrides the coupling."""
    if name == "anisotropic":
        if g is None:
            return AnisotropicTwoPhoton(g_plus=p["g_plus"], g_minus=p["g_minus"], delta=p["delta"])
        half_diff = (p["g_plus"] - p["g_minus"]) / 2.0
        return AnisotropicTwoPhoton(g_plus=g + half_diff, g_minus=g - half_diff, delta=p["delta"])
    if g is None:
        g = p.get("g", 0.5)
        if name == "rabi-stark" and "g" not in p:  # --on-circle
            g = float(np.sqrt(1.0 - p["kappa"] * p["kappa"]) / 2.0)
    if name == "two-photon":
        return TwoPhoton(g=g, delta=p["delta"])
    if name == "intensity":
        return IntensityDependent(g=g, delta=p["delta"], kappa=p["kappa"])
    return TwoPhotonRabiStark(g=g, delta=p["delta"], kappa=p["kappa"])


def _table(stdout: str) -> tuple[dict, list[dict]]:
    """(meta, rows) of the CLI's CSV output."""
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing meta line")
    meta = dict(item.split("=", 1) for item in lines[0][2:].split(" "))
    return meta, list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def _section(model, sector: str, cutoff: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(diag, offdiag, gershgorin lo, gershgorin hi) of the finite section."""
    m = jacobi_params(model, SectorLabel.parse(sector)).truncation(cutoff)
    d, e = np.asarray(m.diag), np.asarray(m.offdiag)
    radius = np.zeros(d.size)
    radius[:-1] += e
    radius[1:] += e
    return d, e, float(np.min(d - radius)), float(np.max(d + radius))


def _bisect_tol(glo: float, ghi: float) -> float:
    # the library's default_bisect_tol, restated
    return 1e-12 * max(1.0, abs(glo), abs(ghi))


def check_golden(stdout: str) -> str | None:
    try:
        golden = GOLDEN_PATH.read_bytes()
    except OSError as exc:
        return f"golden file unreadable: {exc}"
    if hashlib.sha256(golden).hexdigest() != GOLDEN_SHA256:
        return "golden file content changed"
    if stdout.encode() != golden:
        return "golden collapse output differs from the golden file"
    return None


def check_collapse(spec: dict, stdout: str, stderr: str) -> str | None:
    if stderr:
        return f"unexpected stderr: {stderr.strip()[:200]}"
    _, rows = _table(stdout)
    if [float(r["g"]) for r in rows] != spec["grid"]:
        return "grid column differs from the input grid"
    k = spec["k"]
    for g, row in zip(spec["grid"], rows):
        d, e, glo, ghi = _section(_model(spec["model"], spec["params"], g), spec["sector"],
                                  spec["cutoff"])
        ref = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, k - 1))
        ref = ref[ref <= glo + 0.9 * (ghi - glo)]
        gaps = np.diff(ref)
        gap_tol = 4.0 * _bisect_tol(glo, ghi)
        for name, want in (("mean_gap", float(np.mean(gaps))), ("min_gap", float(np.min(gaps)))):
            got = float(row[name])
            if not abs(got - want) <= gap_tol:
                return f"g={g!r}: {name} {got!r} vs LAPACK {want!r} (tol {gap_tol:.3g})"
    return None


def _closed_form_halfline(spec: dict) -> tuple[float, str]:
    """Essential half-line (endpoint, direction) from the README's closed forms."""
    p, case = spec["params"], spec["case"]
    if case in ("two-photon", "anisotropic-mean"):
        return -0.5, "up"
    if case == "intensity":
        return -p["kappa"], "up"
    if case == "anisotropic-diff":
        return -0.5, "down"
    if case == "rabi-stark-circle":
        kap = p["kappa"]
        return (kap**2 - 1.0 - kap * p["delta"]) / 2.0, "up"
    return -p["kappa"] * p["delta"] / 2.0, "down"


def _stebz_count(d: np.ndarray, e: np.ndarray, lo: float, hi: float) -> int:
    """Eigenvalues in (lo, hi] by LAPACK stebz; the count is exact whatever the tolerance."""
    return int(eigh_tridiagonal(d, e, eigvals_only=True, select="v", select_range=(lo, hi),
                                lapack_driver="stebz", tol=hi - lo).size)


def check_edge(spec: dict, stdout: str) -> str | None:
    meta, rows = _table(stdout)
    ep, direction = _closed_form_halfline(spec)
    if meta["direction"] != direction or not abs(float(meta["endpoint"]) - ep) <= ENDPOINT_TOL:
        return f"half-line {meta['endpoint']} {meta['direction']} vs closed form {ep!r} {direction}"
    model = _model(spec["model"], spec["params"])
    width = spec["width"]
    if [int(r["cutoff"]) for r in rows] != spec["cutoffs"]:
        return "cutoff column differs from the input ladder"
    ep = float(meta["endpoint"])
    for row in rows:
        d, e, _, _ = _section(model, spec["sector"], int(row["cutoff"]))
        below = _stebz_count(d, e, ep - width, ep)
        above = _stebz_count(d, e, ep, ep + width)
        want = (above, below) if direction == "up" else (below, above)
        got = (int(row["essential_count"]), int(row["complementary_count"]))
        if got != want:
            return f"cutoff {row['cutoff']}: counts {got} vs stebz {want}"
    return None


def check_spectrum(spec: dict, stdout: str) -> str | None:
    _, rows = _table(stdout)
    d, e, glo, ghi = _section(_model(spec["model"], spec["params"]), spec["sector"],
                              spec["cutoff"])
    ref = eigh_tridiagonal(d, e, eigvals_only=True)
    got = np.array([float(r["eigenvalue"]) for r in rows])
    if got.size != ref.size:
        return f"{got.size} eigenvalues vs LAPACK {ref.size}"
    tol = 2.0 * _bisect_tol(glo, ghi)
    worst = float(np.max(np.abs(got - ref))) if got.size else 0.0
    if not worst <= tol:
        return f"eigenvalue off LAPACK by {worst:.3g} (tol {tol:.3g})"
    return None


def check_classify(spec: dict, stdout: str) -> str | None:
    _, rows = _table(stdout)
    model = _model(spec["model"], spec["params"])
    labels = [str(s) for s in sectors(model)]
    if [r["sector"] for r in rows] != labels:
        return f"sectors {[r['sector'] for r in rows]} vs {labels}"
    if spec["critical"]:
        if any(r["kind"] != "critical-half-line" for r in rows):
            return "critical parameters not classified critical-half-line"
        return None
    for label, row in zip(sectors(model), rows):
        want = classify(monodromy(jacobi_params(model, label).modulation)).value
        if row["kind"] != want:
            return f"sector {label}: kind {row['kind']} vs monodromy trace {want}"
    return None


def check_params(spec: dict, stdout: str) -> str | None:
    _, rows = _table(stdout)
    model = _model(spec["model"], spec["params"])
    for row in rows:
        jp = jacobi_params(model, SectorLabel.parse(row["sector"]))
        n = int(row["n"])
        if float(row["a"]) != float(jp.a(n)) or float(row["b"]) != float(jp.b(n)):
            return f"sector {row['sector']} n={n}: printed a, b differ from jacobi_params"
    want_sectors = len(sectors(model)) if spec["sector"] == "all" else 1
    if len({r["sector"] for r in rows}) != want_sectors:
        return "wrong number of sectors"
    return None


def check_verify_decomp(spec: dict, stdout: str) -> str | None:
    _, rows = _table(stdout)
    (row,) = rows
    dev, cross = float(row["max_deviation"]), float(row["max_cross"])
    if not (dev <= DECOMP_TOL and cross == 0.0 and int(row["cutoff"]) == spec["cutoff"]):
        return f"max_deviation {dev!r}, max_cross {cross!r}"
    return None


def check_op(spec: dict, rc: int, stdout: str, stderr: str) -> str | None:
    """None if the invocation's exit code and output are correct, else a reason."""
    kind = spec["kind"]
    if kind == "invalid":
        if rc != spec["exit"] or stdout or not stderr:
            return f"invalid input gave exit {rc} (want {spec['exit']}), stdout {len(stdout)} bytes"
        return None
    if rc != 0:
        return f"exit {rc}: {stderr.strip()[:200]}"
    try:
        if kind == "golden":
            return check_golden(stdout)
        if kind == "collapse":
            return check_collapse(spec, stdout, stderr)
        if kind == "edge":
            return check_edge(spec, stdout)
        if kind == "spectrum":
            return check_spectrum(spec, stdout)
        if kind == "classify":
            return check_classify(spec, stdout)
        if kind == "params":
            return check_params(spec, stdout)
        return check_verify_decomp(spec, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"


def stebz_seconds(d: np.ndarray, e: np.ndarray, lo: float, hi: float, tol: float) -> float:
    """Wall time of LAPACK stebz answering the windowed query (lo, hi] to ``tol``."""
    if not hi > lo:
        hi = math.nextafter(lo, math.inf)
    t0 = time.perf_counter()
    eigh_tridiagonal(d, e, eigvals_only=True, select="v", select_range=(lo, hi),
                     lapack_driver="stebz", tol=tol)
    return time.perf_counter() - t0
