"""Shared test fixtures and the dense reference eigensolver.

The LAPACK-backed dense solver is the independent oracle for the library's
Sturm/bisection path; it is deliberately kept out of the package itself.
"""

from typing import NamedTuple

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from rabi_spectra import SymTridiag, spectra, tridiag


def dense_eigenvalues(m: SymTridiag) -> np.ndarray:
    """Independent dense reference (LAPACK QR-style tridiagonal solver)."""
    if m.offdiag.size == 0:
        return np.sort(np.asarray(m.diag, dtype=float))
    return eigh_tridiagonal(
        np.asarray(m.diag, dtype=float),
        np.asarray(m.offdiag, dtype=float),
        eigvals_only=True,
    )


def random_sym_tridiag(rng: np.random.Generator, n: int) -> SymTridiag:
    return SymTridiag(
        diag=rng.uniform(-3.0, 3.0, n),
        offdiag=rng.uniform(0.05, 2.0, n - 1) if n > 1 else np.empty(0),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


class SturmPass(NamedTuple):
    """One ``_sturm_counts`` call: the section or stack it counted, ``slopes`` and its shift count."""

    stack: object
    slopes: bool
    shifts: int


@pytest.fixture
def sturm_passes(monkeypatch) -> list[SturmPass]:
    """Records every ``_sturm_counts`` call that ``tridiag`` and ``spectra`` make during the test."""
    passes, sturm_counts = [], tridiag._sturm_counts

    def recording(m, lams, sizes=None, **kwargs):
        passes.append(SturmPass(m, kwargs.get("slopes", False), int(np.size(lams))))
        return sturm_counts(m, lams, sizes, **kwargs)

    monkeypatch.setattr(tridiag, "_sturm_counts", recording)
    monkeypatch.setattr(spectra, "_sturm_counts", recording)
    return passes
