"""The traced run's wrappers: counted, restored, and tolerant of missing names."""

import numpy as np

import rabi_spectra.spectra as spectra
import rabi_spectra.tridiag as tridiag
import tracer
from rabi_spectra import SymTridiag
from rabi_spectra.models import JacobiParams


def test_wrappers_count_and_are_restored():
    originals = (spectra.sturm_count, tridiag.sturm_count, JacobiParams.truncation)
    m = SymTridiag(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5]))
    t = tracer.Tracer()
    with t:
        assert spectra.sturm_count is not originals[0]
        assert spectra.sturm_count(m, 1.5) == tridiag.sturm_count(m, 1.5)
    assert (spectra.sturm_count, tridiag.sturm_count, JacobiParams.truncation) == originals
    assert t.restored() and not t.absent
    metrics = t.metrics(stebz_ref_s=0.0, overhead_x=1.0)
    assert metrics["tridiag.sturm_count.calls"] == 2
    assert metrics["tridiag.sturm_count.rows"] == 6
    assert [name for name, _ in tracer.PER_LAYER_METRICS] == list(metrics)


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "spectra.gone", ("rabi_spectra.spectra", "gone"))
    t = tracer.Tracer()
    with t:
        pass
    assert t.absent == ["spectra.gone"]
    assert t.restored()
