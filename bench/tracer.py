"""Per-layer tracing from outside the package.

``Tracer`` wraps public functions of each ``rabi_spectra`` module and rebinds
every name under which the package looks them up (``rabi_spectra.spectra.
sturm_count``, ``rabi_spectra.cli.collapse_scan``, ``JacobiParams.truncation``,
...), so no file of the package changes.  Each wrapper records calls, busy
time (the span's duration) and self time (busy time minus the time covered by
nested wrapped spans), plus a few counts read from the arguments and results.
``uninstall`` puts every original back.  A target missing from the package
(after a refactor, say) is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

PACKAGE_MODULES = (
    "rabi_spectra",
    "rabi_spectra.cli",
    "rabi_spectra.spectra",
    "rabi_spectra.models",
    "rabi_spectra.modulation",
    "rabi_spectra.tridiag",
)

# layer name -> (defining module, attribute path)
TARGETS = {
    "cli.main": ("rabi_spectra.cli", "main"),
    "spectra.collapse_scan": ("rabi_spectra.spectra", "collapse_scan"),
    "spectra.edge_density": ("rabi_spectra.spectra", "edge_density"),
    "spectra.spectrum_scan": ("rabi_spectra.spectra", "spectrum_scan"),
    "spectra.lowest_eigenvalues": ("rabi_spectra.spectra", "lowest_eigenvalues"),
    "models.decomposition_check": ("rabi_spectra.models", "decomposition_check"),
    "models.hamiltonian_matrix": ("rabi_spectra.models", "hamiltonian_matrix"),
    "models.predicted_phase": ("rabi_spectra.models", "predicted_phase"),
    "models.jacobi_params": ("rabi_spectra.models", "jacobi_params"),
    "models.truncation": ("rabi_spectra.models", "JacobiParams.truncation"),
    "modulation.monodromy": ("rabi_spectra.modulation", "monodromy"),
    "modulation.edge_indicator": ("rabi_spectra.modulation", "edge_indicator"),
    "tridiag.sturm_count": ("rabi_spectra.tridiag", "sturm_count"),
    "tridiag.eigenvalues_bisect": ("rabi_spectra.tridiag", "eigenvalues_bisect"),
}

# (metric, unit) reported by a traced run, in BENCHMARK.json order
PER_LAYER_METRICS = (
    ("tridiag.sturm_count.calls", "count"),
    ("tridiag.sturm_count.busy_s", "s"),
    ("tridiag.sturm_count.rows", "count"),
    ("tridiag.sturm_count.rows_per_s", "1/s"),
    ("tridiag.eigenvalues_bisect.calls", "count"),
    ("tridiag.eigenvalues_bisect.busy_s", "s"),
    ("tridiag.eigenvalues_bisect.eigs", "count"),
    ("tridiag.eigenvalues_bisect.eigs_per_s", "1/s"),
    ("tridiag.stebz_ref_s", "s"),
    ("tridiag.vs_stebz_x", "x"),
    ("spectra.lowest_eigenvalues.calls", "count"),
    ("spectra.lowest_eigenvalues.self_s", "s"),
    ("spectra.lowest_eigenvalues.useful_ratio", "ratio"),
    ("spectra.collapse_scan.calls", "count"),
    ("spectra.collapse_scan.self_s", "s"),
    ("spectra.collapse_scan.points", "count"),
    ("spectra.collapse_scan.kept_ratio", "ratio"),
    ("spectra.edge_density.self_s", "s"),
    ("spectra.spectrum_scan.self_s", "s"),
    ("models.truncation.calls", "count"),
    ("models.truncation.busy_s", "s"),
    ("models.truncation.rows", "count"),
    ("models.jacobi_params.busy_s", "s"),
    ("models.predicted_phase.calls", "count"),
    ("models.predicted_phase.self_s", "s"),
    ("models.hamiltonian_matrix.busy_s", "s"),
    ("models.decomposition_check.self_s", "s"),
    ("modulation.monodromy.calls", "count"),
    ("modulation.monodromy.busy_s", "s"),
    ("modulation.edge_indicator.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.exit_nonzero", "count"),
    ("trace.overhead_x", "x"),
)


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def _resolve(module: str, path: str):
    """(owner, attribute name, object) of a dotted attribute, or None if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


class Tracer:
    def __init__(self):
        self.stats = {layer: LayerStats() for layer in TARGETS}
        self.absent: list[str] = []
        # id(section) -> [section, lo, hi, tol]: the union of the windows queried
        # on one finite section, for the LAPACK stebz reference
        self.queries: dict[int, list] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for layer, (module, path) in TARGETS.items():
            found = _resolve(module, path)
            if found is None:
                self.absent.append(layer)
                continue
            owner, name, original = found
            wrapper = self._wrap(layer, original)
            if "." in path:  # a method: rebind it on its class
                self._patch(owner, name, original, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)

    def restored(self) -> bool:
        return all(getattr(owner, name) is original for owner, name, original in self._patches)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        stats = self.stats[layer]
        probe = getattr(self, "_probe_" + layer.split(".")[-1], None)
        stack = self._stack
        bisect_stats = self.stats["tridiag.eigenvalues_bisect"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            mark = bisect_stats.counts.get("eigs", 0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:
                if exc.code not in (0, None):
                    stats.add("exit_nonzero", 1)
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.busy_s += dt
                stats.self_s += dt - frame[0]
            if probe is not None:
                probe(stats, args, kwargs, result, mark)
            return result

        return wrapper

    def _query(self, section, lo: float, hi: float, tol: float | None) -> None:
        q = self.queries.setdefault(id(section), [section, lo, hi, None])
        q[1], q[2] = min(q[1], lo), max(q[2], hi)
        if tol is not None:
            q[3] = tol if q[3] is None else min(q[3], tol)

    def _probe_sturm_count(self, stats, args, kwargs, result, mark) -> None:
        section = args[0] if args else kwargs["m"]
        lam = float(args[1] if len(args) > 1 else kwargs["lam"])
        stats.add("rows", section.n_max)
        self._query(section, lam, lam, None)

    def _probe_eigenvalues_bisect(self, stats, args, kwargs, result, mark) -> None:
        stats.add("eigs", len(result))
        section = args[0] if args else kwargs["m"]
        if result.window is not None:
            self._query(section, result.window[0], result.window[1], result.tol)

    def _probe_lowest_eigenvalues(self, stats, args, kwargs, result, mark) -> None:
        stats.add("useful", len(result))
        stats.add("bisected", self.stats["tridiag.eigenvalues_bisect"].counts.get("eigs", 0) - mark)

    def _probe_collapse_scan(self, stats, args, kwargs, result, mark) -> None:
        points = len(result.couplings)
        stats.add("points", points)
        stats.add("kept", sum(len(s) for s in result.spectra))
        stats.add("asked", result.k * points)

    def _probe_truncation(self, stats, args, kwargs, result, mark) -> None:
        stats.add("rows", result.n_max)

    def _probe_main(self, stats, args, kwargs, result, mark) -> None:
        if result != 0:
            stats.add("exit_nonzero", 1)

    # -- report ---------------------------------------------------------------

    def stebz_reference(self, stebz_seconds) -> float:
        """Total LAPACK stebz time over the recorded queries, one per finite section.

        A section queried only by single-shift Sturm counts gets a count-only
        query (tolerance as wide as its window), one queried by bisection the
        bisection's own tolerance.
        """
        total = 0.0
        for section, lo, hi, tol in self.queries.values():
            total += stebz_seconds(section.diag, section.offdiag, lo, hi,
                                   tol if tol is not None else max(hi - lo, 1.0))
        return total

    def metrics(self, stebz_ref_s: float, overhead_x: float) -> dict[str, float]:
        s = self.stats

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        sturm, bisect = s["tridiag.sturm_count"], s["tridiag.eigenvalues_bisect"]
        lowest, collapse = s["spectra.lowest_eigenvalues"], s["spectra.collapse_scan"]
        trunc, main = s["models.truncation"], s["cli.main"]
        values = {
            "tridiag.sturm_count.calls": sturm.calls,
            "tridiag.sturm_count.busy_s": sturm.busy_s,
            "tridiag.sturm_count.rows": sturm.counts.get("rows", 0),
            "tridiag.sturm_count.rows_per_s": ratio(sturm.counts.get("rows", 0), sturm.busy_s),
            "tridiag.eigenvalues_bisect.calls": bisect.calls,
            "tridiag.eigenvalues_bisect.busy_s": bisect.busy_s,
            "tridiag.eigenvalues_bisect.eigs": bisect.counts.get("eigs", 0),
            "tridiag.eigenvalues_bisect.eigs_per_s": ratio(bisect.counts.get("eigs", 0),
                                                           bisect.busy_s),
            "tridiag.stebz_ref_s": stebz_ref_s,
            "tridiag.vs_stebz_x": ratio(sturm.busy_s + bisect.busy_s, stebz_ref_s),
            "spectra.lowest_eigenvalues.calls": lowest.calls,
            "spectra.lowest_eigenvalues.self_s": lowest.self_s,
            "spectra.lowest_eigenvalues.useful_ratio": ratio(lowest.counts.get("useful", 0),
                                                             lowest.counts.get("bisected", 0)),
            "spectra.collapse_scan.calls": collapse.calls,
            "spectra.collapse_scan.self_s": collapse.self_s,
            "spectra.collapse_scan.points": collapse.counts.get("points", 0),
            "spectra.collapse_scan.kept_ratio": ratio(collapse.counts.get("kept", 0),
                                                      collapse.counts.get("asked", 0)),
            "spectra.edge_density.self_s": s["spectra.edge_density"].self_s,
            "spectra.spectrum_scan.self_s": s["spectra.spectrum_scan"].self_s,
            "models.truncation.calls": trunc.calls,
            "models.truncation.busy_s": trunc.busy_s,
            "models.truncation.rows": trunc.counts.get("rows", 0),
            "models.jacobi_params.busy_s": s["models.jacobi_params"].busy_s,
            "models.predicted_phase.calls": s["models.predicted_phase"].calls,
            "models.predicted_phase.self_s": s["models.predicted_phase"].self_s,
            "models.hamiltonian_matrix.busy_s": s["models.hamiltonian_matrix"].busy_s,
            "models.decomposition_check.self_s": s["models.decomposition_check"].self_s,
            "modulation.monodromy.calls": s["modulation.monodromy"].calls,
            "modulation.monodromy.busy_s": s["modulation.monodromy"].busy_s,
            "modulation.edge_indicator.busy_s": s["modulation.edge_indicator"].busy_s,
            "cli.main.calls": main.calls,
            "cli.main.self_s": main.self_s,
            "cli.main.exit_nonzero": main.counts.get("exit_nonzero", 0),
            "trace.overhead_x": overhead_x,
        }
        assert list(values) == [name for name, _ in PER_LAYER_METRICS]
        return values
