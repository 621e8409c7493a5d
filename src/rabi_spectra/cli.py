"""Command-line front-end.

Emits deterministic CSV or JSON: fixed sector order, shortest round-trip
float formatting, no timestamps.  Run metadata is confined to a single
comment header line (CSV) or a "meta" object (JSON).

Exit codes: 0 success, 1 usage or parameter-validation errors, 2 regime
errors (degenerate parameters, unsupported classification regimes, and
parameters where float64 cannot confirm the closed-form edge).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from dataclasses import fields
from typing import Sequence

import numpy as np

from .modulation import (
    DegenerateIndicatorError,
    PhaseKind,
    PhaseStateError,
    UnsupportedRegimeError,
)
from .models import (
    MODEL_TYPES,
    DegenerateParameterError,
    IndicatorMismatchError,
    ModelSpec,
    SectorLabel,
    decomposition_check,
    jacobi_params,
    predicted_phase,
    sectors,
)
from .spectra import collapse_scan, edge_density, spectrum_scan

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REGIME = 2

_REGIME_ERRORS = (
    UnsupportedRegimeError,
    DegenerateParameterError,
    DegenerateIndicatorError,
    PhaseStateError,
    IndicatorMismatchError,
)

# larger inputs are rejected before any list or matrix is built
MAX_GRID_POINTS = 10_000
MAX_PARAMS_ROWS = 1_000_000
MAX_CUTOFF = 1_000_000
# verify-decomp builds a dense (2 cutoff) x (2 cutoff) matrix
MAX_DENSE_CUTOFF = 2_000

_MODELS = {cls.name: cls for cls in MODEL_TYPES}
# parameter names per model, in dataclass field order (also the meta order)
_FIELDS = {name: tuple(f.name for f in fields(cls)) for name, cls in _MODELS.items()}
# the value 'critical' of an option stands for exactly this
_CRITICAL = {"g": 0.5, "kappa": 1.0}
_DEFAULTS = {"delta": 0.0}


def _param_help(param: str) -> str:
    takers = ", ".join(name for name, names in _FIELDS.items() if param in names)
    preset = f"; 'critical' for exactly {_CRITICAL[param]}" if param in _CRITICAL else ""
    default = f" (default {_DEFAULTS[param]})" if param in _DEFAULTS else ""
    return f"parameter {param} of: {takers}{preset}{default}"


# one option per parameter of any model (g, delta, kappa, g_plus, g_minus), with its help
_PARAMS = {p: _param_help(p) for names in _FIELDS.values() for p in names}

# argparse before Python 3.12 takes -1e-05 for an option flag
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse exits 2 on usage errors by default; this tool reserves 2 for
    # regime errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _flag(param: str) -> str:
    return "--" + param.replace("_", "-")


def _number(param: str, text: str | float) -> float:
    if text == "critical" and param in _CRITICAL:
        return _CRITICAL[param]
    try:
        return float(text)
    except ValueError:
        expected = "a number or 'critical'" if param in _CRITICAL else "a number"
        raise ValueError(f"{_flag(param)} expects {expected}, got {text!r}")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=tuple(_MODELS),
                   help="which Hamiltonian to analyse")
    for param, text in _PARAMS.items():
        p.add_argument(_flag(param), default=_DEFAULTS.get(param), help=text)
    p.add_argument(
        "--on-circle",
        action="store_true",
        help="rabi-stark: derive g from kappa so that kappa^2 + 4 g^2 = 1",
    )


def _build_model(args: argparse.Namespace, **given: float) -> ModelSpec:
    """The --model instance from its parameter options.

    ``given`` supplies parameters that do not come from an option (the
    collapse grid's coupling); a model without such a field ignores it.
    Options for parameters the model does not have are rejected.
    """
    name = args.model
    for param in _PARAMS:
        if param not in _FIELDS[name] and getattr(args, param) is not None:
            raise ValueError(f"the {name} model does not take {_flag(param)}")
    if args.on_circle:
        if name != "rabi-stark":
            raise ValueError("--on-circle applies to the rabi-stark model only")
        if args.g is not None:
            raise ValueError("--on-circle derives g from kappa; drop --g")
        if args.kappa is None:
            raise ValueError("--on-circle requires --kappa")
        kap = _number("kappa", args.kappa)
        if abs(kap) >= 1.0:
            raise ValueError("--on-circle requires |kappa| < 1")
        given["g"] = float(np.sqrt(1.0 - kap * kap) / 2.0)
    missing = [_flag(p) for p in _FIELDS[name] if p not in given and getattr(args, p) is None]
    if missing:
        raise ValueError(f"{name} model requires {' and '.join(missing)}")
    return _MODELS[name](**{
        p: given[p] if p in given else _number(p, getattr(args, p)) for p in _FIELDS[name]
    })


def _select_sectors(model: ModelSpec, text: str) -> tuple[SectorLabel, ...]:
    if text == "all":
        return sectors(model)
    label = SectorLabel.parse(text)
    if label not in sectors(model):
        raise ValueError(f"sector {label} does not exist for the {model.name} model")
    return (label,)


def _one_sector(model: ModelSpec, text: str) -> SectorLabel:
    # the default is the + sector of photon parity 0 (plain + for step-1 chains)
    return sectors(model)[1] if text == "default" else _select_sectors(model, text)[0]


def _parse_index_range(text: str) -> range:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty index range {text!r}")
    else:
        lo = hi = int(text)
    if hi - lo >= MAX_PARAMS_ROWS:
        raise ValueError(f"--n {text!r} spans more than {MAX_PARAMS_ROWS} indices")
    limits = np.iinfo(np.int64)
    if lo < limits.min or hi > limits.max:
        raise ValueError(f"--n {text!r} holds an index outside [{limits.min}, {limits.max}]")
    return range(lo, hi + 1)


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be start:stop:step or a comma-separated list")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        count = np.floor((stop - start) / step + 1e-9) + 1
        if count < 1:
            raise ValueError(f"grid {text!r} contains no points")
        if not count <= MAX_GRID_POINTS:
            raise ValueError(f"--grid {text!r} has more than {MAX_GRID_POINTS} points")
        return [start + step * i for i in range(int(count))]
    grid = [float(p) for p in text.split(",") if p]
    if not grid:
        raise ValueError(f"--grid {text!r} contains no points")
    if len(grid) > MAX_GRID_POINTS:
        raise ValueError(f"--grid has more than {MAX_GRID_POINTS} points")
    return grid


def _check_cutoff(cutoff: int, limit: int = MAX_CUTOFF, option: str = "--cutoff") -> None:
    if cutoff > limit:
        raise ValueError(f"{option} {cutoff} is above the limit of {limit}")


def _parse_cutoffs(text: str) -> tuple[int, ...]:
    cutoffs = tuple(int(p) for p in text.split(",") if p)
    for c in cutoffs:
        _check_cutoff(c, option="--cutoffs")
    return cutoffs


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _jsonable(value):
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"cannot serialise {value!r}")


def _emit(meta: dict, header: list[str], rows: list[list], args: argparse.Namespace) -> None:
    if args.format == "json":
        payload = {
            "meta": {k: _jsonable(v) for k, v in meta.items()},
            "rows": [
                {k: _jsonable(v) for k, v in zip(header, row)} for row in rows
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        meta_line = " ".join(f"{k}={_cell(v)}" for k, v in meta.items())
        buf.write(f"# {meta_line}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        # rows hold plain Python values: csv writes a float by repr and None
        # as "", as _cell does
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _model_meta(model: ModelSpec) -> dict:
    return {"model": model.name, **{f.name: getattr(model, f.name) for f in fields(model)}}


def cmd_classify(args: argparse.Namespace) -> int:
    model = _build_model(args)
    header = [
        "model", "sector", "trace", "kind", "clause",
        "indicator_c1", "indicator_c0", "endpoint", "direction",
    ]
    rows = []
    for sector in _select_sectors(model, args.sector):
        report = predicted_phase(model, sector)
        ind, hl = report.indicator, report.essential_spectrum
        rows.append([
            model.name, str(sector), report.trace, report.kind.value, report.notes,
            ind.c1 if ind else None, ind.c0 if ind else None,
            hl.endpoint if hl else None, hl.direction if hl else None,
        ])
    meta = {"command": "classify", **_model_meta(model)}
    _emit(meta, header, rows, args)
    return EXIT_OK


def cmd_params(args: argparse.Namespace) -> int:
    model = _build_model(args)
    indices = _parse_index_range(args.n)
    header = ["model", "sector", "n", "a", "b"]
    rows = []
    idx = np.array(indices, dtype=np.int64)
    for sector in _select_sectors(model, args.sector):
        params = jacobi_params(model, sector)
        # one array call per rule: the entries of a call per index, bit for bit
        rows += ([model.name, str(sector), n, a, b]
                 for n, a, b in zip(indices, params.a(idx).tolist(), params.b(idx).tolist()))
    meta = {"command": "params", **_model_meta(model), "n": args.n}
    _emit(meta, header, rows, args)
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    _check_cutoff(args.cutoff)
    model = _build_model(args)
    window = (args.window[0], args.window[1]) if args.window else None
    header = ["model", "sector", "index", "eigenvalue"]
    rows = []
    for sector in _select_sectors(model, args.sector):
        params = jacobi_params(model, sector)
        spec = spectrum_scan(params, args.cutoff, window=window, tol=args.tol)
        label = str(sector)
        rows += ([model.name, label, i, ev] for i, ev in enumerate(spec.eigenvalues.tolist()))
    meta = {"command": "spectrum", **_model_meta(model), "cutoff": args.cutoff}
    if window is not None:
        meta.update(window_lo=window[0], window_hi=window[1])
    _emit(meta, header, rows, args)
    return EXIT_OK


def cmd_collapse(args: argparse.Namespace) -> int:
    for opt in ("g", "on_circle"):
        if getattr(args, opt):
            raise ValueError(f"collapse takes the coupling from --grid; drop {_flag(opt)}")
    grid = _parse_grid(args.grid)
    _check_cutoff(args.cutoff)
    # the scan holds one section per grid point
    if len(grid) * args.cutoff > MAX_CUTOFF:
        raise ValueError(
            f"--grid points x --cutoff = {len(grid)} x {args.cutoff} section rows "
            f"is above the limit of {MAX_CUTOFF}"
        )
    base = _build_model(args, g=grid[0])
    sector = _one_sector(base, args.sector)
    scan = collapse_scan(base.with_coupling, grid, sector, args.cutoff, args.lowest)
    for g, flag in zip(scan.couplings, scan.nondiscrete):
        if flag:
            print(
                f"warning: coupling {float(g)!r} is not in the purely discrete regime; "
                "its gap statistics do not measure discrete-spectrum spacings",
                file=sys.stderr,
            )
    header = ["g", "mean_gap", "min_gap"]
    rows = [
        [float(g), float(mg), float(ng)]
        for g, mg, ng in zip(scan.couplings, scan.mean_gaps, scan.min_gaps)
    ]
    meta = {
        "command": "collapse", "model": base.name, "delta": base.delta,
        "sector": str(sector), "cutoff": args.cutoff, "k": args.lowest,
    }
    _emit(meta, header, rows, args)
    return EXIT_OK


def cmd_edge(args: argparse.Namespace) -> int:
    model = _build_model(args)
    sector = _one_sector(model, args.sector)
    report = predicted_phase(model, sector)
    if report.kind is not PhaseKind.CRITICAL_HALF_LINE:
        raise PhaseStateError(
            f"edge accumulation requires a critical parameter set; clause {report.notes!r} "
            f"gives {report.kind.value}"
        )
    params = jacobi_params(model, sector)
    cutoffs = _parse_cutoffs(args.cutoffs)
    density = edge_density(params, report, cutoffs, args.window_width)
    header = ["cutoff", "essential_count", "complementary_count"]
    rows = [
        [c, e, x]
        for c, e, x in zip(density.cutoffs, density.essential_counts,
                           density.complementary_counts)
    ]
    meta = {
        "command": "edge", **_model_meta(model), "sector": str(sector),
        "endpoint": density.endpoint, "direction": density.direction,
        "window_width": density.window_width,
    }
    _emit(meta, header, rows, args)
    return EXIT_OK


def cmd_verify_decomp(args: argparse.Namespace) -> int:
    _check_cutoff(args.cutoff, MAX_DENSE_CUTOFF)
    model = _build_model(args)
    check = decomposition_check(model, args.cutoff)
    header = ["cutoff", "max_deviation", "max_block", "max_boundary", "max_cross"]
    rows = [[args.cutoff, check.max_deviation, check.max_block,
             check.max_boundary, check.max_cross]]
    meta = {"command": "verify-decomp", **_model_meta(model)}
    _emit(meta, header, rows, args)
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing reads the parser and never writes it (each ``parse_args`` makes a
    fresh namespace), so repeated ``main`` calls in one process reuse it.
    """
    parser = _Parser(
        prog="rabi-spectra",
        description=(
            "Reduce Rabi-type Hamiltonians to Jacobi operators, classify their "
            "spectral phase, and cross-check the predictions on finite sections."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, sector_default: str = "all") -> None:
        _add_model_args(p)
        p.add_argument("--sector", default=sector_default,
                       help=f"sector label or 'all' (default {sector_default})")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("classify", help="phase table, one row per sector")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("params", help="table of Jacobi parameters a(n), b(n)")
    common(p)
    p.add_argument("--n", default="0..9", help="index or inclusive range lo..hi (default 0..9)")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("spectrum", help="windowed eigenvalues of a finite section")
    common(p)
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--window", nargs=2, type=float, metavar=("LO", "HI"),
                   help="restrict to eigenvalues in [LO, HI) (default: full spectrum)")
    p.add_argument("--tol", type=float, help="bisection half-width tolerance")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("collapse", help="gap statistics along a coupling grid")
    common(p, sector_default="default")
    p.add_argument("--grid", required=True,
                   help="start:stop:step or comma list of couplings; the grid value "
                        "replaces g (anisotropic: the mean coupling, anisotropy fixed)")
    p.add_argument("--cutoff", type=int, default=400)
    p.add_argument("-k", "--lowest", type=int, default=20,
                   help="number of lowest eigenvalues per grid point (default 20)")
    p.set_defaults(fn=cmd_collapse)

    p = sub.add_parser("edge", help="eigenvalue counts near the predicted spectral edge")
    common(p, sector_default="default")
    p.add_argument("--cutoffs", default="200,400,800", help="comma list (default 200,400,800)")
    p.add_argument("--window-width", type=float, default=5.0)
    p.set_defaults(fn=cmd_edge)

    p = sub.add_parser("verify-decomp",
                       help="entrywise check that sector reordering block-diagonalises")
    common(p)
    p.add_argument("--cutoff", type=int, default=200)
    p.set_defaults(fn=cmd_verify_decomp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _REGIME_ERRORS as exc:
        print(f"rabi-spectra: regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except ValueError as exc:
        print(f"rabi-spectra: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
