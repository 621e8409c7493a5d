"""Command-line front-end.

Emits deterministic CSV or JSON: fixed sector order, shortest round-trip
float formatting, no timestamps.  Run metadata is confined to a single
comment header line (CSV) or a "meta" object (JSON).

Each ``cmd_*`` validates and computes, then returns ``(meta, header,
rows)`` with ``rows`` any iterable; ``main`` alone writes them, to stdout
or ``--out``, and maps errors to exit codes.  A command runs every check
before it returns, so its rows cannot fail and a nonzero exit prints
nothing.  Rows are written as they are produced (``params`` forms one
sector's Python floats at a time): CSV row by row, JSON a batch of rows at
a time, with the bytes of ``json.dumps(payload, indent=2)``.

Exit codes: 0 success, 1 usage or parameter-validation errors, results
float64 cannot hold (a trace, indicator, a(n), b(n) or decomposition
deviation that is inf or NaN) and an --out path that cannot be written, 2
regime errors (degenerate parameters, unsupported classification regimes,
and parameters where float64 cannot confirm the closed-form edge).

A call is parsed once, by its subcommand's parser; the top-level parser
handles only help and usage errors (no argv, an unknown command, options
before the command).  A well-formed call is read straight from that
subcommand's action table (``_read``); argparse's own scan parses every
form the reader leaves to it, and reports help and usage errors.  The
parser tree is built on the first call and shared.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import fields
from gettext import gettext
from typing import Iterator, Sequence

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
    predicted_phases,
    sectors,
)
from .spectra import collapse_scan, edge_density, spectrum_scan
from .tridiag import sturm_count

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
# spectrum's section rows x eigenvalues in the window, summed over the sectors
# (a full spectrum of 10^4 rows takes about 4 s)
MAX_SPECTRUM_WORK = 100_000_000
# JSON rows dumped per call: bounds the text held at once, and spreads the
# encoder's per-call cost (a dump per row took 1.3x the whole payload's time)
_JSON_BATCH = 256

_MODELS = {cls.name: cls for cls in MODEL_TYPES}
# params evaluates its indices as int64
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
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


def _one_sector(model: ModelSpec, text: str, command: str) -> SectorLabel:
    # the default is the + sector of photon parity 0 (plain + for step-1 chains)
    if text == "default":
        return sectors(model)[1]
    if text == "all":
        raise ValueError(f"{command} solves one sector; give one label, not 'all'")
    return _select_sectors(model, text)[0]


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
    if lo < _INT64_MIN or hi > _INT64_MAX:
        raise ValueError(f"--n {text!r} holds an index outside [{_INT64_MIN}, {_INT64_MAX}]")
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


def _model_meta(model: ModelSpec) -> dict:
    return {"model": model.name, **{p: getattr(model, p) for p in _FIELDS[model.name]}}


def _check_finite(finite: bool, what: str) -> None:
    # a float64 overflow (inf) or an undefined product (nan) must not print
    if not finite:
        raise ValueError(f"{what} is not finite in float64 at these parameters")


def cmd_classify(args: argparse.Namespace) -> tuple[dict, list[str], list[list]]:
    model = _build_model(args)
    header = [
        "model", "sector", "trace", "kind", "clause",
        "indicator_c1", "indicator_c0", "endpoint", "direction",
    ]
    rows = []
    labels = _select_sectors(model, args.sector)
    for sector, report in zip(labels, predicted_phases(model, labels)):
        ind, hl = report.indicator, report.essential_spectrum
        values = [report.trace, ind.c1, ind.c0, hl.endpoint] if hl else [report.trace]
        _check_finite(all(map(math.isfinite, values)),
                      f"the trace or edge indicator of sector {sector}")
        rows.append([
            model.name, str(sector), report.trace, report.kind.value, report.notes,
            ind.c1 if ind else None, ind.c0 if ind else None,
            hl.endpoint if hl else None, hl.direction if hl else None,
        ])
    return _model_meta(model), header, rows


def cmd_params(args: argparse.Namespace) -> tuple[dict, list[str], Iterator[list]]:
    model = _build_model(args)
    indices = _parse_index_range(args.n)
    idx = np.array(indices, dtype=np.int64)
    tables = []
    # an entry that overflows, or a negative index's sqrt, is checked, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for sector in _select_sectors(model, args.sector):
            params = jacobi_params(model, sector)
            # one array call per rule: the entries of a call per index, bit for bit
            a, b = params.a(idx), params.b(idx)
            _check_finite(np.isfinite(a).all(), f"a(n) of sector {sector}")
            _check_finite(np.isfinite(b).all(), f"b(n) of sector {sector}")
            tables.append((str(sector), a, b))
    # every sector is checked: the rows hold one sector's Python floats at a time
    rows = ([model.name, label, n, an, bn]
            for label, a, b in tables for n, an, bn in zip(indices, a.tolist(), b.tolist()))
    return {**_model_meta(model), "n": args.n}, ["model", "sector", "n", "a", "b"], rows


def _check_spectrum_work(model: ModelSpec, labels, cutoff: int, window) -> None:
    """Refuse a spectrum whose rows x eigenvalues, summed over the sectors, is above the limit.

    A section holds at most ``cutoff`` eigenvalues, so a window is counted,
    by two Sturm counts per sector, only where the sections could exceed
    the limit; an empty window counts 0 or less.  A cutoff below 2 and a
    window that is not finite are ``spectrum_scan``'s to refuse.
    """
    if cutoff < 2 or len(labels) * cutoff * cutoff <= MAX_SPECTRUM_WORK:
        return
    eigenvalues = len(labels) * cutoff
    if window is not None:
        if not all(map(math.isfinite, window)):
            return
        eigenvalues = 0
        for sector in labels:
            section = jacobi_params(model, sector).truncation(cutoff)
            eigenvalues += sturm_count(section, window[1]) - sturm_count(section, window[0])
    if cutoff * eigenvalues > MAX_SPECTRUM_WORK:
        raise ValueError(
            f"--cutoff {cutoff} rows x {eigenvalues} eigenvalues = {cutoff * eigenvalues} "
            f"is above the limit of {MAX_SPECTRUM_WORK}"
        )


def cmd_spectrum(args: argparse.Namespace) -> tuple[dict, list[str], list[list]]:
    _check_cutoff(args.cutoff)
    model = _build_model(args)
    window = (args.window[0], args.window[1]) if args.window else None
    labels = _select_sectors(model, args.sector)
    _check_spectrum_work(model, labels, args.cutoff, window)
    header = ["model", "sector", "index", "eigenvalue"]
    rows = []
    for sector in labels:
        params = jacobi_params(model, sector)
        spec = spectrum_scan(params, args.cutoff, window=window, tol=args.tol)
        label = str(sector)
        rows += ([model.name, label, i, ev] for i, ev in enumerate(spec.eigenvalues.tolist()))
    meta = {**_model_meta(model), "cutoff": args.cutoff}
    if window is not None:
        meta.update(window_lo=window[0], window_hi=window[1])
    return meta, header, rows


def cmd_collapse(args: argparse.Namespace) -> tuple[dict, list[str], list[list]]:
    # any given --g, the empty text included
    if args.g is not None:
        raise ValueError("collapse takes the coupling from --grid; drop --g")
    if args.on_circle:
        raise ValueError("collapse takes the coupling from --grid; drop --on-circle")
    grid = _parse_grid(args.grid)
    _check_cutoff(args.cutoff)
    # the scan holds one section per grid point
    if len(grid) * args.cutoff > MAX_CUTOFF:
        raise ValueError(
            f"--grid points x --cutoff = {len(grid)} x {args.cutoff} section rows "
            f"is above the limit of {MAX_CUTOFF}"
        )
    base = _build_model(args, g=grid[0])
    sector = _one_sector(base, args.sector, "collapse")
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
        "model": base.name, "delta": base.delta,
        "sector": str(sector), "cutoff": args.cutoff, "k": args.lowest,
    }
    return meta, header, rows


def cmd_edge(args: argparse.Namespace) -> tuple[dict, list[str], list[list]]:
    model = _build_model(args)
    sector = _one_sector(model, args.sector, "edge")
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
        **_model_meta(model), "sector": str(sector),
        "endpoint": density.endpoint, "direction": density.direction,
        "window_width": density.window_width,
    }
    return meta, header, rows


def cmd_verify_decomp(args: argparse.Namespace) -> tuple[dict, list[str], list[list]]:
    _check_cutoff(args.cutoff, MAX_DENSE_CUTOFF)
    model = _build_model(args)
    check = decomposition_check(model, args.cutoff)
    deviations = [check.max_deviation, check.max_block, check.max_boundary, check.max_cross]
    _check_finite(all(map(math.isfinite, deviations)), "a deviation of the dense check")
    header = ["cutoff", "max_deviation", "max_block", "max_boundary", "max_cross"]
    return _model_meta(model), header, [[args.cutoff, *deviations]]


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
    # main hands a subcommand's arguments straight to its parser in here
    parser.commands = sub.choices

    def common(p: argparse.ArgumentParser, sector: str | None = "all") -> None:
        _add_model_args(p)
        if sector == "default":
            p.add_argument("--sector", default="default",
                           help="one sector label (default 0+, or + for the intensity model)")
        elif sector:
            p.add_argument("--sector", default="all", help="sector label or 'all' (default all)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("classify", help="phase table, one row per sector")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("params", help="table of Jacobi parameters a(n), b(n)")
    common(p)
    p.add_argument("--n", default="0..9",
                   help="index or inclusive range lo..hi (default 0..9); join a range "
                        "that starts with '-' by '=': --n=-2..2")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("spectrum", help="windowed eigenvalues of a finite section")
    common(p)
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--window", nargs=2, type=float, metavar=("LO", "HI"),
                   help="restrict to eigenvalues in [LO, HI) (default: full spectrum)")
    p.add_argument("--tol", type=float, help="bisection half-width tolerance")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("collapse", help="gap statistics along a coupling grid")
    common(p, sector="default")
    p.add_argument("--grid", required=True,
                   help="start:stop:step or comma list of couplings; the grid value "
                        "replaces g (anisotropic: the mean coupling, anisotropy fixed); "
                        "join a grid that starts with '-' by '=': --grid=-0.3,0.3")
    p.add_argument("--cutoff", type=int, default=400)
    p.add_argument("-k", "--lowest", type=int, default=20,
                   help="number of lowest eigenvalues per grid point (default 20)")
    p.set_defaults(fn=cmd_collapse)

    p = sub.add_parser("edge", help="eigenvalue counts near the predicted spectral edge")
    common(p, sector="default")
    p.add_argument("--cutoffs", default="200,400,800", help="comma list (default 200,400,800)")
    p.add_argument("--window-width", type=float, default=5.0)
    p.set_defaults(fn=cmd_edge)

    p = sub.add_parser("verify-decomp",
                       help="entrywise check that sector reordering block-diagonalises")
    common(p, sector=None)  # the check covers every sector
    p.add_argument("--cutoff", type=int, default=200)
    p.set_defaults(fn=cmd_verify_decomp)

    return parser


def _read(command: argparse.ArgumentParser, tokens: Sequence[str]) -> argparse.Namespace | None:
    """``command.parse_known_args(tokens)``'s namespace, read from the parser's action table.

    Returns None, for argparse to parse, on any argv it does not take whole:
    it takes exact option tokens of store (one value, the next token) and
    store_true actions only.  So '--opt=value', abbreviations, '-k5', '--',
    help, multi-value options, stray tokens, a value other than a lone '-'
    that starts with '-' and is no negative number, a value its ``type`` or ``choices`` rejects,
    and a required option not given are argparse's to read or report.
    So is an unseen string default with a ``type``, which argparse converts
    (no option of this tool has one).  Defaults are filled in argparse's
    order; a repeated option keeps its last value.
    """
    options = command._option_string_actions
    values, seen = {}, set()
    i, count = 0, len(tokens)
    while i < count:
        action = options.get(tokens[i])
        kind = type(action)
        if kind is argparse._StoreTrueAction:
            values[action.dest] = action.const
        elif kind is argparse._StoreAction and action.nargs is None and i + 1 < count:
            i += 1
            text = tokens[i]
            # this refuses option strings too: each starts with '-' and none is a negative
            # number; a lone '-' (the intensity model's sector) is a value to argparse too
            if text[:1] == "-" and text != "-" and not _NEGATIVE_NUMBER.match(text):
                return None
            try:
                value = text if action.type is None else action.type(text)
            except (TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
        else:
            return None
        seen.add(action)
        i += 1
    args = {}
    for action in command._actions:
        dest, default = action.dest, action.default
        if action not in seen and (
                action.required or isinstance(default, str) and action.type is not None):
            return None
        if dest is not argparse.SUPPRESS and default is not argparse.SUPPRESS:
            args.setdefault(dest, default)
    for dest, default in command._defaults.items():
        args.setdefault(dest, default)
    args.update(values)
    namespace = argparse.Namespace()
    vars(namespace).update(args)
    return namespace


def _write_json(out, meta: dict, header: list[str], rows) -> None:
    """``json.dumps({"meta": meta, "rows": [...]}, indent=2) + "\n"``, written in batches of rows.

    Each batch is dumped as a list of row objects and indented to its place
    in the payload's list, so only ``_JSON_BATCH`` rows' text is held at once.
    """
    encoder = json.JSONEncoder(indent=2)
    # the payload with no rows ends '"rows": []\n}': write it through the '['
    out.write(encoder.encode({"meta": meta, "rows": []})[:-3])
    rows, sep = iter(rows), "\n"
    while batch := [dict(zip(header, row)) for row in itertools.islice(rows, _JSON_BATCH)]:
        # '[\n  {...},\n  {...}\n]' without its brackets, two spaces deeper
        out.write(sep + "  " + encoder.encode(batch)[2:-2].replace("\n", "\n  "))
        sep = ",\n"
    out.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        # no command first: the top-level parser prints help or a usage error
        args = parser.parse_args(argv)
    else:
        # what the subparsers action does, without the top-level scan of argv
        args = _read(command, argv[1:])
        if args is None:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                # parse_args's own message, translated as argparse translates it
                parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
        args.command = argv[0]
    try:
        # every check has run when a command returns: its rows only format what it computed
        meta, header, rows = args.fn(args)
        meta = {"command": args.command, **meta}
        # commands build meta and rows from Python scalars and str (no None in
        # meta): json and csv write a float by repr and a None cell as null / ""
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
            if args.format == "json":
                _write_json(out, meta, header, rows)
            else:
                out.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
                writer = csv.writer(out, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
    except _REGIME_ERRORS as exc:
        print(f"rabi-spectra: regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (ValueError, OSError) as exc:
        # OSError: an --out path that cannot be opened or written
        print(f"rabi-spectra: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
