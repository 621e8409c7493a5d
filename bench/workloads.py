"""Seeded input lists for the benchmark workloads.

Each workload is a fixed, seed-determined list of ``Op``: the argv handed to
``rabi_spectra.cli.main`` plus a JSON-able ``spec`` that the correctness
checks read back.  Only the standard library is used here, so the lists are
cheap to build and identical on every platform for a given seed.

Each workload runs at one stated input size (cutoff, k, grid length, ladder),
so that the latency quantiles of a run do not depend on which sizes the
run happened to reach; the seed chooses models, critical cases, parameter
values, sectors and windows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from decimal import Decimal

WORKLOADS = ("collapse", "edge", "spectrum", "cli-mix")

# op_tail_ms percentile per workload: a round percentile that leaves about 10
# or more samples beyond it at the op counts a 25 s run gives at this commit
TAIL_PERCENTILE = {"collapse": 80, "edge": 60, "spectrum": 70, "cli-mix": 99}

# BLAS/OpenMP thread pins every worker runs under; the worker refuses others
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# the golden run pinned by tests/data/collapse_two_photon.csv
GOLDEN_ARGV = (
    "collapse", "--model", "two-photon", "--delta", "1",
    "--grid", "0.30:0.49:0.01", "--cutoff", "400", "-k", "20",
)

TWO_PHOTON_SECTORS = ("0-", "0+", "1-", "1+")
INTENSITY_SECTORS = ("-", "+")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    spec: dict = field(compare=False, hash=False)


def _num(x: float) -> str:
    """Round to 6 significant digits, written without an exponent.

    The text parses back to exactly the spec value.  Positional notation as
    in the README examples: argparse reads a negative number with an
    exponent (``-3.4e-05``) as an option flag and the CLI exits 1.
    """
    return format(Decimal(repr(float(f"{x:.6g}"))), "f")


def _blocks(rng: random.Random, n_ops: int, strata: int) -> list[int]:
    """Stratum index per op: every block of ``strata`` consecutive ops is a permutation."""
    out: list[int] = []
    while len(out) < n_ops:
        block = list(range(strata))
        rng.shuffle(block)
        out.extend(block)
    return out[:n_ops]


def _model_args(model: str, p: dict) -> list[str]:
    args = ["--model", model, "--delta", _num(p["delta"])]
    if "g" in p:
        args += ["--g", _num(p["g"])]
    if "kappa" in p:
        args += ["--kappa", _num(p["kappa"])]
    if "g_plus" in p:
        args += ["--g-plus", _num(p["g_plus"]), "--g-minus", _num(p["g_minus"])]
    return args


def _rounded(p: dict) -> dict:
    return {k: float(_num(v)) for k, v in p.items()}


# --- collapse ---------------------------------------------------------------

_COLLAPSE_MODELS = ("two-photon", "intensity", "anisotropic", "rabi-stark")


def _collapse_op(rng: random.Random, model: str, cutoff: int, k: int) -> Op:
    """Seed-drawn coupling grid kept inside the purely discrete regime."""
    delta = rng.uniform(-2.0, 2.0)
    base: dict = {"delta": delta}
    if model == "two-photon":
        g_max = 0.47
        sector = rng.choice(TWO_PHOTON_SECTORS)
    elif model == "intensity":
        g_max = 0.47
        base["kappa"] = rng.uniform(0.2, 2.0)
        sector = rng.choice(INTENSITY_SECTORS)
    elif model == "anisotropic":
        g_max = 0.47  # mean coupling below 1/2
        sector = rng.choice(TWO_PHOTON_SECTORS)
    else:  # rabi-stark: inside the circle kappa^2 + 4 g^2 < 1
        base["kappa"] = rng.uniform(-0.8, 0.8)
        g_max = 0.97 * math.sqrt(1.0 - base["kappa"] ** 2) / 2.0
        sector = rng.choice(TWO_PHOTON_SECTORS)
    step = rng.uniform(0.005, 0.03)
    g0 = rng.uniform(0.12, g_max - (GRID_POINTS - 1) * step)
    grid = [float(_num(g0 + i * step)) for i in range(GRID_POINTS)]
    base = _rounded(base)
    if model == "anisotropic":
        half_diff = float(_num(rng.uniform(0.02, 0.09) * rng.choice((-1.0, 1.0))))
        base["g_plus"] = float(_num(grid[0] + half_diff))
        base["g_minus"] = float(_num(grid[0] - half_diff))
    argv = ["collapse", *_model_args(model, base), "--sector", sector,
            "--grid", ",".join(_num(g) for g in grid),
            "--cutoff", str(cutoff), "-k", str(k)]
    spec = {"kind": "collapse", "model": model, "params": base, "sector": sector,
            "grid": grid, "cutoff": cutoff, "k": k}
    return Op(tuple(argv), spec)


# size of the seed-drawn collapse runs (the golden run is cutoff 400, k 20)
GRID_POINTS = 2
COLLAPSE_CUTOFF = 300
COLLAPSE_K = 15


def collapse_ops(rng: random.Random, n_ops: int = 240) -> list[Op]:
    ops = [Op(GOLDEN_ARGV, {"kind": "golden"})]
    for i in range(n_ops):
        ops.append(_collapse_op(rng, _COLLAPSE_MODELS[i % 4], COLLAPSE_CUTOFF, COLLAPSE_K))
    return ops


# --- edge -------------------------------------------------------------------

EDGE_CASES = ("two-photon", "intensity", "anisotropic-mean", "anisotropic-diff",
              "rabi-stark-circle", "rabi-stark-kappa")


def _edge_model(rng: random.Random, case: str) -> tuple[str, dict, list[str], str]:
    """(model, params, extra argv, sector) for one critical half-line."""
    delta = float(_num(rng.uniform(-2.0, 2.0)))
    if case == "two-photon":
        return "two-photon", {"delta": delta}, ["--g", "critical"], rng.choice(TWO_PHOTON_SECTORS)
    if case == "intensity":
        kappa = float(_num(rng.uniform(0.2, 2.0)))
        return ("intensity", {"delta": delta, "kappa": kappa}, ["--g", "critical"],
                rng.choice(INTENSITY_SECTORS))
    if case == "anisotropic-mean":
        # four decimals keep 1/2 +- d exact in the 6-digit argv text
        d = round(rng.uniform(0.05, 0.4), 4)
        p = _rounded({"delta": delta, "g_plus": 0.5 + d, "g_minus": 0.5 - d})
        return "anisotropic", p, [], rng.choice(TWO_PHOTON_SECTORS)
    if case == "anisotropic-diff":
        g = round(rng.uniform(0.6, 1.5), 4)
        p = _rounded({"delta": delta, "g_plus": g + 0.5, "g_minus": g - 0.5})
        if rng.random() < 0.5:
            p["g_plus"], p["g_minus"] = p["g_minus"], p["g_plus"]
        return "anisotropic", p, [], rng.choice(TWO_PHOTON_SECTORS)
    if case == "rabi-stark-circle":
        kappa = float(_num(rng.uniform(-0.8, 0.8)))
        return ("rabi-stark", {"delta": delta, "kappa": kappa}, ["--on-circle"],
                rng.choice(TWO_PHOTON_SECTORS))
    sign = rng.choice((-1.0, 1.0))
    g = float(_num(rng.uniform(0.1, 1.0)))
    return ("rabi-stark", {"delta": delta, "kappa": sign, "g": g}, [],
            rng.choice(TWO_PHOTON_SECTORS))


EDGE_LADDER = (10_000, 20_000)  # a doubling cutoff ladder


def edge_ops(rng: random.Random, n_ops: int = 60) -> list[Op]:
    ops = []
    for c in _blocks(rng, n_ops, len(EDGE_CASES)):
        case = EDGE_CASES[c]
        model, params, extra, sector = _edge_model(rng, case)
        width = float(_num(rng.uniform(3.0, 8.0)))
        argv = ["edge", *_model_args(model, params), *extra, "--sector", sector,
                "--cutoffs", ",".join(map(str, EDGE_LADDER)), "--window-width", _num(width)]
        spec = {"kind": "edge", "case": case, "model": model, "params": params,
                "sector": sector, "cutoffs": list(EDGE_LADDER), "width": width}
        ops.append(Op(tuple(argv), spec))
    return ops


# --- spectrum ---------------------------------------------------------------

def _any_params(rng: random.Random, model: str) -> dict:
    """Parameters anywhere in the model's domain (no regime restriction)."""
    p: dict = {"delta": rng.uniform(-3.0, 3.0)}
    if model == "anisotropic":
        gm = rng.uniform(0.1, 1.5)
        gd = rng.uniform(0.05, 0.9) * gm
        p.update(g_plus=gm + gd, g_minus=gm - gd)
    else:
        p["g"] = rng.uniform(0.05, 1.5)
        if model == "intensity":
            p["kappa"] = rng.uniform(0.1, 3.0)
        elif model == "rabi-stark":
            p["kappa"] = rng.uniform(-1.5, 1.5)
    return _rounded(p)


SPECTRUM_CUTOFF = 1000


def spectrum_ops(rng: random.Random, n_ops: int = 60) -> list[Op]:
    """Full spectra: every pass carries one shift per row, whatever the parameters."""
    ops = []
    for i in range(n_ops):
        model = _COLLAPSE_MODELS[i % 4]
        params = _any_params(rng, model)
        sectors = INTENSITY_SECTORS if model == "intensity" else TWO_PHOTON_SECTORS
        sector = rng.choice(sectors)
        cutoff = SPECTRUM_CUTOFF
        argv = ["spectrum", *_model_args(model, params), "--sector", sector,
                "--cutoff", str(cutoff)]
        spec = {"kind": "spectrum", "model": model, "params": params, "sector": sector,
                "cutoff": cutoff}
        ops.append(Op(tuple(argv), spec))
    return ops


# --- cli-mix ----------------------------------------------------------------

def _classify_params(rng: random.Random, model: str) -> tuple[dict, list[str], bool]:
    """(params, extra argv, critical): a third of the draws sit on a critical set."""
    delta = rng.uniform(-3.0, 3.0)
    if rng.random() < 1.0 / 3.0:
        if model in ("two-photon", "intensity"):
            p = {"delta": delta}
            if model == "intensity":
                p["kappa"] = rng.uniform(0.1, 3.0)
            return _rounded(p), ["--g", "critical"], True
        if model == "anisotropic":
            _, p, extra, _ = _edge_model(rng, rng.choice(("anisotropic-mean", "anisotropic-diff")))
            return p, extra, True
        _, p, extra, _ = _edge_model(rng, rng.choice(("rabi-stark-circle", "rabi-stark-kappa")))
        return p, extra, True
    # non-critical: keep every criticality predicate at least 1e-2 away
    while True:
        p = _any_params(rng, model)
        if model in ("two-photon", "intensity"):
            dist = abs(p["g"] - 0.5)
        elif model == "anisotropic":
            g_mean = (p["g_plus"] + p["g_minus"]) / 2.0
            g_diff = abs(p["g_plus"] - p["g_minus"]) / 2.0
            dist = min(abs(g_mean - 0.5), abs(g_diff - 0.5))
        else:
            dist = min(abs(abs(p["kappa"]) - 1.0), abs(p["kappa"] ** 2 + 4 * p["g"] ** 2 - 1.0))
        if dist > 1e-2:
            return p, [], False


# (argv tail, expected exit code): 1 usage/validation, 2 regime
_INVALID = (
    (["classify", "--model", "two-photon", "--delta", "1"], 1),
    (["classify", "--model", "two-photon", "--g", "-0.3"], 1),
    (["classify", "--model", "anisotropic", "--g-plus", "0.4", "--g-minus", "0.4"], 1),
    (["classify", "--model", "two-photon", "--g", "0.3", "--sector", "2+"], 1),
    (["classify", "--model", "quantum", "--g", "1"], 1),
    (["classify", "--model", "two-photon", "--g", "0.3", "--on-circle"], 1),
    (["params", "--model", "two-photon", "--g", "0.3", "--n", "5..3"], 1),
    (["classify", "--model", "intensity", "--g", "0.3", "--kappa", "0", "--delta", "1"], 2),
    (["params", "--model", "intensity", "--g", "0.3", "--kappa", "0", "--n", "0..3"], 2),
    (["verify-decomp", "--model", "intensity", "--g", "0.4", "--kappa", "0",
      "--cutoff", "100"], 2),
)


VERIFY_CUTOFFS = (100, 200, 300)


def cli_mix_ops(rng: random.Random, n_ops: int = 2000) -> list[Op]:
    """Blocks of 10: 3 classify, 3 params, 3 verify-decomp, 1 invalid input."""
    kinds = ("classify",) * 3 + ("params",) * 3 + ("verify-decomp",) * 3 + ("invalid",)
    ops = []
    vd_strata = _blocks(rng, n_ops, len(VERIFY_CUTOFFS))
    for i in range(0, n_ops, len(kinds)):
        block = list(kinds)
        rng.shuffle(block)
        for j, kind in enumerate(block):
            model = _COLLAPSE_MODELS[rng.randrange(4)]
            if kind == "invalid":
                argv, code = _INVALID[rng.randrange(len(_INVALID))]
                ops.append(Op(tuple(argv), {"kind": "invalid", "exit": code}))
                continue
            sectors = INTENSITY_SECTORS if model == "intensity" else TWO_PHOTON_SECTORS
            if kind == "classify":
                params, extra, critical = _classify_params(rng, model)
                argv = ["classify", *_model_args(model, params), *extra]
                spec = {"critical": critical}
            elif kind == "params":
                params = _any_params(rng, model)
                lo = rng.randrange(0, 50)
                sector = rng.choice(("all",) + sectors)
                argv = ["params", *_model_args(model, params), "--sector", sector,
                        "--n", f"{lo}..{lo + rng.randrange(0, 20)}"]
                spec = {"sector": sector}
            else:
                params = _any_params(rng, model)
                cutoff = VERIFY_CUTOFFS[vd_strata[i + j]]
                argv = ["verify-decomp", *_model_args(model, params), "--cutoff", str(cutoff)]
                spec = {"cutoff": cutoff}
            spec.update(kind=kind, model=model, params=params)
            ops.append(Op(tuple(argv), spec))
    return ops[:n_ops]


# --- entry points -----------------------------------------------------------

_BUILDERS = {
    "collapse": collapse_ops,
    "edge": edge_ops,
    "spectrum": spectrum_ops,
    "cli-mix": cli_mix_ops,
}

# the op that warms lazy imports and caches before the timed section
WARMUP_ARGV = {
    "collapse": ("collapse", "--model", "two-photon", "--delta", "1", "--grid", "0.2,0.3",
                 "--cutoff", "60", "-k", "5"),
    "edge": ("edge", "--model", "two-photon", "--g", "critical", "--delta", "1",
             "--cutoffs", "200,400"),
    "spectrum": ("spectrum", "--model", "two-photon", "--g", "0.3", "--delta", "1",
                 "--sector", "0+", "--cutoff", "100"),
    "cli-mix": ("verify-decomp", "--model", "two-photon", "--g", "0.3", "--delta", "1",
                "--cutoff", "20"),
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The input list of one workload; the same (workload, seed) gives the same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"rabi-spectra-bench/{workload}/{int(seed)}")
    return _BUILDERS[workload](rng)
