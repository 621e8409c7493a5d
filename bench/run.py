"""rabi-spectra benchmark: one workload per fresh process, every metric by name.

    python3 bench/run.py --workload collapse --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, untraced and traced

Run from the root of a checkout; the program is imported from its ``src``.
Set-up is timed as the median over several fresh interpreters, each of
which imports the package and builds the seeded inputs (``worker.py
--setup-only``); one more worker then measures the workload.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import NOMINAL_S, reference_seconds  # noqa: E402
from tracer import PER_LAYER_METRICS  # noqa: E402
from workloads import PINNED_THREADS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # set-up-only interpreters per run, plus the measuring one
CHILD_TIMEOUT_S = 170.0

END_TO_END_METRICS = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    """The environment of every worker: the checkout's src, BLAS pinned to 1 thread."""
    env = {k: v for k, v in os.environ.items() if k != "RABI_SPECTRA_THREADS"}
    env.update({var: "1" for var in PINNED_THREADS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float, float]:
    """Start a worker and wait for its ``ready`` line.

    Returns the process, the set-up seconds, and the set-up seconds scaled to
    the nominal host speed by reference samples taken just before and after.
    """
    refs = [reference_seconds() for _ in range(3)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    refs += [reference_seconds() for _ in range(3)]
    return proc, setup, setup * NOMINAL_S / statistics.median(refs)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    reference_seconds()  # warm the reference kernel
    setups = []
    for _ in range(SETUP_SAMPLES):
        proc, *setup = start_worker([*base, "--setup-only"])
        proc.communicate(timeout=CHILD_TIMEOUT_S)
        setups.append(setup)
    proc, *setup = start_worker([*base, "--seconds", str(seconds), "--trace", str(trace)])
    setups.append(setup)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {CHILD_TIMEOUT_S:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(scaled for _, scaled in setups)
        result["raw"]["setup_s"] = statistics.median(raw for raw, _ in setups)
    result["setup_samples"] = len(setups)
    return result


def report(workload: str, trace: int, result: dict) -> dict:
    """Print the human-readable lines and return the contract's result object."""
    env = result["env"]
    print(f"# workload={workload} seed={env['seed']} seconds={env['seconds']} trace={trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()
                              if k not in ("workload", "seed", "seconds", "trace")))
    names = PER_LAYER_METRICS if trace else END_TO_END_METRICS
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in names}
    for name, unit in names:
        note = ""
        if name == "op_tail_ms":
            t = result["tail"]
            note = f"  p{t['percentile']} of {t['samples']} ops, {t['beyond']} beyond it"
        elif name == "setup_s":
            note = f"  median of {result['setup_samples']} fresh interpreters"
        if name in result.get("raw", {}):
            note += f"  (raw {result['raw'][name]:.6g})"
        print(f"{workload:9s} {name:42s} {result['metrics'][name]:14.6g} {unit}{note}")
    ratio = result["failed"] / result["attempted"]
    print(f"{workload:9s} {'failed_ratio':42s} {ratio:14.6g} ratio  "
          f"{result['failed']} of {result['attempted']} ops")
    if "host_scale" in result:
        print(f"# times scaled to the nominal host speed; this run's scale {result['host_scale']:.4f}")
    if result.get("absent_layers"):
        print(f"# absent layers (metrics read 0): {', '.join(result['absent_layers'])}")
    for what, why in result["reasons"].items():
        print(f"# FAILED {what}: {why}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "rabi_spectra" / "__init__.py").is_file():
        print(f"run.py: no rabi_spectra package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    plan = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    results = {}
    try:
        for workload, trace in plan:
            result = run_workload(workload, args.seed, args.seconds, trace)
            results[f"{workload}/trace{trace}"] = report(workload, trace, result)
    except (RuntimeError, json.JSONDecodeError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results.popitem()[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
