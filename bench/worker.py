"""Benchmark worker: runs one workload in a fresh interpreter.

Started by ``run.py`` with the checkout's ``src`` on PYTHONPATH, BLAS threads
pinned to 1 and RABI_SPECTRA_THREADS removed.  It imports the package, builds
the seeded input list, prints ``ready`` (the end of set-up), then drives
``rabi_spectra.cli.main(argv)`` from one thread in a closed loop with stdout
and stderr captured.  The last line it prints is one JSON object with the
measurements, the correctness verdict and the environment.

    python3 bench/worker.py --workload edge --seed 1 --seconds 25 --trace 0
    python3 bench/worker.py --workload edge --seed 1 --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import rabi_spectra
import rabi_spectra.cli as cli

from hostspeed import HostSpeed
from workloads import PINNED_THREADS, TAIL_PERCENTILE, WARMUP_ARGV, WORKLOADS, make_ops


def invoke(argv) -> tuple[int, str, str, float]:
    """One in-process CLI call: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a crash counts as a failed op, never ends the run
            rc = -1
            traceback.print_exc()
    dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def run_ops(ops, speed: HostSpeed, seconds: float | None = None, indices=None):
    """Closed loop over the op list: cycling for ``seconds``, or through ``indices``.

    Samples the host-speed reference between ops.  Returns one (index, exit
    code, stdout, stderr, seconds, scaled seconds) per op and the wall time
    of the whole section.
    """
    done, ends = [], []
    start = time.perf_counter()
    if indices is None:
        indices = (i % len(ops) for i in itertools.count())
    for idx in indices:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        speed.maybe_sample()
        done.append((idx, *invoke(ops[idx].argv)))
        ends.append(time.perf_counter())
    wall = time.perf_counter() - start
    speed.sample()
    scaled = [(*d, d[4] * speed.scale_at(t - d[4] / 2.0)) for d, t in zip(done, ends)]
    return scaled, wall


def tail(latencies: list[float], pct: int) -> tuple[float, int]:
    """(nearest-rank percentile, number of samples strictly beyond it)."""
    ordered = sorted(latencies)
    value = ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]
    return value, sum(1 for x in ordered if x > value)


def check_all(ops, done) -> tuple[list[int], dict]:
    """Indices (into ``done``) of failed ops and a sample of reasons."""
    import checks

    verdicts: dict = {}
    failed, reasons = [], {}
    for pos, (idx, rc, out, err, *_) in enumerate(done):
        key = (idx, rc, out, err)
        if key not in verdicts:
            verdicts[key] = checks.check_op(ops[idx].spec, rc, out, err)
        if verdicts[key] is not None:
            failed.append(pos)
            if len(reasons) < 5:
                reasons[" ".join(ops[idx].argv)] = verdicts[key]
    return failed, reasons


def environment(args, root: Path) -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "RABI_SPECTRA_THREADS": "unset",
        **{var: os.environ[var] for var in PINNED_THREADS},
        "package": str(Path(rabi_spectra.__file__).resolve().parent.relative_to(root)),
    }


def measure(ops, args) -> dict:
    speed = HostSpeed()
    done, wall = run_ops(ops, speed, seconds=args.seconds)
    latencies = [d[5] for d in done]
    pct = TAIL_PERCENTILE[args.workload]
    tail_s, beyond = tail(latencies, pct)
    raw = [d[4] for d in done]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, reasons = check_all(ops, done)
    return {
        "attempted": len(done),
        "failed": len(failed),
        "reasons": reasons,
        "metrics": {
            "ops_per_s": len(done) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "peak_rss_mb": peak_rss_mb,
        },
        "raw": {
            "ops_per_s": len(done) / wall,
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": tail(raw, pct)[0] * 1e3,
        },
        "host_scale": speed.overall_scale(),
        "tail": {"percentile": pct, "samples": len(done), "beyond": beyond},
    }


def measure_traced(ops, args) -> dict:
    import checks
    from tracer import Tracer

    speed = HostSpeed()
    plain, _ = run_ops(ops, speed, seconds=args.seconds / 2.0)
    tracer = Tracer()
    with tracer:
        traced, _ = run_ops(ops, speed, indices=[d[0] for d in plain])
    restored = tracer.restored()
    failed, reasons = check_all(ops, plain)
    failed = set(failed)
    for pos, (a, b) in enumerate(zip(plain, traced)):
        if a[1:4] != b[1:4]:
            failed.add(pos)
            reasons.setdefault(" ".join(ops[a[0]].argv), "traced output differs from untraced")
    if not restored:
        reasons["tracer"] = "a wrapped name was not restored"
    overhead_x = sum(d[5] for d in traced) / sum(d[5] for d in plain)
    stebz_ref_s = tracer.stebz_reference(checks.stebz_seconds)
    return {
        "attempted": len(plain),
        "failed": len(failed) + (0 if restored else 1),
        "reasons": reasons,
        "metrics": tracer.metrics(stebz_ref_s, overhead_x),
        "absent_layers": tracer.absent,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit right after set-up (used to time set-up)")
    args = parser.parse_args(argv)

    ops = make_ops(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    root = Path.cwd().resolve()
    if "RABI_SPECTRA_THREADS" in os.environ or any(
        os.environ.get(var) != "1" for var in PINNED_THREADS
    ):
        print("worker: RABI_SPECTRA_THREADS must be unset and BLAS threads pinned to 1",
              file=sys.stderr)
        return 3
    if not Path(rabi_spectra.__file__).resolve().is_relative_to(root / "src"):
        print(f"worker: imported {rabi_spectra.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 3

    invoke(WARMUP_ARGV[args.workload])
    result = measure_traced(ops, args) if args.trace else measure(ops, args)
    import scipy

    result["env"] = {**environment(args, root), "scipy": scipy.__version__}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
