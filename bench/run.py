"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It runs the workload in a fresh process
of its own, with the package taken from ``src/`` and BLAS limited to one
thread, and times a fresh interpreter's ``import diffusion_forecast`` a few
times before and after it (``setup_s``, the median). The last line of
standard output is the result: ``correct``, ``attempted``, ``failed`` and
the metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``. The lines before it record the environment, the
operation counts and the accuracy figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import diffusion_forecast; "
    "print(time.perf_counter() - t); print(diffusion_forecast.__file__)"
)
WORKLOAD_TIMEOUT_S = 170


def import_seconds(env: dict, package: Path) -> float:
    """One fresh interpreter's import time; refuses a package found elsewhere."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout.split("\n")
    if Path(out[1]).resolve().parent != package:
        raise RuntimeError(f"imported diffusion_forecast from {out[1]}, not from {package}")
    return float(out[0])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny sizes are for the smoke test only")
    args = p.parse_args(argv)

    root = Path.cwd()
    package = (root / "src" / "diffusion_forecast").resolve()
    if not (package / "__init__.py").is_file():
        print(f"no package source at {package}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    threads = "1"
    src = str(root / "src")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else src,
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)

    # half the import timings before the workload and half after, so the
    # median samples the host over the whole run rather than one moment
    setup = [] if args.trace else [import_seconds(env, package) for _ in range(SETUP_SAMPLES // 2)]
    child = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--scale", args.scale],
        env=env, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S,
    )
    if setup:
        setup += [import_seconds(env, package) for _ in range(SETUP_SAMPLES - len(setup))]
    sys.stderr.write(child.stderr)
    lines = child.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"workload {args.workload} exited with code {child.returncode} and no result",
              file=sys.stderr)
        return child.returncode or 1
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        result["metrics"] = dict(sorted(result["metrics"].items()))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
