"""Benchmark of ``topocut compute``: one workload, one seed, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload cuts_random --seed 1 --seconds 16 --trace 0

Set-up generates the workload's input files from the seed and computes their
reference answers by another route, then measures ``setup_s``.  A worker
process then solves the instances in a closed loop (see worker.py).  Every
end-to-end time is divided by the machine's speed factor measured next to
it (see reference.py); the unscaled values are printed too.  With
``--trace 0`` the last line of output carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  Lines before
it print every metric by name with its unit, the failure ratio and a machine
fingerprint.  Exits non-zero without a result when ``src/topocut`` is absent
or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import speed_factor

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before workloads.py imports numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Solve time of one round of each workload at the commit that defined the
# benchmark, at the speed of reference.py.  It only converts --seconds into
# a number of rounds, so that every run of a workload does the same solves
# whatever the speed of the program.
ROUND_SECONDS = {
    "phenylene_trees": 3.9,
    "cuts_random": 3.5,
    "hamming_products": 2.5,
    "twins_reduce": 4.1,
}
SETUP_REPEATS = 5
DEADLINE_S = 170.0

# Prints the import time, then three times of the machine-speed reference
# taken in the same interpreter right after it.
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import topocut.cli\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from reference import Reference\n"
    "r = Reference()\n"
    "print(t, *(r.seconds() for _ in range(3)))\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> tuple[float, float]:
    """Median wall time of importing topocut.cli in a fresh interpreter,
    each import divided by the speed factor measured in its interpreter; and
    the median of the unscaled times.

    One untimed import first, so bytecode compilation is not counted.
    """
    imports, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE)], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        if i:
            seconds, *kernel = map(float, out.stdout.split())
            imports.append(seconds)
            scaled.append(seconds / speed_factor(kernel))
    return statistics.median(scaled), statistics.median(imports)


def fingerprint() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def rounds_for(workload: str, seconds: int, per_round: int) -> int:
    # at least 11 solves, so the tail percentile has ten solves beyond it
    return max(math.ceil(11 / per_round), round(seconds / ROUND_SECONDS[workload]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "topocut" / "__init__.py").is_file():
        print(f"perfbench: no topocut sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import topocut
    import workloads

    if Path(topocut.__file__).resolve().parent != SRC / "topocut":
        print(f"perfbench: imported topocut from {topocut.__file__}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check, timed = workloads.WORKLOADS[args.workload](args.seed)
        rounds = rounds_for(args.workload, args.seconds, len(timed))
        spec = workloads.write_spec(check, timed, workdir, args.trace, rounds)
        (workdir / "spec.json").write_text(json.dumps(spec))
        setup_s, setup_raw_s = (None, None) if args.trace else measure_setup()
        budget = DEADLINE_S - (time.monotonic() - started)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(workdir / "spec.json"),
                 str(workdir / "result.json")],
                env=child_env(), cwd=ROOT, timeout=budget,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            print(f"perfbench: worker still running after {budget:.0f} s", file=sys.stderr)
            return 3
        if proc.returncode != 0:
            print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
            return 3
        result = json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} rounds={rounds} instances={len(timed)} "
          f"timed_solves={result['solves']}")
    if args.trace:
        metrics = result["layers"]
        if result["missing"]:
            print(f"  not traced (absent from the program): {', '.join(result['missing'])}")
    else:
        units = {"setup_s": "s", "solve_p50_s": "s", "solve_tail_s": "s",
                 "solves_per_s": "1/s", "peak_rss_mb": "MB"}
        values = {"setup_s": setup_s, **result["metrics"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for name, m in metrics.items():
        note = f"  (p{result['tail_percentile']:.1f} of {result['solves']} solves)" \
            if name == "solve_tail_s" else ""
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':32s} {failed / attempted:.6g} ratio  ({failed} of {attempted} solves)")
    print(f"  methods: {result['methods']}")
    if not args.trace:
        unscaled = {"setup_s": setup_raw_s, **result["raw"]}
        print(f"  speed_factor {result['speed_factor']:.4f} (median; see reference.py); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    for err in result["errors"]:
        print(f"  FAILED {err}")
    print("fingerprint " + json.dumps(fingerprint()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
