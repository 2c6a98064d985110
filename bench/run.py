"""latticewave benchmark: one workload per invocation, the result as JSON on the last stdout line.

Run from the root of a checkout:

    python3 bench/run.py --workload {knapp,scan,cli} --seed N --seconds S --trace 0|1

The program under test is the checkout's ``src/latticewave``, imported from
source.  Metric names and units come from ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics:
  wall_s        median wall time of one warm pass over the workload's
                experiments, over every pass that fits in S seconds
  setup_s       median, over SETUP_PROBES fresh processes, of the time to
                import latticewave and build the workload's inputs
  peak_rss_mib  peak resident memory of the process that ran the passes
``--trace 1`` reports the per-layer metrics: the same passes untraced, then
one pass under the span tracer (``spans.py``), whose spans are written to
``.bench_out/spans-<workload>.tsv``.

Each process is fresh and single-threaded in BLAS/OpenMP; only the ``cli``
workload's ``--threads 2`` command starts two pool threads.  Every operation
is checked; ``attempted`` and ``failed`` count operations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("knapp", "scan", "cli")
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0  # every child process must end within this many seconds of the start
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("LATTICEWAVE_OUTDIR", None)
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` with ``args``; return the JSON object on its last stdout line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(args)}") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(numpy_version: str) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(), "src_lines": src_lines}


def highest_percentile(n: int) -> str:
    """The highest percentile with at least ten samples beyond it, as text."""
    if n < 20:
        return f"none beyond the median is supported by {n} samples"
    return f"p{int(100 * (1 - 10 / n))} is the highest with ten samples beyond it"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    # a terminated benchmark still kills and waits for its worker (subprocess.run does so on an exception)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "latticewave" / "__init__.py").is_file():
        print(f"error: no latticewave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_root = ROOT / ".bench_out"
    outdir = out_root / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--outdir", str(outdir)]
    try:
        setups = [] if args.trace else [
            run_child([*common, "--role", "setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        res = run_child([*common, "--role", "run", "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--spans", str(out_root / f"spans-{args.workload}.tsv")], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    walls = res["pass_s"]
    values = {"wall_s": statistics.median(walls), "peak_rss_mib": res["peak_rss_mib"],
              "failed_frac": res["failed"] / res["attempted"], "wall_s.samples": len(walls)}
    if setups:
        values["setup_s"] = statistics.median(setups)
    values.update(res.get("layers", {}))

    print("environment " + json.dumps(environment(res["numpy"])))
    print(f"{args.workload}: {len(walls)} timed passes, median {values['wall_s']:.4f} s, "
          f"min {min(walls):.4f} s, max {max(walls):.4f} s; {highest_percentile(len(walls))}")
    print("pass_s " + " ".join(f"{w:.4f}" for w in walls))
    for name, secs in res["op_s"].items():
        print(f"  {secs:10.4f} s  {name}")
    if setups:
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
    print(f"operations attempted {res['attempted']}, failed {res['failed']}")
    try:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except KeyError as exc:
        print(f"error: the run produced no value for metric {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
