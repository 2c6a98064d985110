"""One benchmark process for one workload; ``run.py`` starts it and reads its last stdout line.

  worker.py --workload W --seed N --role setup
      import latticewave, build the inputs, report the set-up time, exit.
  worker.py --workload W --seed N --role run --seconds S --trace 0|1 --outdir DIR
      set up, warm up, then time whole passes over the workload until the
      budget of S seconds (warm-up included) would be overrun; with --trace 1
      the last pass runs under the span tracer.

Every operation's result is checked; failures are counted and named on stderr.
"""

from time import perf_counter

START = perf_counter()  # set-up time counts from here: before numpy or latticewave is imported

import argparse
import json
import resource
import statistics
import sys


def run_pass(wl, ops, tracer=None) -> dict:
    """Run ``ops`` once in order; time each call, then check its result untimed."""
    results, times, failures = {}, {}, []
    wl.nonstrict_outputs = 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin(i)
        t = perf_counter()
        try:
            result, error = op.call(results), None
        except Exception as exc:  # a raising experiment is a failed operation, not a crashed benchmark
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        times[op.name] = perf_counter() - t
        if tracer is not None:
            tracer.end()
        if error is None:
            try:
                error = op.check(result, wl)
            except Exception as exc:  # a result the check cannot read misses the tolerance
                error = f"check raised {type(exc).__name__}: {exc}"
        results[op.name] = result
        if error is not None:
            failures.append(f"{op.name}: {error}")
    return {"wall": sum(times.values()), "times": times, "failures": failures,
            "nonstrict": wl.nonstrict_outputs}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args()

    import workloads

    wl = workloads.build(args.workload, args.seed, args.outdir)
    setup_s = perf_counter() - START
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    deadline = perf_counter() + args.seconds
    attempted, failures = 0, []

    def account(res: dict, n_ops: int) -> dict:
        nonlocal attempted
        attempted += n_ops
        failures.extend(res["failures"])
        return res

    account(run_pass(wl, wl.ops[: wl.warmup_ops]), wl.warmup_ops)
    passes = []
    while True:
        passes.append(account(run_pass(wl, wl.ops), len(wl.ops)))
        # start another pass only if it fits; a traced run keeps room for its traced pass
        need = (2 if args.trace else 1) * max(p["wall"] for p in passes)
        if perf_counter() + need > deadline:
            break
    walls = [p["wall"] for p in passes]
    out = {
        "setup_s": setup_s,
        "pass_s": walls,
        "op_s": {op.name: statistics.median(p["times"][op.name] for p in passes) for op in wl.ops},
    }
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = account(run_pass(wl, wl.ops, tracer), len(wl.ops))
        finally:
            tracer.uninstall()
        layers = tracer.metrics()
        layers["trace.wall_s"] = traced["wall"]
        layers["trace.overhead_s"] = traced["wall"] - statistics.median(walls)
        layers["trace.coverage"] = sum(layers[f"{x}.self_s"] for x in spans.LAYERS + ("fft",)) / traced["wall"]
        layers["reporting.nonstrict_json_outputs"] = traced["nonstrict"]
        out["layers"] = layers
        if args.spans:
            spans.write_spans(tracer.spans, args.spans)
    out["numpy"] = sys.modules["numpy"].__version__
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["attempted"] = attempted
    out["failed"] = len(failures)
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
