"""bandcert benchmark runner.

    python3 perfbench/run.py --workload certify32|attack16|train16 \
        --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports ``bandcert`` from its ``src/``.
One process, one BLAS thread, closed loop: the next op starts when the last
one has returned. The workloads are described in ``workloads.py``.

Before anything is timed, a stored checkpoint the workload runs on is
checked against its digest, once per process.

``--trace 0`` sets up the workload and runs one warm-up op, untimed, then
times ``SETUP_REPEATS`` set-ups, then runs ops back to back for
``--seconds``, timing one more set-up after each op, and prints the
end-to-end metrics:

* ``setup_s``: median time of the program's set-up calls (build the
  configs, load the checkpoint, make the seeded inputs, plan the windows),
  none of them the process's first;
* ``images_per_s``: images completed per second of op time;
* ``op_ms_p50``, ``op_ms_p90``: per-op wall time;
* ``peak_rss_mb``: peak resident set size of the process after the loop.

``--trace 1`` alternates an untraced and a traced repetition of a fixed set
of ops (set-up included) until ``--seconds`` have passed, at least twice
each, and prints the per-layer metrics of ``layers.py`` from the traced
repetitions: times are medians per repetition, counts are exact and must
agree across repetitions. ``trace.overhead_frac`` is the traced over the
untraced repetition time, minus 1.

Every run checks the outputs it produced once the measured part is over,
prints the machine and versions it ran on, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. A failed check counts as
a failed op and makes the exit code 1. Missing sources or a checkpoint that
does not match its digest exit with code 2 and print no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter

import boot

SETUP_REPEATS = 20
PACKAGE = "bandcert"


def _parse(argv):
    parser = argparse.ArgumentParser(description="bandcert benchmark runner")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_op(wl, st, op, outputs, errors) -> None:
    """One op; an exception is reported and counted, not fatal."""
    try:
        outputs.append((op, wl.run_op(st, op)))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        errors.append(op)


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_run(wl, seed: int, seconds: float):
    def timed_setup():
        start = perf_counter()
        wl.setup(seed)
        setup_times.append(perf_counter() - start)

    setup_times: list[float] = []
    st = wl.setup(seed)
    outputs: list = []
    errors: list = []
    _run_op(wl, st, 0, outputs, errors)  # warm-up, not timed
    for _ in range(SETUP_REPEATS):
        timed_setup()
    times = []
    op = 1
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        _run_op(wl, st, op, outputs, errors)
        times.append(perf_counter() - start)
        timed_setup()  # spread set-up samples over the run, like the ops
        op += 1
        if perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {
        "setup_s": statistics.median(setup_times),
        "images_per_s": wl.images_per_op * len(times) / sum(times),
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_p90": _p90(times) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"setups": len(setup_times), "ops_timed": len(times), "op": wl.op_kind}
    return st, outputs, errors, metrics, notes


def traced_run(wl, seed: int, seconds: float):
    import layers
    from tracer import Tracer, instrumented

    st = wl.setup(seed)
    outputs: list = []
    errors: list = []
    for op in wl.trace_ops:  # warm-up, not timed
        _run_op(wl, st, op, outputs, errors)

    untraced, traced, reps = [], [], []
    deadline = perf_counter() + seconds
    while len(traced) < 2 or perf_counter() < deadline:
        start = perf_counter()
        st = wl.setup(seed)
        for op in wl.trace_ops:
            _run_op(wl, st, op, outputs, errors)
        untraced.append(perf_counter() - start)

        tracer = Tracer()
        with instrumented(tracer, PACKAGE, layers.HOOKS):
            start = perf_counter()
            tracer.context = "setup"
            st = wl.setup(seed)
            for op in wl.trace_ops:
                tracer.context = f"{wl.op_kind}:{op}"
                _run_op(wl, st, op, outputs, errors)
            traced.append(perf_counter() - start)
        reps.append((tracer.stats(), tracer.counters))

    metrics = {}
    unsteady = []
    for name, (kind, get) in layers.LAYERS.items():
        values = [get(stats, counters) for stats, counters in reps]
        if kind == "time":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["model.sweep_speedup"] = layers.sweep_speedup()
    notes = {"repetitions": len(reps), "ops_per_repetition": len(wl.trace_ops),
             "op": wl.op_kind, "spans_per_repetition": len(tracer.spans),
             "counts_differing_between_repetitions": unsteady}
    return st, outputs, errors, metrics, notes


def main(argv=None) -> int:
    args = _parse(argv)
    boot.bootstrap()

    import specs
    import workloads
    from workloads import CheckResult

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload '{args.workload}' "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    try:
        with open(boot.ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    print(f"bandcert benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(specs.environment(), sort_keys=True))
    run = traced_run if args.trace else timed_run
    try:
        if wl.checkpoint is not None:
            specs.verify_checkpoint(wl.checkpoint)
        st, outputs, errors, metrics, notes = run(wl, args.seed, args.seconds)
    except specs.InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: BENCHMARK.json names metrics this runner does not measure: "
              f"{missing}", file=sys.stderr)
        return 2

    res = CheckResult()
    try:
        wl.check(st, outputs, res)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        res.expect(False, "the workload's check raised")
    if args.trace:
        res.expect(not notes["counts_differing_between_repetitions"],
                   "exact counts differ between traced repetitions")
    for msg in res.messages:
        print(f"check failed: {msg}")
    attempted = len(outputs) + len(errors) + res.checks
    failed = len(res.failed_ops) + len(errors) + res.failed_checks
    print("notes " + json.dumps(notes, sort_keys=True))
    print(f"checks: {attempted - failed} of {attempted} ops and checks passed "
          f"(ops_failed_frac {failed / attempted:.6g})")
    for m in wanted:
        print(f"  {m['name']:44s} {metrics[m['name']]!r:>24} {m['unit']}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
