"""Runner: one workload, one process.  Launched by ``run.py``, which
samples this process tree's memory and reaps whatever it leaves behind.

    python3 runner.py --workload W --seed N --seconds S --trace 0|1 \
        --out result.json --tmp DIR [--smoke]

Generates the inputs from the seed, runs the workload against the program
under ``src/`` and writes one JSON object to ``--out``: every metric it
measured (the per-layer ones in traced runs only), operations attempted /
failed and the SHA-256 of the inputs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, os.pardir, "src")

#: workload -> (module of suitelib, function)
RUNNERS = {
    "engine_write_heavy": ("wl_engine", "run"),
    "engine_read_heavy": ("wl_engine", "run"),
    "serve_feed": ("wl_serve", "run_feed"),
    "durable_ingest": ("wl_serve", "run_durable"),
    "gateway_fanout": ("wl_gateway", "run"),
}


def pin_to_one_cpu():
    """Confine this process, and with it every thread and process the
    workload starts, to one CPU: the one that runs the speed meter's
    reference faster right now.  The two virtual CPUs of this sandbox slow
    down independently of each other (a neighbour on the sibling
    hyperthread of one of them: 1.6x for a minute at a time, now and then
    4x), so the meter in the load loop can only speak for the CPU it runs
    on; with a server's processes spread over both, a run's numbers moved
    by up to 0.4 with the neighbours.  On one CPU the numbers are a
    pipeline's total work per event, not its parallel speed — which two
    shared cores cannot show steadily anyway.  Returns the CPU, or
    ``None`` where affinity cannot be set."""
    from suitelib.harness import SpeedMeter

    try:
        allowed = sorted(os.sched_getaffinity(0))
        meter = SpeedMeter()
        cost = {}
        for cpu in allowed:
            os.sched_setaffinity(0, {cpu})
            cost[cpu] = min(meter.reference() for _ in range(200))
        best = min(cost, key=cost.get)
        os.sched_setaffinity(0, {best})
        return best
    except (AttributeError, OSError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("runner: no src/repro next to the suite — nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)

    from suitelib import gen
    from suitelib.harness import Ctx
    from suitelib.trace import Tracer

    cpu = pin_to_one_cpu()

    module, function = RUNNERS[args.workload]
    run = getattr(importlib.import_module(f"suitelib.{module}"), function)
    specs = gen.SMOKE_SPECS if args.smoke else gen.SPECS

    # SIGTERM unwinds through the workloads' ``finally`` blocks, so
    # gateway, clients and server are closed before the process ends.
    def on_term(_signo, _frame):
        raise SystemExit(143)

    signal.signal(signal.SIGTERM, on_term)

    ctx = Ctx(
        workload=args.workload,
        inputs=gen.generate(specs[args.workload], args.seed),
        seconds=args.seconds,
        tracer=Tracer(bool(args.trace)),
        tmp_dir=args.tmp,
        smoke=args.smoke,
    )
    result = run(ctx)
    result.update(
        attempted=ctx.tally.attempted,
        failed=ctx.tally.failed,
        failures=ctx.tally.reasons,
        input_sha256=ctx.inputs.sha256,
    )
    result["info"]["cpu"] = cpu
    if ctx.tracer.enabled:
        trace_path = os.path.join(os.path.dirname(args.out), f"trace-{args.workload}.json")
        ctx.tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed})
        result["trace_file"] = trace_path
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
