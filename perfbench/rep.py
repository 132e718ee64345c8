"""One repetition of one workload, in the interpreter that runs this file.

    python3 perfbench/rep.py --workload NAME --seed N [--trace] [--spans FILE]

The runner (``run.py``) starts every repetition in a fresh interpreter,
with ``src`` on the path. Set-up is timed from after the imports until
the workload is ready; the timed phase is the workload's closed loop.
Both times are normalized to the reference host speed
(:mod:`hostspeed`); their wall times are reported next to them. The
last line of standard output is one JSON object: the timings, peak RSS,
the workload's outcome and, with ``--trace``, its per-layer metrics and
table. With ``--spans`` the traced spans are written there (gzip JSON
lines) when the repetition ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import hostspeed
import layers
import spans
import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    host = hostspeed.HostSpeed()
    tracer = spans.Tracer(host.program_clock)
    patches = layers.install(tracer) if args.trace else spans.Patches()
    try:
        started = host.start()
        state = workload.setup(args.seed, workload.sizes["full"])
        ready = host.mark()
        origin = host.program_clock()
        first = len(tracer)
        result = workload.run(state)
        done = host.mark()
        last = len(tracer)
    finally:
        host.stop()
        patches.restore()
    # Read before the checks, which build ledger rows of their own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = workload.check(state, result)

    out = {
        "metrics": {
            "setup_s": host.normalized(started, ready),
            "run_s": host.normalized(ready, done),
            "peak_rss_mb": peak_rss_mb,
        },
        "wall": {"setup_s": host.wall(started, ready), "run_s": host.wall(ready, done)},
        "speed": host.speed(started, done),
        "outcomes": outcome.metrics,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "problems": outcome.problems[:20],
    }
    if args.trace:
        run_s = host.wall(ready, done)
        run = tracer.totals(first, last)
        known = {**outcome.metrics, **outcome.counts}
        out["layers"] = layers.layer_metrics(tracer, run, first, last, run_s, known)
        out["table"] = layers.report(run, run_s)
        if args.spans:
            tracer.write(args.spans, origin_s=origin)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
