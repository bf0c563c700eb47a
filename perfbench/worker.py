"""One round of one workload, in the fresh process that run.py starts.

    python3 perfbench/worker.py WORKLOAD SEED RESULT_JSON [--trace SPANS_JSONL]
        [--setup-only]

Set-up time runs from before `import qspherical` until the workload's inputs
are built.  Then each operation is timed on its own, wall and CPU, and the
round's wall time is taken around all of them.  With --trace the traced
entry points are wrapped after set-up, and the spans go to SPANS_JSONL.
"""

import argparse
import json
import os
import sys
import time
import traceback


def _peak_rss_mb():
    """VmHWM of this process image.  Unlike ru_maxrss it is not carried
    over from the parent through fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("result")
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workdir = os.path.dirname(args.result)

    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload](workdir, args.seed)
    result = {"setup_s": time.perf_counter() - t0}

    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans
            run_id = f"{args.workload}-seed{args.seed}-{os.path.basename(args.trace)}"
            tracer = spans.Tracer(run_id)
            tracer.install()
        ops = []
        w0 = time.perf_counter()
        for op in wl.ops:
            c, w = time.process_time(), time.perf_counter()
            try:
                ok = op()
            except Exception:       # a failed operation; the round goes on
                traceback.print_exc()
                ok = False
            ops.append((ok, time.perf_counter() - w, time.process_time() - c))
        result["wall_s"] = time.perf_counter() - w0
        result["ops"] = ops
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer:
            tracer.write(args.trace)
            result["counters"] = tracer.counters()
        result["outputs"] = wl.outputs()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
