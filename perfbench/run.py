"""Benchmark of the exact checker: one command, three workloads.

    python3 perfbench/run.py --workload {invariance,scan,precompose} \
        --seed N --seconds S --trace {0,1}

Runs whole rounds of the workload, one after another, each in a fresh
single-threaded Python process (perfbench/worker.py), until S seconds have
passed; a closed loop with one caller.  Then it checks every round's outputs
(checks.py) and prints, as the last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones.  wall_s and cpu_s add
up, over the round's operations, each operation's median over the rounds:
on a shared 2-CPU host the speed can swing by up to 2x for seconds at a
time, and a median per operation keeps such a swing out of the sum unless
it hits most rounds.
setup_s is a median over at least MIN_SETUP_SAMPLES processes, peak_rss_mb a
median over the rounds.  With --trace 1 the rounds are traced (spans.py) and
the metrics are per layer.  Raw results and span files go to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 120
WORKLOADS = ("invariance", "scan", "precompose")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


def _worker(workload, seed, result, trace=None, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), result]
    if trace:
        cmd += ["--trace", trace]
    if setup_only:
        cmd.append("--setup-only")
    # A fixed hash seed keeps every set and dict order, and so every count,
    # the same from one process to the next.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _per_layer(rounds, span_files):
    import spans
    per_round = []
    for r, path in zip(rounds, span_files):
        m = spans.summarize(path, r["wall_s"])
        m.update(r["counters"])
        m["trace.wall_s"] = r["wall_s"]
        per_round.append(m)
    metrics = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        if name.endswith((".calls", ".rows", ".peak_terms")):
            if len(set(values)) != 1:
                raise RuntimeError(f"{name} differs between rounds: {values}")
            metrics[name] = {"value": values[0], "unit": "count"}
        else:
            unit = "share" if name.endswith("_share") else "s"
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qspherical", "__init__.py")):
        print(f"no qspherical sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, HERE)
    import checks

    rundir = os.path.join(HERE, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(rundir, exist_ok=True)
    rounds, span_files = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        k = len(rounds)
        trace = os.path.join(rundir, f"spans-{k}.jsonl") if args.trace else None
        rounds.append(_worker(args.workload, args.seed,
                              os.path.join(rundir, f"round-{k}.json"), trace))
        span_files.append(trace)
    setups = [r["setup_s"] for r in rounds]
    while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
        extra = _worker(args.workload, args.seed,
                        os.path.join(rundir, f"setup-{len(setups)}.json"),
                        setup_only=True)
        setups.append(extra["setup_s"])

    problems = []
    for k, r in enumerate(rounds):
        problems += [f"round {k}: {p}"
                     for p in checks.CHECKS[args.workload](r["outputs"])]
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(not ok for r in rounds for ok, _, _ in r["ops"])

    if args.trace:
        metrics = _per_layer(rounds, span_files)
    else:
        per_op = list(zip(*(r["ops"] for r in rounds)))
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(statistics.median(t[1] for t in op) for op in per_op),
            "cpu_s": sum(statistics.median(t[2] for t in op) for op in per_op),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    out = {"correct": not problems, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    with open(os.path.join(rundir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(out, rounds=len(rounds), problems=problems,
                       setup_samples=setups), fh, indent=1)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
