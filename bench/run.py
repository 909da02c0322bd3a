"""The gradedlie benchmark: one seeded workload, measured end to end or traced.

    python3 bench/run.py --workload transfer --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it needs ``src/gradedlie``
and ``tests/oracles.py`` there and installs nothing.  Workloads:

transfer   ``transfer --arity N`` on a seeded ``random_two_step`` ladder
           (dim 6-12, dim H 3-6, N 4-6): level recursion and the
           morphism/axiom re-checks.
witness    ``formality --arity N`` on seeded quasi-cyclic two-step and
           symplectic-representation instances: the witness lemma
           battery, the coefficient solves, two transfers per op.
wide       ``validate``, ``cohomology`` and ``massey`` on seeded
           quasi-cyclic two-step algebras of dim 16-20: validation,
           splitting linear algebra and a full Massey scan, no transfer.
documents  every subcommand on the bundled documents and seeded
           single-constant edits of them: parsing, dispatch, rendering
           and the error paths.  Edits that make the document invalid
           are timed through ``validate`` only; through the other
           subcommands they are probed once, untimed, and the share of
           those probe ops that break the failure rules of
           ``workloads.op_failures`` (wrong verdicts, tracebacks) is
           printed as ``robustness.failed_ratio``.

Each workload runs in its own process (``client.py``) with LF_THREADS
removed from the environment, so the shipped default thread fan-out is
what is measured.  Set-up runs SETUPS times, in separate processes, and
``setup_s`` is their median.

Every time reported is CPU seconds of the workload process, summed over
its threads: ``setup_s`` from process start to the first timed op,
``verdict_s`` per op, and ``ops_per_s`` as ops per CPU second.  On a
shared 2-vCPU virtual machine, steal time (the hypervisor running other
guests) measured 9-20 % of both vCPUs from one 7 s window to the next;
wall time carries all of it, and it spread a workload's wall-clock
figures over six runs about twice as wide as its CPU-time figures.  The
``parallel_map`` fan-out uses threads under the GIL, so CPU time of an
op is close to its wall time on an idle machine.  Work moved
into child processes, or threads that run in parallel outside the GIL,
would not show as it does on a wall clock; the wall-clock throughput and
set-up are printed beside the metrics for that reason.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1``, the per-layer metrics of a
separate traced run (``client.py trace``), its ``ops_per_s`` and its
overhead against the same ops untraced.  Full results, and the spans of
a traced run, go to ``.bench_out/``.  The exit code is nonzero when a
timed op fails its output check, or a digest or the oracle comparison
fails; failed probe ops are reported, not fatal.

``pins.json`` pins, for seeds 0-9, a digest of the serialized inputs and
one of the results of each workload's first ops, so that a change to the
generators or to any verdict shows; ``python3 bench/client.py pin
<workload> <seed> 0`` prints the pair for one seed.  The benchmark's own
tests run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
CHILD_TIMEOUT_S = 170
WORKLOADS = ("transfer", "witness", "wide", "documents")
LAYER_UNITS = {"calls": "count", "raised": "count", "self_s": "s",
               "items": "count", "violations": "count", "per_op": "calls/op",
               "per_detect": "calls/detect"}
TRACE_METRICS = {"trace.ops_per_s": "ops/s",
                 "trace.untraced_ops_per_s": "ops/s",
                 "trace.overhead": "ratio"}


def child(mode, workload, seed, seconds):
    """Run one workload process; returns (its result, wall seconds from
    start to its first timed op)."""
    env = dict(os.environ)
    env.pop("LF_THREADS", None)      # LF_THREADS= (empty) makes every op exit 2
    argv = [sys.executable, str(HERE / "client.py"), mode, workload,
            str(seed), str(seconds)]
    started = time.monotonic()
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process for {workload} exited "
                           f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - started


def percentile(samples, q):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def measure(workload, seed, seconds):
    runs = [child("setup", workload, seed, seconds)
            for _ in range(SETUPS - 1)]
    runs.append(child("measure", workload, seed, seconds))
    result = runs[-1][0]
    result["setup_wall_s"] = statistics.median(wall for _, wall in runs)
    samples = result["samples"]
    metrics = {
        "setup_s": (statistics.median(r["setup_cpu"] for r, _ in runs),
                    "s"),
        "ops_per_s": (len(samples) / sum(samples), "ops/s"),
        "verdict_s.p50": (percentile(samples, 50), "s"),
        "verdict_s.p90": (percentile(samples, 90), "s"),
        "peak_rss_mb": (result["rss_mb"], "MiB"),
    }
    return result, metrics


def trace(workload, seed, seconds):
    result, _ = child("trace", workload, seed, seconds)
    metrics = {name: (value, LAYER_UNITS[name.rsplit(".", 1)[1]])
               for name, value in result["layers"].items()}
    count = len(result["samples"])
    values = {"trace.ops_per_s": count / result["traced_s"],
              "trace.untraced_ops_per_s": count / result["untraced_s"],
              "trace.overhead": result["traced_s"] / result["untraced_s"] - 1}
    metrics.update((name, (values[name], unit))
                   for name, unit in TRACE_METRICS.items())
    return result, metrics


def report(args, result, metrics):
    lines = [f"# gradedlie benchmark: workload {args.workload}, seed "
             f"{args.seed}, trace {args.trace}; nproc {result['nproc']}, "
             f"core.worker_count() {result['worker_count']}, Python "
             f"{result['python']}"]
    if not args.trace:
        n = len(result["samples"])
        lines.append(f"# {n} ops in {result['wall_s']:.2f} s wall, closed "
                     f"loop, one client; setup_s is the median of {SETUPS} "
                     "set-ups; times are process CPU seconds")
        lines.append(f"# wall clock: {n / result['wall_s']:.6g} ops/s, "
                     f"set-up {result['setup_wall_s']:.6g} s")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:44s} {value:.6g} {unit}")
    lines.append(f"{'failed_ratio':44s} "
                 f"{result['failed'] / result['attempted']:.6g} 1 "
                 f"({result['failed']} of {result['attempted']} timed ops)")
    if result["probed"]:
        failed = sum(count for count, _ in result["failures"].values())
        lines.append(f"{'robustness.failed_ratio':44s} "
                     f"{failed / result['probed']:.6g} 1 ({failed} of "
                     f"{result['probed']} probe ops on invalid documents)")
    for command, (count, examples) in sorted(result["failures"].items()):
        lines.append(f"# probe failed {command}: {count}")
        lines += [f"#   {example}" for example in examples]
    for problem in result["broken"]:
        lines.append(f"# CHECK FAILED: {problem}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gradedlie").is_dir():
        print(f"error: no src/gradedlie under {ROOT}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    run = trace if args.trace else measure
    result, metrics = run(args.workload, args.seed, args.seconds)
    text = report(args, result, metrics)
    print(text)
    correct = not result["broken"]
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(ROOT / ".bench_out" / name, "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "correct": correct, **{
            k: v for k, v in result.items() if k != "samples"},
            "samples": result["samples"], "metrics": metrics}, handle,
            indent=1)
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
