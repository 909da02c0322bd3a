"""One workload process: a closed-loop client of ``gradedlie.cli.main``.

Started by ``run.py``; ``pin`` is also run by hand::

    python3 bench/client.py <setup|measure|trace|pin> <workload> <seed> <seconds>

The process sets up (imports, input generation, serialization, one
untimed warm-up op per subcommand), notes its CPU time and the monotonic
clock just before its first timed op, runs ops back to back, timing each
in process CPU seconds, checks every op's output, probes the workload's
probe ops once each (untimed) and prints one JSON line with what it
measured.  ``setup`` stops at the first timed op.  ``trace`` runs the
first TRACE_OPS ops untraced, then the same ops with the layer wrappers
installed, so that counts repeat exactly for a seed and the overhead
compares equal work.
``pin`` prints the input and result digests that ``pins.json`` holds for
the seed; pinned seeds are checked on every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import workloads
from tracing import Tracer
from workloads import ROOT, Outcome, op_failures, result_digest

import gradedlie.cli  # noqa: E402  (path set up by workloads)
from gradedlie.core import worker_count  # noqa: E402

MIN_SAMPLES = 100      # ten samples beyond the 90th percentile
PIN_OPS = 50           # leading ops whose digests are pinned per seed
TRACE_OPS = {"transfer": 60, "witness": 60, "wide": 60, "documents": 500}
ORACLE_INSTANCES = 3
ORACLE_ARITY = 4
ORACLE_MAX_DIM_H = 4
OUT_DIR = ROOT / ".bench_out"
PINS = ROOT / "bench" / "pins.json"


def call_main(argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = gradedlie.cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
        except Exception as error:  # an op that raises is a failed op
            code, raised = None, f"{type(error).__name__}: {error}"
    return Outcome(code, out.getvalue(), err.getvalue(), raised)


class Client:
    def __init__(self, workload, directory):
        self.workload = workload
        self.paths = []
        for doc in workload.docs:
            path = os.path.join(directory, f"{doc.name}.alg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(doc.text)
            self.paths.append(path)
        self.digests = {}        # op key -> first digest seen in this run
        self.sequence = []       # digests in run order
        self.outputs = {}        # op key -> structured report, first pass
        self.broken = []         # checks that make the whole run incorrect
        self.attempted = 0
        self.failed = 0
        self.tracer = None       # set for the traced half of a trace run

    def run(self, op):
        """Time one op and check it; returns the CPU seconds it took, summed
        over the process's threads."""
        argv = op.argv(self.paths[op.doc])
        if self.tracer is not None:
            self.tracer.op = self.attempted
        started = time.process_time()
        outcome = call_main(argv)
        elapsed = time.process_time() - started
        self.check(op, outcome)
        return elapsed

    def check(self, op, outcome):
        key = self.workload.key(op)
        reasons = op_failures(self.workload, op, outcome)
        digest = result_digest(outcome)
        if self.digests.setdefault(key, digest) != digest:
            reasons.append("result digest changed between passes")
        if reasons:
            self.failed += 1
            self.broken.append(f"{key}: {'; '.join(reasons)}")
        self.attempted += 1
        self.sequence.append(digest)
        if key not in self.outputs:
            self.outputs[key] = outcome.report()

    def probe(self):
        """Run each probe op once, untimed.  Returns how many ran and the
        failures by subcommand ({command: [count, example reasons]});
        these are counted, not fatal."""
        failures = {}
        for op in self.workload.probe:
            outcome = call_main(op.argv(self.paths[op.doc]))
            reasons = op_failures(self.workload, op, outcome)
            if reasons:
                entry = failures.setdefault(op.command, [0, []])
                entry[0] += 1
                if len(entry[1]) < 3:
                    entry[1].append(f"{self.workload.key(op)}: {reasons[0]}")
        return len(self.workload.probe), failures

    def loop(self, seconds, count=None):
        """Ops back to back: ``count`` of them, or passes over the list
        until ``seconds`` have passed and MIN_SAMPLES are in."""
        ops = self.workload.ops
        samples = []
        started = time.perf_counter()
        i = 0
        while True:
            if count is not None and i >= count:
                break
            samples.append(self.run(ops[i % len(ops)]))
            i += 1
            if count is None and i >= MIN_SAMPLES \
                    and time.perf_counter() - started >= seconds:
                break
        return samples, time.perf_counter() - started


def oracle_mismatches(workload, outputs) -> list:
    """Compare transfer tables of arity <= ORACLE_ARITY with the naive oracle.

    Uses the first ORACLE_INSTANCES transfer ops, in run order, whose dim H
    is at most ORACLE_MAX_DIM_H; ``outputs`` maps op keys to reports.
    """
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import transfer_tables_naive
    from gradedlie import documents
    from gradedlie.dgla import compute_splitting

    problems, compared = [], 0
    for op in workload.ops:
        report = outputs.get(workload.key(op))
        if op.command != "transfer" or report is None:
            continue
        doc = documents.parse_document(workload.docs[op.doc].text)
        A = documents.document_to_algebra(doc)
        s = documents.document_splitting(doc, A) or compute_splitting(A)
        if s.h_space.dim > ORACLE_MAX_DIM_H:
            continue
        got = {}
        for f in report["findings"]:
            if f["kind"] in ("inclusion-entry", "transfer-bracket") \
                    and f["arity"] <= ORACLE_ARITY:
                kind = "iota" if f["kind"] == "inclusion-entry" else "bracket"
                got[(kind, f["arity"], tuple(f["args"]))] = f["value"]
        want = {}
        for kind in ("iota", "bracket"):
            for p in range(1 if kind == "iota" else 2,
                           min(ORACLE_ARITY, op.arity) + 1):
                for idx, vec in transfer_tables_naive(A, s, kind, p).items():
                    labels = tuple(s.h_space.labels[i] for i in idx)
                    want[(kind, p, labels)] = repr(vec)
        if got != want:
            diff = sorted(set(got.items()) ^ set(want.items()))[:3]
            problems.append(f"{workload.key(op)}: oracle disagrees at {diff}")
        compared += 1
        if compared == ORACLE_INSTANCES:
            break
    if compared == 0:
        problems.append("no transfer op qualified for the oracle check")
    return problems


def pinned_problems(workload, seed, sequence) -> list:
    """Compare the input digest and the first PIN_OPS result digests with
    the values pinned for this seed, when there are any."""
    try:
        with open(PINS, encoding="utf-8") as handle:
            pins = json.load(handle).get(workload.name, {}).get(str(seed))
    except FileNotFoundError:
        pins = None
    if pins is None:
        return []
    problems = []
    if pins["inputs"] != workload.inputs_digest():
        problems.append("serialized inputs differ from the pinned digest")
    if pins["results"] != leading_digest(sequence):
        problems.append(f"results of the first {PIN_OPS} ops differ from "
                        "the pinned digest")
    return problems


def leading_digest(sequence) -> str:
    return hashlib.sha256("".join(sequence[:PIN_OPS]).encode()).hexdigest()


def main(argv):
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    OUT_DIR.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        workload = workloads.build(name, seed)
        client = Client(workload, directory)
        for op in workload.warmups:
            call_main(op.argv(client.paths[op.doc]))
        result = {"ready": time.monotonic(), "setup_cpu": time.process_time(),
                  "nproc": os.cpu_count(),
                  "worker_count": worker_count(),
                  "python": sys.version.split()[0]}
        if mode == "setup":
            print(json.dumps(result))
            return 0
        if mode == "pin":
            client.loop(0, PIN_OPS)
            print(json.dumps({"inputs": workload.inputs_digest(),
                              "results": leading_digest(client.sequence)}))
            return 0
        if mode == "measure":
            samples, wall = client.loop(seconds)
        else:
            count = min(TRACE_OPS[name], len(workload.ops))
            untraced, wall = client.loop(seconds, count)
            client.tracer = Tracer().install()
            try:
                traced, _ = client.loop(seconds, count)
            finally:
                client.tracer.restore()
            result["layers"] = client.tracer.metrics(count)
            result["untraced_s"] = sum(untraced)
            result["traced_s"] = sum(traced)
            spans = OUT_DIR / f"spans-{name}-{seed}.jsonl"
            client.tracer.dump(spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
            samples = untraced
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probed, failures = client.probe()
        if name == "transfer":
            client.broken += oracle_mismatches(workload, client.outputs)
        client.broken += pinned_problems(workload, seed, client.sequence)
        result.update(
            samples=samples, wall_s=wall, attempted=client.attempted,
            failed=client.failed, broken=client.broken, probed=probed,
            failures=failures, rss_mb=rss_mb)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
