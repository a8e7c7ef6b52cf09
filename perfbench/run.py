"""grwlab benchmark: four workloads, timed end to end and per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each exists):
chain_ensemble, grid_trajectory, energy_ledger, scenario_suite.

Each run is one process on one thread driving a closed loop: one client,
and op i + 1 starts only when op i has finished and been checked.  An op
fails when it raises, when a deterministic check on its output fails, or
when its output differs from the earlier op on the same input.

--trace 0 prints the end-to-end metrics:
  setup_s       median over fresh processes of the time from spawn to the
                inputs being built (import grwlab, load and resolve configs)
  op_mean_s     mean op time (the median, op_p50_s, is printed and recorded
                too; on a shared 2-vCPU VM other tenants slowed ops by up to 2x
                in bursts, so op time was bimodal and the run median flipped
                between the modes where the mean moved smoothly)
  op_tail_s     op time at the highest percentile, at most p90, that has at
                least ten samples beyond it (percentile and count reported)
  work_per_s    work units done / time spent in ops, over the run's timed ops
  peak_rss_mib  peak RSS of the run's process
  ok_ratio      ops passing every check / ops attempted (1 - fail_ratio; a
                benchmark metric may not read 0)
--trace 1 runs the first half of --seconds untraced and the second half
with every grwlab layer wrapped (tracing.py), and prints the per-layer
metrics and the tracing overhead.

The last line of standard output is the JSON result.  Each run also appends
a record, with every op time, to .perfbench_out/runs.jsonl, which
compare.py reads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import checkout

checkout.use_checkout()

import numpy as np  # noqa: E402  (after the thread variables are pinned)

import grwlab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_mean_s": "s",
    "op_tail_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}
MIN_OPS = 2
SETUP_PROBES = 7
TAIL_BEYOND = 10
TAIL_CAP = 90.0


class Loop:
    """Runs, times and checks ops; op i uses input i // 2."""

    def __init__(self, workload):
        self.workload = workload
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: Counter = Counter()

    def op(self, i: int, tracer: tracing.Tracer | None = None) -> tuple[float, float] | None:
        """One op; returns (seconds, work units), or None when it failed."""
        key = i // 2
        inputs = self.workload.prepare(key)
        self.attempted += 1
        try:
            with tracer.op_span(i) if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                outputs = self.workload.run(inputs)
                elapsed = time.perf_counter() - start
            outcome = self.workload.check(outputs)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            return None
        problems = list(outcome.problems)
        if self.digests.setdefault(key, outcome.digest) != outcome.digest:
            problems.append("output differs from an earlier op on the same input")
        self.notes.update(outcome.notes)
        if problems:
            self.failures.append(f"op {i}: " + "; ".join(problems))
            return None
        return elapsed, outcome.work

    def phase(self, seconds: float, first: int, tracer=None) -> tuple[list[float], list[float]]:
        """Ops first, first + 1, ... until ``seconds`` have passed (at least MIN_OPS)."""
        times, work = [], []
        deadline = time.perf_counter() + seconds
        i = first
        while i - first < MIN_OPS or time.perf_counter() < deadline:
            timed = self.op(i, tracer)
            i += 1
            if timed is not None:
                times.append(timed[0])
                work.append(timed[1])
        return times, work


def op_tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest nearest-rank
    percentile, at most TAIL_CAP, with at least TAIL_BEYOND samples above it.

    With too few ops this is the maximum, with fewer samples beyond it; the
    report says so.  The cap matters only for short ops: on a shared 2-vCPU
    VM, above p90 the 60-ms scenario_suite ops measure bursts from other
    tenants, and its run-to-run spread was three times that at p90.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = min(n - TAIL_BEYOND, math.ceil(TAIL_CAP / 100.0 * n))
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def setup_times(name: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh process to its inputs being built."""
    command = [sys.executable, str(Path(__file__).with_name("probe.py")), name, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            command, cwd=checkout.ROOT, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        times.append(elapsed)
    return times


def git_commit() -> str:
    head = checkout.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = checkout.ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = checkout.ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine() -> dict:
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "grwlab": grwlab.__version__,
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "thread_env": {var: os.environ.get(var) for var in checkout.THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    checkout.OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=checkout.OUT))
    try:
        setup = [] if args.trace else setup_times(args.workload, args.seed)
        workload = workloads.WORKLOADS[args.workload](checkout.ROOT, out_dir, args.seed)
        loop = Loop(workload)
        loop.op(0)  # warm-up: fills lazy caches, and is checked like any op
        if args.trace:
            times, _ = loop.phase(args.seconds / 2, first=1)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, _ = loop.phase(args.seconds / 2, first=0, tracer=tracer)
            finally:
                tracer.uninstall()
        else:
            times, work = loop.phase(args.seconds, first=1)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if not times or (args.trace and not traced):
        sys.exit("perfbench: no op passed its checks:\n" + "\n".join(loop.failures[:5]))

    info = machine()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "unit": workload.unit,
        "working_set": workload.working_set,
        "machine": info,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"work unit: {workload.unit}")
    print(f"machine  python {info['python']}  numpy {info['numpy']}  grwlab {info['grwlab']}  "
          f"commit {info['commit']}  nproc {info['nproc']}  {info['cpu_model']}  "
          f"caches {info['caches']}  threads {info['thread_env']}")
    print(f"working set: {workload.working_set}; it fits in L2, so the kernels run "
          "cache-resident and memory bandwidth is not measured")
    if isinstance(workload, workloads.CliWorkload):
        print("outputs are written to the page cache; disk behaviour is not measured")

    if args.trace:
        untraced_p50 = statistics.median(times)
        traced_p50 = statistics.median(traced)
        values = tracer.metrics(traced_p50, untraced_p50)
        spans = checkout.OUT / f"spans.{args.workload}.npz"
        tracer.save(spans)
        units = tracing.metric_units()
        print(f"traced {len(traced)} ops after {len(times)} untraced; spans in {spans}")
        print(f"tracing overhead: traced op_p50_s {traced_p50:.6g} / untraced "
              f"{untraced_p50:.6g} = {values['trace.overhead']:.4g}")
        print("calls and counts are from traced op 0; times are medians over traced ops")
        print(f"{'function':34} {'calls':>9} {'total_s':>11} {'self_s':>11} {'errors':>6}")
        for name, _, _ in tracing.TRACED:
            print(f"{name:34} {values[name + '.calls']:9.0f} {values[name + '.total_s']:11.6f} "
                  f"{values[name + '.self_s']:11.6f} {values[name + '.errors']:6.0f}")
        for name, unit in tracing.COUNTS:
            note = ""
            if name.endswith("_computed"):
                note = "  (computed from array sizes; cache-resident, not bandwidth)"
            elif name == "cli.write_outputs.bytes":
                note = "  (to the page cache)"
            print(f"{name:34} {values[name]:.6g} {unit}{note}")
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        n = len(times)
        tail, percentile, beyond = op_tail(times)
        ok = loop.attempted - len(loop.failures)
        values = {
            "setup_s": statistics.median(setup),
            "op_mean_s": math.fsum(times) / n,
            "op_tail_s": tail,
            "work_per_s": math.fsum(work) / math.fsum(times),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": ok / loop.attempted,
        }
        record["op_tail"] = {"percentile": percentile, "beyond": beyond, "ops": n}
        record["op_p50_s"] = statistics.median(times)
        record["op_times"] = times
        record["op_work"] = work
        record["setup_times"] = setup
        print(f"timed {n} ops in a closed loop after one warm-up op; "
              f"setup_s is the median of {len(setup)} fresh processes")
        if beyond < TAIL_BEYOND:
            print(f"op_tail_s: only {n} timed ops, so it is the maximum op time, with "
                  f"fewer than {TAIL_BEYOND} samples beyond it")
        else:
            print(f"op_tail_s: p{percentile:.1f} of {n} ops, {beyond} samples beyond it")
        print(f"op_p50_s {record['op_p50_s']:.6g} s (median op time; not gated)")
        print(f"fail_ratio {len(loop.failures) / loop.attempted:.6g} "
              f"({len(loop.failures)} of {loop.attempted} ops)")
        for name, unit in END_TO_END_UNITS.items():
            print(f"{name:14} {values[name]:.6g} {unit}")
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
                   for name in END_TO_END_UNITS}

    for failure in loop.failures[:5]:
        print(f"FAILED {failure}")
    for note, count in sorted(loop.notes.items()):
        print(f"statistical verdict {note} false in {count} of {loop.attempted} ops "
              "(by design for about 0.27% of seeds; not a failure)")
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }
    record.update(result, failures=loop.failures[:20], statistical_notes=dict(loop.notes))
    with open(checkout.OUT / "runs.jsonl", "a") as runs:
        runs.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
