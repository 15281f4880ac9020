#!/usr/bin/env python3
"""The painstrata benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_p6 --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 18        # every workload
    python3 perfbench/run.py --workload exact_ops --seed 1 --seconds 5 --profile 25

One process, one closed-loop client: each operation calls
``painstrata.cli.main(argv)`` in-process with stdout captured, and the next
starts when it returns.  ``--seed`` fixes every generated input; the program
sees only batch files and argv.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.  The line before it is a ``report`` object with sample
counts, the tail percentile used, ``failed_ratio`` with its base, the
workload properties of this seed and any correctness problems.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import typing
from array import array
from fractions import Fraction
from time import perf_counter, thread_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up (import plus warm-up) and a cold start are measured INTERLUDES
# times, spread evenly over the timed run with the clock stopped: the speed
# of a shared machine drifts over seconds, and samples taken at different
# times are steadier than samples taken back to back.
INTERLUDES = 25
SETUP_REPEATS = 5   # traced run, back to back, for cli.import_ms
COLD_START_ARGV = ["classify", "--family", "p3", "--params", "1,1"]

# The tail percentile is a fixed choice per workload, so that a change in
# throughput does not change which percentile is compared.  Each is the
# highest of 50/90/95/99/99.9 that keeps at least ten samples beyond it at
# 80% of this commit's lowest throughput (10k-12k, 146k-204k, 1.7k-2.0k and
# 1.8k-2.2k operations in an 18 s run over seeds 1-10): sweep_p6 would keep
# only about eight beyond p99.9, so it uses p99.
TAIL_PERCENTILE = {"sweep_p6": 99.0, "sweep_light": 99.9,
                   "simulate": 99.0, "exact_ops": 99.0}

# Times are reported at reference speed.  The machines this runs on are
# shared virtual machines whose speed drifts by 20-40% over seconds to
# minutes, for every process alike; a fixed computation (speed_probe) run
# between operations measures that drift, and each measured time is scaled
# by PROBE_REFERENCE_S / (the mean of the probes before and after it).  The
# scaled times read as seconds on a machine where the probe takes
# PROBE_REFERENCE_S, about its median where the baseline was measured.  The
# unscaled wall-clock figures are in the report.
PROBE_TERMS = 40
PROBE_REFERENCE_S = 1.0e-4

# Times taken inside the benchmark process are read on this thread's CPU
# clock (user plus system time); the cold start is the child's CPU time.
# On a shared machine, time spent waiting for a CPU that another process
# holds is not the program's, and counting it made the figures follow the
# neighbours' load: a busy loop on the same CPU halved ops_per_s and took
# op_ms_tail on sweep_p6 from 2.9 to 7.0 ms, where on this clock it stayed
# at 2.9 ms.  Waits of the program's own (blocking I/O, sleeping) are not
# counted either; the wall-clock figures in the report count them.
clock = thread_time

# Latency records are kept in preallocated storage of this many values, so
# that the benchmark's own memory, and so peak_rss_mb, does not grow with
# throughput.  Every workload stays below it at this commit; past it the
# records are thinned to every other value (Samples).
SAMPLE_CAPACITY = 1 << 18

# Traced run: the fixed prefix of each pool (sweep batches or commands) over
# which counts are taken, so that they repeat exactly for a seed.
TRACE_PREFIX = {"sweep_p6": 16, "sweep_light": 10, "simulate": 100, "exact_ops": 100}


class Sink:
    """Captured stdout that timestamps the end of every document, on the CPU
    clock (``stamps``) and on the wall clock (``wall_stamps``)."""

    def __init__(self, tracer=None):
        self.parts = []
        self.stamps = []
        self.wall_stamps = []
        self.tracer = tracer

    def write(self, text):
        self.parts.append(text)
        ends = text.count("\n")
        if ends:
            self.stamps += [clock()] * ends
            self.wall_stamps += [perf_counter()] * ends
            if self.tracer is not None:
                self.tracer.op += ends
        return len(text)

    def flush(self):
        pass


def call(cli, argv, tracer=None):
    """(exit code, stdout, traceback or None, sink, (start, end) on the CPU
    clock, (start, end) on the wall clock)."""
    sink = Sink(tracer)
    saved, sys.stdout = sys.stdout, sink
    code = exc = None
    wall_start, start = perf_counter(), clock()
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception:
        exc = traceback.format_exc()
    finally:
        end, wall_end = clock(), perf_counter()
        sys.stdout = saved
    return code, "".join(sink.parts), exc, sink, (start, end), (wall_start, wall_end)


def gaps(start, stamps):
    """Per-document latencies: the gaps between consecutive stamps."""
    return [b - a for a, b in zip([start] + stamps, stamps)]


def speed_probe() -> float:
    """Seconds a fixed sum of fractions takes now.

    Fraction arithmetic is what painstrata spends its time on, so the probe
    slows down with the machine the way the program does.  The garbage
    collector is off inside it, so the program's garbage cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = clock()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i)
    seconds = clock() - start
    if enabled:
        gc.enable()
    return seconds


class Samples:
    """Up to ``capacity`` values in storage allocated up front.

    When the storage is full, every other value is dropped and from then on
    only every other value offered is kept, so what is kept is always an
    even sample of all values offered.  Instances fed the same number of
    values keep the same positions.
    """

    def __init__(self, capacity=SAMPLE_CAPACITY):
        self.values = array("d", bytes(8 * capacity))
        self.n = 0          # values kept
        self.offered = 0
        self.stride = 1     # keep every stride-th value offered

    def add(self, value):
        if self.offered % self.stride == 0:
            if self.n == len(self.values):
                values = self.values
                for j in range(self.n // 2):
                    values[j] = values[2 * j]
                self.n //= 2
                self.stride *= 2
            if self.offered % self.stride == 0:
                self.values[self.n] = value
                self.n += 1
        self.offered += 1

    def sorted(self):
        return sorted(self.values[:self.n])

    def __len__(self):
        return self.n


class Loop:
    """Results of a closed loop over a pool of operations.

    ``latencies`` and ``busy`` are CPU-clock times at reference speed;
    ``wall_latencies`` and ``wall_busy`` are as the wall clock read them.
    """

    def __init__(self):
        self.outcomes = {}       # (op index, code, stdout, traceback) -> times seen
        self.latencies = Samples()    # seconds at reference speed, per completed unit
        self.wall_latencies = Samples()
        self.speed = Samples(1 << 16)   # PROBE_REFERENCE_S / probe time, one per operation
        self.attempted = 0
        self.completed = 0
        self.busy = 0.0          # time inside cli.main, at reference speed
        self.wall_busy = 0.0
        self.elapsed = 0.0
        self.prefix_busy = None


def pin_to_current_cpu():
    """Keep this process, and the cold-start children it spawns, on the CPU
    it started on, so that the speed probes measure the CPU the measured
    work runs on.  The two CPUs of a shared machine drift independently."""
    try:
        sched_getcpu = ctypes.CDLL(None).sched_getcpu
        sched_getcpu.argtypes = []
        sched_getcpu.restype = ctypes.c_int
        cpu = sched_getcpu()
        if cpu >= 0:
            os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError):
        pass


def run_loop(cli, ops, seconds, min_ops=0, tracer=None, interlude=None) -> Loop:
    """Run ops in pool order, cycling, until ``seconds`` and ``min_ops`` are met.

    ``interlude()``, if given, runs INTERLUDES - 1 times at even intervals
    with the clock stopped, and returns the cli module to go on with.
    """
    loop = Loop()
    start = perf_counter()
    paused = 0.0
    gap = seconds / INTERLUDES
    next_pause = gap if interlude else float("inf")
    probe = speed_probe()
    i = 0
    while i < min_ops or perf_counter() - start - paused < seconds:
        if perf_counter() - start - paused >= next_pause:
            pause = perf_counter()
            cli = None   # the interlude imports afresh; let the old import go
            cli = interlude()
            paused += perf_counter() - pause
            next_pause += gap
            probe = speed_probe()
        index = i % len(ops)
        op = ops[index]
        if tracer is not None:
            tracer.op = i * op.units
        code, text, exc, sink, (t0, t1), (w0, w1) = call(cli, op.argv, tracer)
        before, probe = probe, speed_probe()
        speed = 2 * PROBE_REFERENCE_S / (before + probe)
        key = (index, code, text, exc)
        loop.outcomes[key] = loop.outcomes.get(key, 0) + 1
        loop.attempted += op.units
        loop.speed.add(speed)
        loop.busy += (t1 - t0) * speed
        loop.wall_busy += w1 - w0
        if op.kind == "sweep":
            times, wall = gaps(t0, sink.stamps), gaps(w0, sink.wall_stamps)
        else:
            times, wall = ([], []) if exc is not None else ([t1 - t0], [w1 - w0])
        for t, w in zip(times, wall):
            loop.latencies.add(t * speed)
            loop.wall_latencies.add(w)
        loop.completed += len(times)
        i += 1
        if i == min_ops:
            loop.prefix_busy = loop.busy
    loop.elapsed = perf_counter() - start - paused
    return loop


def fresh_import():
    """Import painstrata afresh; returns (cli module, seconds)."""
    for name in [m for m in sys.modules if m == "painstrata" or m.startswith("painstrata.")]:
        del sys.modules[name]
    # typing caches the annotations an import evaluates (Union[...] of its
    # classes), and through them would keep every earlier import alive
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()   # free the previous import, so peak_rss_mb does not count it
    start = clock()
    cli = importlib.import_module("painstrata.cli")
    return cli, clock() - start


def probed(measure):
    """Run ``measure()`` between two speed probes; returns (its result, the
    factor that scales its times to reference speed)."""
    before = speed_probe()
    result = measure()
    return result, 2 * PROBE_REFERENCE_S / (before + speed_probe())


def setup(workload):
    """Import plus warm-up; returns (cli module, total seconds, import
    seconds, total wall seconds)."""
    wall_start, start = perf_counter(), clock()
    cli, seconds = fresh_import()
    for argv in workloads.WARMUP[workload]:
        code, text, exc, *_ = call(cli, argv)
        if exc is not None or code != 0:
            raise RuntimeError(f"warm-up {argv} failed: {exc or text}")
    return cli, clock() - start, seconds, perf_counter() - wall_start


def cold_start():
    """(CPU seconds, wall seconds) of a fresh interpreter running
    ``painstrata classify``; the CPU time is the child's user plus system
    time."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import sys; from painstrata.cli import main; sys.exit(main())"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *COLD_START_ARGV], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0 or '"stratum"' not in proc.stdout:
        raise RuntimeError(f"cold start failed: {proc.stderr or proc.stdout}")
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return cpu, elapsed


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, -(-int(pct * 10) * n // 1000))
    return sorted_values[rank - 1], n - rank


def check(workload, ops, loops):
    """Run the reference over every distinct outcome; returns the tallies."""
    # imported only now: jsonschema and scipy must not count in peak_rss_mb
    from reference import Checker, shares
    checker = Checker(ROOT)
    failed = 0
    problems = []
    seen = set()
    for loop in loops:
        for (index, code, text, exc), times in loop.outcomes.items():
            op = ops[index]
            n_failed, problem = checker.check(op, code, text, exc)
            failed += n_failed * times
            if problem and len(problems) < 10:
                problems.append(f"{' '.join(op.argv)[:160]}: {problem}")
            if index not in seen:
                seen.add(index)
                checker.record(workload, op)
    return failed, problems, shares(checker.properties)


def load_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def end_to_end(args, ops):
    setups, colds = [], []

    def interlude():
        (cli, seconds, _, wall), speed = probed(lambda: setup(args.workload))
        setups.append((seconds * speed, wall))
        (seconds, wall), speed = probed(cold_start)
        colds.append((seconds * speed, wall))
        return cli

    loop = run_loop(interlude(), ops, args.seconds, interlude=interlude)
    # read before the sorting below and before the reference imports scipy
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems, properties = check(args.workload, ops, [loop])

    pct = TAIL_PERCENTILE[args.workload]
    metrics, wall = {}, {}
    for out, latencies, busy, setup_s, cold_s in (
            (metrics, loop.latencies, loop.busy, [s for s, _ in setups], [c for c, _ in colds]),
            (wall, loop.wall_latencies, loop.wall_busy, [w for _, w in setups],
             [w for _, w in colds])):
        latencies = latencies.sorted()
        tail, beyond = percentile(latencies, pct)
        out.update({
            "ops_per_s": loop.completed / busy,
            "op_ms_p50": statistics.median(latencies) * 1e3,
            "op_ms_tail": tail * 1e3,
            "setup_s": statistics.median(setup_s),
            "cold_start_ms": statistics.median(cold_s) * 1e3,
        })
    metrics["peak_rss_mb"] = peak_rss_mb
    report = {
        "samples": {"ops_per_s": loop.completed, "op_ms_p50": len(loop.latencies),
                    "op_ms_tail": len(loop.latencies), "setup_s": len(setups),
                    "cold_start_ms": len(colds), "peak_rss_mb": 1},
        "wall_clock": wall,
        "speed_median": statistics.median(loop.speed.sorted()),
        "tail_percentile": pct, "tail_samples_beyond": beyond,
        "failed_ratio": failed / loop.attempted,
        "failed_ratio_base": {"failed": failed, "attempted": loop.attempted},
    }
    return metrics, report, loop.attempted, failed, problems, properties


def traced(args, ops):
    """Per-layer metrics: every workload traced, the named one also untraced."""
    imports = []
    for _ in range(SETUP_REPEATS):
        (cli, _, seconds, _), speed = probed(lambda: setup(args.workload))
        imports.append(seconds * speed)
    from painstrata import models, numverify, ratfunc, strata
    pools = {w: (ops if w == args.workload else
                 workloads.build(w, args.seed, args.workdir))
             for w in workloads.WORKLOADS}
    share = args.seconds / (len(pools) + 1)
    prefix = TRACE_PREFIX[args.workload]
    plain = run_loop(cli, ops, share, min_ops=prefix)

    tracer = tracing.Tracer()
    undo = tracing.install(tracer, cli, models, strata, ratfunc, numverify)
    phases, loops = {}, {}
    try:
        for w, pool in pools.items():
            tracer.reset()
            loops[w] = run_loop(cli, pool, share, min_ops=TRACE_PREFIX[w], tracer=tracer)
            units = sum(op.units for op in pool[:TRACE_PREFIX[w]])
            phases[w] = tracing.Phase(tracer.spans, units,
                                      statistics.median(loops[w].speed.sorted()))
    finally:
        tracing.uninstall(undo)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    tracing.write_spans(os.path.join(ROOT, ".perfbench", f"spans-{args.workload}.jsonl"),
                        {w: p.spans for w, p in phases.items()})

    metrics = tracing.layer_metrics(phases)
    metrics["cli.import_ms"] = statistics.median(imports) * 1e3
    (gcd, canon), speed = probed(lambda: cancelling_pairs(pools["exact_ops"], models, ratfunc))
    metrics["ratfunc.poly_gcd_us_p50"] = statistics.median(gcd) * speed * 1e6
    metrics["ratfunc.canonicalise_us_p50"] = statistics.median(canon) * speed * 1e6
    mine = loops[args.workload]
    metrics["trace.overhead_pct"] = 100.0 * (mine.prefix_busy / plain.prefix_busy - 1.0)

    attempted = failed = 0
    problems, properties = [], {}
    for w, pool in pools.items():
        runs = [loops[w]] + ([plain] if w == args.workload else [])
        f, probs, props = check(w, pool, runs)
        attempted += sum(r.attempted for r in runs)
        failed += f
        problems += probs
        properties[w] = props
    report = {"spans": sum(len(p.spans) for p in phases.values()),
              "failed_ratio": failed / attempted,
              "failed_ratio_base": {"failed": failed, "attempted": attempted}}
    return metrics, report, attempted, failed, problems, properties


def cancelling_pairs(pool, models, ratfunc):
    """Times of poly_gcd and of canonicalisation on each candidate's
    numerator y^c*(y-1)*F^k and denominator x*F^k."""
    gcd, canon = [], []
    for op in pool:
        meta = op.meta
        if not meta.get("factor"):
            continue
        f, k = meta["factor"], meta["k"]
        num = models.rf(f"y^{meta['expr_c']}*(y-1)*({f})^{k}", variables=("x", "y")).num
        den = models.rf(f"x*({f})^{k}", variables=("x", "y")).num
        start = perf_counter()
        ratfunc.poly_gcd(num, den)
        middle = perf_counter()
        ratfunc.RationalFunction(num, den)
        gcd.append(middle - start)
        canon.append(perf_counter() - middle)
    return gcd, canon


def profile(args, ops):
    import cProfile
    import pstats
    cli, *_ = setup(args.workload)
    profiler = cProfile.Profile()
    profiler.enable()
    loop = run_loop(cli, ops, args.seconds)
    profiler.disable()
    print(f"{args.workload}: {loop.completed} operations in {loop.elapsed:.2f} s "
          "under cProfile")
    for key in ("tottime", "cumulative"):
        pstats.Stats(profiler).sort_stats(key).print_stats(args.profile)


def run_all(args):
    """Every workload in its own process; prints each metric with its unit."""
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            continue
        *_, report_line, result_line = proc.stdout.strip().splitlines()
        result, report = json.loads(result_line), json.loads(report_line)["report"]
        base = report["failed_ratio_base"]
        print(f"== {workload} (seed {args.seed}): correct={result['correct']} "
              f"failed_ratio={report['failed_ratio']:.4f} "
              f"({base['failed']} of {base['attempted']} failed)")
        samples = report.get("samples", {})
        for name, m in result["metrics"].items():
            label = name
            if name == "op_ms_tail":
                label = f"op_ms_tail (p{report['tail_percentile']:g}, "\
                        f"{report['tail_samples_beyond']} beyond)"
            n = f"  n={samples[name]}" if name in samples else ""
            moves = (f"  moves: {tracing.LAYER_METRICS[name][4]}"
                     if name in tracing.LAYER_METRICS else "")
            print(f"  {label:44s} {m['value']:14.6g} {m['unit']}{n}{moves}")
        print(f"  properties: {json.dumps(report['properties'])}")
        for problem in report["problems"]:
            print(f"  problem: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, metavar="N",
                        help="print the cProfile top-N of the workload instead")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one process each, and print a table")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "painstrata", "cli.py")):
        print(f"no painstrata sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        run_all(args)
        return 0
    if args.workload is None:
        parser.error("--workload is required without --all")
    sys.path.insert(0, SRC)
    e2e_units, layer_units = load_metric_names()
    pin_to_current_cpu()

    args.workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(args.workdir)
    try:
        ops = workloads.build(args.workload, args.seed, args.workdir)
        if args.profile:
            profile(args, ops)
            return 0
        run = traced if args.trace else end_to_end
        metrics, report, attempted, failed, problems, properties = run(args, ops)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    units = layer_units if args.trace else e2e_units
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    report.update(workload=args.workload, seed=args.seed, properties=properties,
                  problems=problems)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
