"""Benchmark for coxmap: one closed-loop client feeding seeded map documents.

Run from the repository root:

    python3 coxbench/run.py --workload complete-ladder --seed 1 --seconds 15 --trace 0

The client is a single process with a single thread that sends the next
document only after the verdict on the previous one, as a mathematician
running ``coxmap check / complete / verify-ideal / construct / eval`` would.
Documents come from ``docgen`` and are decoded by coxmap's own JSON codec;
every verdict is compared with the answer known by construction.

With ``--trace 0`` the run reports the end-to-end metrics of an untraced
timed loop.  With ``--trace 1`` it runs a fixed list of documents in
passes that alternate between untraced and under the per-layer tracer, and
reports the layer metrics per pass, the tracing overhead and a kernel
calibration.  Times are scaled to a reference host speed measured between
operations (see ``speed.py``); the raw times are reported too.

The last line of standard output is the result object; the line before it
records the environment, the sample counts and the raw times.  The exit
code is 1 when any verdict is wrong and 2 when coxmap cannot be imported
from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import docgen
import kernelcal
import layertrace
from speed import NOMINAL_S, WINDOW, Speed

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("complete-ladder", "pullback-ideal", "radical-oracle", "enumeration-blowup")

DEADLINE_S = 5.0  # per operation; the slowest seed-code operation takes about 0.4 s
MIN_SAMPLES = 100  # so that at least ten samples lie beyond p90
SETUP_REPEATS = 3
TRACE_CYCLES = {  # rounds of the document mix in one pass of a traced run
    "complete-ladder": 1,
    "pullback-ideal": 2,
    "radical-oracle": 4,
    "enumeration-blowup": 4,
}
TRACE_PASSES = 3  # untraced and traced passes alternate, to cancel drift
WAITING = "none: the library is single-threaded and has no queues, so no layer waits"

# which end-to-end metric each layer should move, and on which workload
PREDICTIONS = {
    "abelian": "latency_p50_ms on complete-ladder; no change on pullback-ideal",
    "fan": "ops_per_s on complete-ladder; StarFan.support_contains.calls is 0 on pullback-ideal",
    "kernel": "ops_per_s and latency_p90_ms on pullback-ideal; little change on radical-oracle",
    "coxring": "cpu_ms_per_op on complete-ladder and pullback-ideal",
    "sections": "latency_p50_ms on radical-oracle and pullback-ideal; no change on complete-ladder",
    "descriptions": "failed ratio and latency_p90_ms on enumeration-blowup; "
                    "latency_p50_ms on complete-ladder",
    "oracle": "failed ratio on enumeration-blowup; latency_p90_ms on radical-oracle",
    "cli": "setup_s and cpu_ms_per_op on every workload",
}


def import_coxmap():
    """Import coxmap from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import coxmap
    except ImportError as exc:
        return None, "cannot import coxmap from %s: %s" % (src, exc)
    if Path(coxmap.__file__).resolve().parent.parent != src.resolve():
        return None, "coxmap was imported from %s, not from %s" % (coxmap.__file__, src)
    return coxmap, None


class DeadlineMiss(Exception):
    pass


@contextmanager
def deadline(seconds: float):
    def fire(signum, frame):
        raise DeadlineMiss("operation exceeded %.3g s" % seconds)

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def clear_caches():
    """Empty coxmap's module-level caches, so that repeated passes start
    from the same state."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "coxmap" or name.startswith("coxmap.")):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


class Tally:
    """Counts operations; a failure is an exception, a wrong verdict or a
    missed deadline."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.missed = 0
        self.errors: list[str] = []

    def attempt(self, op, check, doc, answer):
        """Run one operation under its deadline; returns (wall s, cpu s)."""
        self.attempted += 1
        problem = None
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            with deadline(DEADLINE_S):
                outcome = op(doc)
        except DeadlineMiss as exc:
            self.missed += 1
            problem = str(exc)
        except Exception:  # one bad document must not stop the run
            problem = traceback.format_exc(limit=-3).strip().splitlines()[-1]
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        if problem is None:
            problem = check(outcome, answer)
            if problem is not None:
                self.wrong += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("%s: %s" % (answer_label(answer), problem))
        return wall, cpu


def answer_label(answer) -> str:
    for key in ("map", "degree", "pairs", "kind"):
        if key in answer:
            return "%s=%s" % (key, answer[key])
    return "document"


def attempt_all(docs, tally: Tally, op, check, speed: Speed, stop=None):
    """Attempt documents in turn, probing the host's speed before, between
    and after them; ``stop(raw walls)`` may end the list early.  Returns
    the raw and the reference-speed wall and CPU time of each operation."""
    raw_wall, raw_cpu = [], []
    speed.sample()
    for doc, answer in docs:
        if stop is not None and stop(raw_wall):
            break
        wall, cpu = tally.attempt(op, check, doc, answer)
        speed.sample()
        raw_wall.append(wall)
        raw_cpu.append(cpu)
    for _ in range(WINDOW - 1):
        speed.sample()
    base = len(speed.samples) - len(raw_wall) - WINDOW
    scales = [speed.scale(base + i) for i in range(len(raw_wall))]
    wall = [t * k for t, k in zip(raw_wall, scales)]
    cpu = [t * k for t, k in zip(raw_cpu, scales)]
    return raw_wall, raw_cpu, wall, cpu


def set_up(workload: str, seed: int, tally: Tally, speed: Speed):
    """Document generation, fan and ring construction (inside decoding) and
    a warm-up pass over one round of documents kept apart from the timed
    ones; returns its raw duration and that duration scaled like the
    warm-up operations it consists of."""
    import pipeline

    start = time.perf_counter()
    clear_caches()
    op, check = pipeline.OPERATIONS[workload]
    docs = [docgen.document(workload, seed, "warmup", i) for i in range(docgen.CYCLES[workload])]
    raw_wall, _, wall, _ = attempt_all(docs, tally, op, check, speed)
    raw = time.perf_counter() - start
    return raw, raw * sum(wall) / sum(raw_wall)


def percentile(ordered, q: float):
    """Nearest-rank percentile of sorted samples, and how many lie above."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def timed_docs(workload: str, seed: int):
    index = 0
    while True:
        yield docgen.document(workload, seed, "timed", index)
        index += 1


def end_to_end(workload, seed, seconds, tally, info):
    """Whole rounds of the document mix until ``seconds`` of operation time
    and MIN_SAMPLES operations are reached."""
    import pipeline

    speed = Speed()
    setups = [set_up(workload, seed, tally, speed) for _ in range(SETUP_REPEATS)]
    setup_raw = info["import_s"] + statistics.median(raw for raw, _ in setups)
    setup = (info["import_s"] * NOMINAL_S / statistics.median(speed.samples)
             + statistics.median(scaled for _, scaled in setups))
    op, check = pipeline.OPERATIONS[workload]
    cycle = docgen.CYCLES[workload]

    def stop(walls):
        return len(walls) % cycle == 0 and sum(walls) >= seconds and len(walls) >= MIN_SAMPLES

    failed_before = tally.failed
    raw_wall, raw_cpu, wall, cpu = attempt_all(
        timed_docs(workload, seed), tally, op, check, speed, stop
    )
    correct = len(wall) - (tally.failed - failed_before)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def summary(walls, cpus, setup_s):
        ordered = sorted(walls)
        return {
            "ops_per_s": correct / sum(walls),
            "latency_p50_ms": percentile(ordered, 0.5)[0] * 1e3,
            "latency_p90_ms": percentile(ordered, 0.9)[0] * 1e3,
            "cpu_ms_per_op": sum(cpus) / len(cpus) * 1e3,
            "setup_s": setup_s,
        }

    scaled = summary(wall, cpu, setup)
    info["raw"] = summary(raw_wall, raw_cpu, setup_raw)
    info["probe_ms"] = {"median": speed.median_ms(), "reference": NOMINAL_S * 1e3}
    info["samples"] = {"latency_p50_ms": len(wall), "latency_p90_ms": len(wall),
                       "beyond_p90": percentile(sorted(wall), 0.9)[1], "setup_s": SETUP_REPEATS}
    info["timed_failed_ratio"] = (len(wall) - correct) / len(wall)
    units = {"ops_per_s": "1/s", "setup_s": "s"}
    metrics = {name: (value, units.get(name, "ms")) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    return metrics


def per_layer(workload, seed, tally, info):
    import pipeline

    op, check = pipeline.OPERATIONS[workload]
    speed = Speed()
    set_up(workload, seed, tally, speed)
    count = TRACE_CYCLES[workload] * docgen.CYCLES[workload]
    docs = [docgen.document(workload, seed, "timed", i) for i in range(count)]

    def one_pass():
        clear_caches()
        return sum(attempt_all(docs, tally, op, check, speed)[2])

    tracer = layertrace.Tracer()
    untraced, traced = [], []
    for _ in range(TRACE_PASSES):
        untraced.append(one_pass())
        with tracer:
            traced.append(one_pass())
    totals = tracer.metrics()
    metrics = {
        name: (totals[name] / TRACE_PASSES, unit) for name, unit in layertrace.metric_names()
    }
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    calibration, problems = kernelcal.calibrate(seed)
    for name, unit in kernelcal.metric_names():
        metrics[name] = (calibration[name], unit)
    for problem in problems:
        tally.attempted += 1
        tally.failed += 1
        tally.wrong += 1
        tally.errors.append(problem)
    info["samples"] = {"documents_per_pass": count, "passes": TRACE_PASSES}
    info["waiting"] = WAITING
    info["predictions"] = PREDICTIONS
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    coxmap, error = import_coxmap()
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    import pipeline  # noqa: F401  (imports the coxmap modules it drives)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "kernel_backend": coxmap.kernel_backend,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "client": "closed loop, 1 client, 1 thread",
        "deadline_s": DEADLINE_S,
        "import_s": time.perf_counter() - start,
    }
    tally = Tally()
    if args.trace:
        metrics = per_layer(args.workload, args.seed, tally, info)
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, tally, info)
    info["failed_ratio"] = tally.failed / tally.attempted
    info["deadline_misses"] = tally.missed
    info["errors"] = tally.errors
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
