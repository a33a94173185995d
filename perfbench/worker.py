"""One benchmark process for one workload; run.py starts it fresh each time.

    worker.py setup --workload W --root DIR
        time the import, the field tables and a first warm-up call
    worker.py run   --workload W --root DIR --seed N --seconds S --reference F --threads2 T
        prime, then about S seconds of cycles, each call at threads=1 and at threads=T
    worker.py trace --workload W --root DIR --seed N --seconds S --reference F
        prime, then the same cycles, each threads=1 call untraced and traced

Prints one JSON object on stdout.  Inputs come only from the seed; the
program sees public calls with generated arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

# Untimed calls before measuring, so that allocator growth and first-call
# costs in a fresh process are not charged to the first timed ops.
PRIME_S = 1.0
# Fewest cycles in a timed run, so that each call's median latency rests on
# at least three samples (table1-systematic would otherwise make two).
MIN_CYCLES = 3


def cycle_seed(seed: int, cycle: int) -> int:
    return seed * 1000 + cycle


class Phase:
    """Outcomes of the ops issued at one setting."""

    def __init__(self):
        self.latencies = []  # seconds per successful op
        self.keys = []  # the op key of each latency
        self.items = 0
        self.failures = []
        self.digests = []  # per op: sha256 of its canonical output, None if it failed

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def _issue(op, threads, ph, tracer=None) -> None:
    """Make one public call, time it, check it and record it in ph."""
    try:
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            res, items = op.call(threads)
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
    except Exception as exc:  # any raise is a failed op; the loop goes on
        ph.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
        ph.digests.append(None)
        return
    ph.latencies.append(dt)
    ph.keys.append(op.key)
    ph.items += items
    problem = op.check(res)
    if problem is not None:
        ph.failures.append(f"{op.key}: {problem}")
    ph.digests.append(None if problem else hashlib.sha256(op.canon(res)).hexdigest())


def run_cycles(workload, ref, seed, cycles, max_ops, step) -> None:
    """Feed `cycles` whole cycles of ops to step(op, index), stopping early
    only when max_ops ops were issued."""
    issued = 0
    for cycle in range(cycles):
        for op in workload.ops(ref, cycle_seed(seed, cycle)):
            if max_ops and issued >= max_ops:
                return
            step(op, issued)
            issued += 1


def prime(workload, ref, seed, threads) -> Phase:
    """Issue the first cycle's ops, last first, for PRIME_S seconds."""
    ph = Phase()
    start = time.perf_counter()
    for op in reversed(workload.ops(ref, cycle_seed(seed, 0))):
        _issue(op, threads, ph)
        if time.perf_counter() - start >= PRIME_S:
            break
    return ph


def run_paired(workload, ref, seed, cycles, max_ops, settings):
    """Each op once per setting (threads, tracer), rotating which goes
    first, so every setting samples the same stretch of machine time."""
    phases = [Phase() for _ in settings]

    def step(op, i):
        for k in range(len(settings)):
            j = (i + k) % len(settings)
            _issue(op, settings[j][0], phases[j], tracer=settings[j][1])

    run_cycles(workload, ref, seed, cycles, max_ops, step)
    return phases


def latency_stats(latencies, keys) -> dict:
    """The typical call and the tail.

    p50_ms is the median over the run's distinct calls of each call's own
    median latency.  The workloads mix calls of very different cost: in
    table1-systematic the middle rank of all samples falls a few samples
    above a 40% cost gap between grid rows, so the median of all samples
    (kept as p50_all_ms) moves with single slow or fast calls near that
    edge, while the median of per-call medians rests on the middle calls
    alone.  tail_ms is the highest percentile of all samples with at least
    ten samples beyond it.
    """
    lat = sorted(x * 1e3 for x in latencies)
    n = len(lat)
    if n == 0:  # every op failed; the run is refused anyway
        return {"samples": 0, "calls": 0, "p50_ms": 0.0, "p50_all_ms": 0.0, "tail_ms": 0.0, "tail_percentile": 0.0, "tail_beyond": 0}
    per_call = {}
    for key, x in zip(keys, latencies):
        per_call.setdefault(key, []).append(x * 1e3)
    idx = n - 11 if n > 10 else n - 1
    return {
        "samples": n,
        "calls": len(per_call),
        "p50_ms": statistics.median(statistics.median(v) for v in per_call.values()),
        "p50_all_ms": statistics.median(lat),
        "tail_ms": lat[idx],
        "tail_percentile": 100.0 * (idx + 1) / n,
        "tail_beyond": n - 1 - idx,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--reference")
    ap.add_argument("--threads2", type=int, default=2)
    ap.add_argument("--max-ops", type=int, default=0, help="stop after this many timed ops (smoke mode)")
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(args.root) / "src"))
    import numpy
    import starprod

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    workload.warm_up()
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    out = {"setup_s": setup_s, "numpy": numpy.__version__, "starprod_file": starprod.__file__}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    ref = json.loads(Path(args.reference).read_text())
    # fixed work per run: the same ops, in the same number, on every commit
    cycles = max(MIN_CYCLES, round(args.seconds / workload.cycle_s))
    out["cycles"] = cycles
    primed = Phase() if args.max_ops else prime(workload, ref, args.seed, 1)
    # peak memory at threads=1: set-up and the heaviest calls, before any
    # threads=2 call adds per-thread buffers whose overlap varies run to run
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.mode == "run":
        primed2 = Phase() if args.max_ops else prime(workload, ref, args.seed, args.threads2)
        t1, t2 = run_paired(workload, ref, args.seed, cycles, args.max_ops, [(1, None), (args.threads2, None)])
        phases = {"prime": primed, "prime2": primed2, "t1": t1, "t2": t2}
        out["latency"] = latency_stats(t1.latencies, t1.keys)
        out["items_per_s"] = t1.items / t1.busy_s if t1.busy_s else 0.0
        out["items_per_s_2t"] = t2.items / t2.busy_s if t2.busy_s else 0.0
        mismatch = sum(1 for a, b in zip(t1.digests, t2.digests) if a and b and a != b)
        if mismatch:  # ops that passed their own check at threads=2 but changed output
            t2.failures.extend([f"output at threads={args.threads2} differs from threads=1"] * mismatch)
    else:
        from spans import layer_metrics

        first = len(tracer.spans)
        untraced, traced = run_paired(workload, ref, args.seed, cycles, args.max_ops, [(1, None), (1, tracer)])
        tracer.uninstall()
        phases = {"prime": primed, "untraced": untraced, "traced": traced}
        out["per_layer"] = layer_metrics(tracer.spans, first, traced.busy_s, untraced.busy_s)
        out["spans"] = len(tracer.spans)
    out["phases"] = {
        name: {"ops": len(ph.digests), "items": ph.items, "busy_s": ph.busy_s}
        for name, ph in phases.items()
    }
    out["attempted"] = sum(len(ph.digests) for ph in phases.values())
    failures = [f for ph in phases.values() for f in ph.failures]
    out["failed"] = len(failures)
    out["failures"] = failures[:20]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
