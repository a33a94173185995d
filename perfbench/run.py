"""The starprod benchmark.

    python3 perfbench/run.py --workload table1-systematic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  Every workload runs in fresh worker
processes (worker.py), so set-up time and peak memory belong to it alone.
With --trace 0 the last stdout line carries the end-to-end metrics named
in BENCHMARK.json, with --trace 1 the per-layer metrics of a separate
traced run.  The line before it records provenance and details.  The exit
code is 0 only when every output passed its check.

--smoke runs every workload for a few ops, prints each result line,
checks that every metric of BENCHMARK.json is emitted with its unit, and
checks that a corrupted reference value fails the gate with a non-zero
exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """No inherited thread setting reaches the program: STARPROD_THREADS is
    unset (threads is always passed explicitly) and BLAS/OpenMP pools are
    pinned to one thread, which is at most nproc."""
    env = {k: v for k, v in os.environ.items() if k not in ("STARPROD_THREADS", "PYTHONPATH")}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode: str, workload: str, extra=()) -> dict:
    cmd = [sys.executable, "-s", str(WORKER), mode, "--workload", workload, "--root", str(ROOT), *extra]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise WorkerError(f"{mode} worker for {workload} timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None  # the checkout may not be a git repository


def load_declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: Path, max_ops: int = 0):
    """Returns (result line, details) for one workload run."""
    threads2 = min(2, nproc())
    provenance = {
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": nproc(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "seconds": seconds,
        "threads": [1] if trace else [1, threads2],
        "thread_env": {k: "1" for k in THREAD_VARS},
        "STARPROD_THREADS": "unset",
    }
    extra = ["--seed", str(seed), "--seconds", str(seconds), "--reference", str(reference), "--max-ops", str(max_ops)]
    if trace:
        out = run_worker("trace", workload, extra)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in out["per_layer"].items()}
        del out["per_layer"]
    else:
        probes = [run_worker("setup", workload)["setup_s"] for _ in range(1 if max_ops else SETUP_PROBES)]
        out = run_worker("run", workload, extra + ["--threads2", str(threads2)])
        values = {
            "items_per_s": out["items_per_s"],
            "items_per_s_2t": out["items_per_s_2t"],
            "op_p50_ms": out["latency"]["p50_ms"],
            "op_tail_ms": out["latency"]["tail_ms"],
            "peak_rss_mb": out["peak_rss_mb"],
            "setup_s": statistics.median(probes),
        }
        units = {m["name"]: m["unit"] for m in load_declared()["end_to_end"]}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        out["setup_probes_s"] = probes
    provenance["numpy"] = out.pop("numpy")
    attempted, failed = out["attempted"], out["failed"]
    out["fail_ratio"] = failed / attempted if attempted else 1.0
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, {"workload": workload, "provenance": provenance, "details": out}


def smoke() -> int:
    """Every declared metric is emitted with its unit, and the gate fails on
    a corrupted reference value."""
    declared = load_declared()
    problems = []
    for name in (w["name"] for w in declared["workloads"]):
        for trace in (False, True):
            result, _ = measure(name, 1, 0.01, trace, REFERENCE, max_ops=2)
            print(json.dumps({"workload": name, "trace": int(trace), **result}))
            want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(got.items())} != declared {sorted(want.items())}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: gate failed on the true reference")
    ref = json.loads(REFERENCE.read_text())
    corruptions = {
        "table1-systematic": lambda r: r["table1"]["rows"][0].update(published_mean=r["table1"]["rows"][0]["published_mean"] + 1),
        "mc-uniform": lambda r: next(iter(r["mc_uniform"].values()))["star_dim"].update(mean="1/3"),
        "enum-exact": lambda r: next(iter(r["enum_exact"].values())).update(value="1/3"),
    }
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name, corrupt in corruptions.items():
            bad = json.loads(json.dumps(ref))
            corrupt(bad)
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(bad))
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", "1", "--seconds", "0.01",
                   "--trace", "0", "--max-ops", "1", "--reference", str(path)]  # fmt: skip
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            if proc.returncode == 0 or last.get("correct") is not False:
                problems.append(f"{name}: corrupted reference passed (exit {proc.returncode}, {last})")
    for p in problems:
        print("SMOKE FAIL:", p, file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    declared = load_declared()
    ap.add_argument("--workload", choices=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=declared["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--reference", type=Path, default=REFERENCE, help=argparse.SUPPRESS)
    ap.add_argument("--max-ops", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (ROOT / "src" / "starprod" / "__init__.py").is_file():
        print(f"no starprod sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.reference, args.max_ops)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 3
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
