"""rankmetric benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload scan-gf2 --seed 1 --seconds 20 --trace 0

Run from the root of a rankmetric checkout.  Each pass of the workload runs
in a fresh single-threaded worker process (perfbench/worker.py), as a CLI
user pays for it; passes repeat until --seconds would be exceeded, with at
least MIN_PASSES of them.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
(medians over passes) with --trace 0, the per-layer metrics of one traced
pass with --trace 1.  A full record with the config echo goes to
perfbench/out/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("tables", "scan-gf2", "scan-odd", "search")  # keys of workloads.WORKLOADS
MIN_PASSES = 3
MIN_SETUPS = 7        # set-up samples per run; extra set-up-only processes fill up
HARD_LIMIT_S = 170    # a run never outlives this, whatever --seconds says
DEV_SEED, HELD_OUT_SEED = 1, 7919

# Ops that fail on the seed commit; they stay in the workloads at their
# natural sizes and count in `failed`.  Any other failed op makes the run
# incorrect.  See README.md, "Known baseline failures".
KNOWN_FAILURES = {
    "scan-gf2": {"gabidulin(2,10,8,2).distribution"},
    "search": {"decision(2,4,2,1,K=7)"},
}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # write no bytecode caches: the run leaves nothing outside perfbench/out
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("RANKMETRIC_WORKERS", None)
    return env


def run_child(args, deadline, *, trace=False, setup_only=False, pass_id=0):
    """One worker process.  Returns (setup_s, cpu_s, lifetime_s, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--pass-id", str(pass_id),
           "--spans-dir", str(OUT)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        wait = max(0.0, deadline - time.perf_counter())
        if not select.select([proc.stdout], [], [], wait)[0]:
            raise subprocess.TimeoutExpired(cmd, wait)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker exceeded the {HARD_LIMIT_S} s run limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lifetime_s = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    result = None if setup_only else json.loads(out.strip().splitlines()[-1])
    return setup_s, cpu_s, lifetime_s, result


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def config_echo(args, first):
    nproc = len(os.sched_getaffinity(0))
    return {
        "workload": args.workload, "seed": args.seed,
        "seed_role": {DEV_SEED: "development", HELD_OUT_SEED: "held-out"}.get(args.seed, "other"),
        "seconds": args.seconds, "trace": args.trace,
        "inputs": first["inputs"], "git_commit": git_commit(),
        "versions": first["versions"], "nproc": nproc,
        "timing_note": f"timings from a machine with {nproc} CPUs, one worker process at a time",
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "rankmetric" / "__init__.py").is_file():
        print(f"no rankmetric sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    try:
        passes = []
        # another pass only while its expected lifetime still fits in --seconds
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - start
               + statistics.median(p[2] for p in passes) <= args.seconds):
            traced = bool(args.trace) and not passes
            passes.append(run_child(args, deadline, trace=traced, pass_id=len(passes)))
        setups = [p[0] for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(run_child(args, deadline, setup_only=True)[0])
    except BenchError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    results = [p[3] for p in passes]
    ops = [op for r in results for op in r["ops"]]
    unexpected = ({name for name, ok, _ in ops if not ok}
                  - KNOWN_FAILURES.get(args.workload, set()))
    same_inputs = all(r["inputs"] == results[0]["inputs"] for r in results)
    failed = sum(not ok for _, ok, _ in ops)

    if args.trace:
        layers = dict(results[0]["layers"])
        layers["trace.overhead_s"] = (results[0]["wall_s"]
                                      - statistics.median(r["wall_s"] for r in results[1:]))
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(layers.items())}
    else:
        metrics = {
            "wall_s": {"value": statistics.median([r["wall_s"] for r in results]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cpu_s": {"value": statistics.median([p[1] for p in passes]), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median([r["peak_rss_mb"] for r in results]),
                            "unit": "MB"},
            "pass_ratio": {"value": 1 - failed / len(ops), "unit": "ratio"},
        }
    summary = {"correct": not unexpected and same_inputs, "attempted": len(ops),
               "failed": failed, "metrics": metrics}

    record = {
        "config": config_echo(args, results[0]),
        "passes": [{"setup_s": s, "cpu_s": c, "lifetime_s": life,
                    "wall_s": r["wall_s"], "timed_cpu_s": r["timed_cpu_s"],
                    "peak_rss_mb": r["peak_rss_mb"], "traced": "layers" in r}
                   for s, c, life, r in passes],
        "setup_samples_s": setups,
        "failed_ops": {name: detail for name, ok, detail in ops if not ok},
        "unexpected_failures": sorted(unexpected),
        "inputs_repeat": same_inputs,
        "result": summary,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"config": record["config"]}))
    for name, detail in record["failed_ops"].items():
        tag = "known" if name not in unexpected else "UNEXPECTED"
        print(f"# failed op ({tag}): {name}: {detail[:300]}")
    print(json.dumps(summary))
    return 0


def unit_of(name):
    if "_per_s" in name:
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
