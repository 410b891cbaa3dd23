"""One fresh process per pass: set-up, then the timed phase of a workload.

Started by run.py with rankmetric's src directory on PYTHONPATH.  Prints
"READY" to stdout once set-up (import rankmetric, build every field the
workload uses) is done, then one JSON line with the pass result.  With
--setup-only it exits after READY.

    python3 perfbench/worker.py --workload scan-odd --seed 1 --pass-id 0 [--trace]
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass-id", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-dir")
    args = p.parse_args()

    t0 = time.perf_counter()
    import mpmath
    import numpy
    import rankmetric
    from rankmetric import bounds, codes, oracle, rankgeom, wenum  # noqa: F401
    import_s = time.perf_counter() - t0

    from tracing import Tracer, layer_metrics
    from workloads import Pass, build_fields, make_jobs

    tracer = Tracer(f"{args.workload}:{args.seed}:{args.pass_id}", args.trace)
    jobs = make_jobs(args.workload, args.seed)
    fields = build_fields(tracer, jobs)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ps = Pass(tracer, args.seed, fields)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for job in jobs:
        job.run(ps)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    result = {
        "wall_s": wall_s,
        "timed_cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "import_s": import_s,
        "ops": ps.ops,
        "inputs": [{"job": job.name, **job.inputs} for job in jobs],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "mpmath": mpmath.__version__,
                     "rankmetric": rankmetric.__version__,
                     "rankmetric_path": str(Path(rankmetric.__file__).parent)},
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer.spans)
        result["layers"]["setup.import_s"] = import_s
        tracer.write(Path(args.spans_dir) / f"spans-{tracer.run_id.replace(':', '-')}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
