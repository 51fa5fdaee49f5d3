#!/usr/bin/env python3
"""Per-attack benchmark of the KRATT reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload sflt-dip --seed 1 --seconds 56 --trace 0

Runs one workload (see ``workloads.py``) in this process, one attack at
a time, against the package under ``src/``.  ``--seed`` picks every lock
and resynthesis seed; ``--seconds`` sets how many rounds of the workload
run (each round with fresh seeds).  Every key is scored and the output
checked; the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the workload runs with every layer wrapped for half the
seconds, then its netlists are attacked again untraced to measure the
tracing overhead, and the metrics are the per-layer ones.  Lines before the JSON restate
every metric with its unit and sample count, the backends in use, and a
host-speed reading; per-attack records (and spans) go to ``.perfbench/``.

The run re-executes itself once with ``PYTHONHASHSEED`` taken from
``--seed``, so one seed gives one set of inputs and one result.  Exits 2
without a result when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Environment knobs left to the caller: they select backends, which
#: are recorded and checked.  Every other ``REPRO_*`` knob is cleared.
_KEPT_ENV = ("REPRO_NATIVE", "REPRO_NATIVE_SIM", "REPRO_NATIVE_SOLVER",
             "REPRO_NATIVE_CC")


def _configure_env(work_dir):
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        if name not in _KEPT_ENV:
            del os.environ[name]
    os.environ["REPRO_NATIVE_CACHE_DIR"] = os.path.join(OUT_DIR, "native")
    os.environ["REPRO_PREP_STORE_DIR"] = os.path.join(work_dir, "prepstore")
    os.environ["REPRO_TUNE_DIR"] = os.path.join(work_dir, "tune")


def _parse(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _report(metrics, notes):
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:34s} {value:14.6f} {unit:6s} {note}")


def _hash_seed(seed):
    """``PYTHONHASHSEED`` of a run.  The order in which string sets
    iterate changes the key KRATT-OG returns on Gen-Anti-SAT, so it is
    an input like the netlists, and the workload seed picks it too."""
    return str(seed % (1 << 32))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no package at {src}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != _hash_seed(args.seed):
        env = dict(os.environ, PYTHONHASHSEED=_hash_seed(args.seed))
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *argv], env)
    sys.path.insert(0, src)
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        _configure_env(work_dir)
        return _run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, work_dir):
    import runner
    from tracer import Tracer
    from workloads import EXPECTED_BACKENDS, WORKLOADS

    workload = WORKLOADS[args.workload]
    backends = runner.load_backends()
    speed_before = runner.host_speed()
    if args.trace:
        # Traced first, then the same netlists untraced for the overhead:
        # each gets half the run.
        tracer = Tracer()
        run = runner.run_workload(workload, args.seed, args.seconds / 2,
                                  work_dir, tracer=tracer, setup_samples=1)
        untraced = runner.run_workload(workload, args.seed, None, work_dir,
                                       replay=run)
        metrics = runner.layer_metrics(tracer, run, untraced.wall_s)
        metrics.update(runner.attack_outcomes(run))
        records = run.records + untraced.records
    else:
        run = runner.run_workload(workload, args.seed, args.seconds, work_dir)
        metrics = runner.end_to_end_metrics(run)
        records = run.records
    speed_after = runner.host_speed()

    n = len(run.records)
    print(f"perfbench {workload.name} seed={args.seed} "
          f"rounds={len(run.rounds)} attacks={n}")
    print(f"  backends {backends} (expected {EXPECTED_BACKENDS})")
    if backends != EXPECTED_BACKENDS:
        print("  WARNING: backends differ from those recorded for this "
              "workload; timings are not comparable", file=sys.stderr)
        print("  FLAG backend-mismatch")
    print(f"  host_speed_s before={speed_before:.4f} after={speed_after:.4f}")
    for r in run.records:
        print(f"  {r.circuit:7s} {r.technique:10s} {r.attack:8s} "
              f"{r.wall_s:8.3f}s {r.outcome:9s} success={r.success!s:5s} "
              f"{r.cdk}/{r.dk} of {r.total} functional={r.functional} "
              f"q={r.oracle_queries} method={r.method}")
    notes = {"setup_s": f"median of {len(run.setup_samples)} cold set-ups",
             "attack_p50_s": f"median of {n} attacks"}
    if not args.trace:
        _report(runner.attack_outcomes(run), {})
    _report(metrics, notes)
    details = {"workload": workload.name, "seed": args.seed,
               "backends": backends,
               "host_speed_s": [speed_before, speed_after],
               "setup_samples": run.setup_samples,
               "records": [vars(r) for r in records]}
    if args.trace:
        details["spans"] = tracer.spans
        details["counters"] = dict(tracer.counters)
    path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(details, handle)
    result = {
        "correct": all(r.key_ok for r in records),
        "attempted": len(records),
        "failed": sum(r.outcome != "completed" for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
