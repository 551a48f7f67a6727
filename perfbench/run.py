"""Benchmark of record: end-to-end and per-layer metrics of MARIOH.

Usage::

    python3 perfbench/run.py --workload eu-x30 --seed 0 --seconds 15 --trace 0

``--workload`` is one of ``eu-x30``, ``chain-100k``, ``chain-sharded``,
``serve-window`` or ``all``.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it runs untraced ops for half
the time and traced ops for the other half and prints the per-layer
metrics plus ``trace.overhead_ratio``.  Each metric is printed with its
unit and sample count, followed by the run environment, and the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every op succeeded and every check passed.

Workloads and metrics are described in ``perfbench/catalog.py``.  Run
records and span dumps go to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"


def prepare_environment() -> None:
    """One BLAS thread, a cold run on numpy kernels, temp files in OUT.

    Runs before numpy is imported; the daemon inherits the same
    environment.  Default OpenBLAS threads spin on the MLP's tiny
    matmuls, and ``REPRO_STORE`` would turn set-up into store hits.
    """
    for name in THREAD_VARS:
        os.environ[name] = "1"
    # One CPU for this process and the daemon it starts, so the speed
    # probes run on the vCPU whose speed they correct for.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for name in ("REPRO_STORE", "REPRO_KERNELS"):
        os.environ.pop(name, None)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def git_commit():
    """The checkout's commit, read from ``.git`` (None outside git)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": git_commit(),
    }


def parse_args(argv):
    import argparse

    from perfbench import catalog

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*catalog.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS,
                        help="summed time of the timed ops per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(run) -> dict:
    return {
        "correct": run.correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.correct else max(run.failed, 1),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in run.metrics.items()},
    }


def report(name: str, args, run, env: dict, out: Path) -> dict:
    """Print one workload's table and record it under ``out``."""
    import json

    print(f"== {name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    for metric, (value, unit, samples) in run.metrics.items():
        print(f"  {metric:40s} {value:14.6g} {unit:6s} n={samples}")
    for metric, value in run.raw.items():
        print(f"  {metric + ' (raw wall clock)':40s} {value:14.6g}")
    print(f"  attempted={run.attempted} failed={run.failed} "
          f"correct={str(run.correct).lower()}")
    for error in run.errors:
        print(f"  error: {error}")
    result = result_line(run)
    record = dict(result, workload=name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, environment=env,
                  samples={m: s for m, (_, _, s) in run.metrics.items()},
                  raw_wall_clock=run.raw, errors=run.errors,
                  digest=run.notes.get("digest"),
                  op_seconds=run.notes.get("op_seconds"))
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if "spans" in run.notes:
        run.notes["spans"].dump(out / f"{stem}-spans.json")
    return result


def main(argv=None, scale=None, out: Path = OUT) -> int:
    import json

    import repro  # noqa: F401 - fail before printing anything without it

    from perfbench import catalog, workloads

    args = parse_args(argv)
    scale = scale or workloads.FULL
    env = environment()
    names = catalog.WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            run = workloads.run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), out, scale)
        except Exception as exc:  # noqa: BLE001 - reported as a failed run
            run = workloads.Run()
            run.fail(f"{type(exc).__name__}: {exc}")
        results[name] = report(name, args, run, env, out)
    print("environment " + json.dumps(env, sort_keys=True))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": entry
                        for name, result in results.items()
                        for metric, entry in result["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    prepare_environment()
    sys.exit(main())
