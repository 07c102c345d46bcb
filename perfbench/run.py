"""One seeded benchmark over the USP search path, HTTP serving and durable ingest.

    python3 perfbench/run.py --workload serve-http --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md``): ``serve-http`` and
``ingest-mixed``, the two that ``BENCHMARK.json`` gates, and
``usp-search``, which runs the same way but is not gated: its timings
move by up to 1.6x with the host's load.  The benchmark generates every
input from ``--seed`` with numpy alone, checks every answer against its
own exact search, and hands the program only arrays.

``--trace 0`` runs one workload with all tracing off and reports the
end-to-end metrics.  ``--trace 1`` is the per-layer ledger: it runs all
three workloads with spans around each call into a layer (and server
tracing on), so every per-layer metric comes from the workload that
exercises that layer, and writes the spans to ``.bench_work/`` once,
at the end.

Human-readable lines start with ``#``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit status: 0 on success, 1 when an answer is wrong,
2 when the program's source tree (``src/repro``) is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

# One BLAS thread per process, set before numpy loads and inherited by the
# server process.  OpenBLAS's default (one spinning thread per core) puts
# 2-4 busy threads per process on a 2-core host, and calls from the shard
# pool's threads then contend for them: reads ran ~30 % slower and their
# spread across runs about doubled.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def _host_record(args) -> dict:
    """The machine and toolchain a result was measured on."""
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _blas_threads(np):
    """OpenBLAS's thread count, asked of the library numpy loaded, if found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(lib, name, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def _steal_s() -> float:
    """CPU time the hypervisor gave to other guests so far (all CPUs), or nan."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(spec_metrics, values, tally) -> dict:
    """The result line: every metric the contract names, with its unit."""
    metrics = {}
    for metric in spec_metrics:
        value = float(values[metric["name"]])
        if not math.isfinite(value):
            raise RuntimeError(f"metric {metric['name']} is not finite: {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": True, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: program source not found at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"benchmark: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    import ingest_mixed
    import serve_http
    import usp_search

    workloads = {"usp-search": usp_search, "serve-http": serve_http, "ingest-mixed": ingest_mixed}
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {sorted(workloads)}")
    spec = _spec()
    print("# host " + json.dumps(_host_record(args)))

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    ctx = harness.Context(
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        src=SRC,
        work=WORK / run_id,
        spans=harness.Spans(run_id) if args.trace else None,
    )
    ctx.work.mkdir(parents=True, exist_ok=True)
    tally = harness.Tally()
    steal_start = _steal_s()
    values = {}
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    try:
        for name in list(workloads) if args.trace else [args.workload]:
            workload = workloads[name]
            outcome = workload.trace(ctx) if args.trace else workload.measure(ctx)
            tally.add(outcome.tally)
            for metric, (value, unit) in outcome.report.items():
                print(f"# {name} {metric} = {value:.6g} {unit}")
            for metric, value in outcome.metrics.items():
                print(f"# {name} end-to-end {metric} = {value:.6g} {units[metric]}")
            values.update(
                {metric: value for metric, (value, _) in outcome.report.items()}
                if args.trace
                else outcome.metrics
            )
    except harness.WrongAnswer as exc:
        print(f"# WRONG ANSWER: {exc}")
        print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1), "failed": tally.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    print(f"# host steal_s = {_steal_s() - steal_start:.2f} s (CPU time taken by other guests during the run)")
    if ctx.spans is not None:
        ctx.spans.write(WORK / f"{run_id}.spans.jsonl")
        for span_name, seconds in sorted(ctx.spans.self_seconds().items(), key=lambda kv: -kv[1]):
            print(f"# self-time {span_name} {seconds:.4f} s")
    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps(_result(spec_metrics, values, tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
