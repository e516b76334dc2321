"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-batch --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.  The
last line of standard output is the result object; the line before it
is the run record (seed, input sizes, fast-path mode, versions and the
workload's own figures).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("replay-batch", "replay-feedback", "paper-sweep", "serve-mix")


def _parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _metrics(declared: list, values: Dict[str, float]) -> Dict[str, Any]:
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise RuntimeError(f"undeclared metrics: {sorted(unknown)}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared}


def _write_spans(args: argparse.Namespace, rows: list) -> str:
    """Write the traced run's spans out; returns the path from ROOT.

    Rows are ``[name, start, end, parent row or -1, tag]`` with
    ``time.perf_counter`` seconds (see ``measure.export_spans``).
    """
    rel = os.path.join(".perfbench-run",
                       f"spans-{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.join(ROOT, ".perfbench-run"), exist_ok=True)
    with open(os.path.join(ROOT, rel), "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": rows}, f)
    return rel


def main(argv: list) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = _spec()

    import numpy
    from reference import Reference
    from repro.core.fastpath import resolve_mode

    if args.workload == "paper-sweep":
        import wl_sweep as workload
    elif args.workload == "serve-mix":
        import wl_serve as workload
    else:
        import wl_replay as workload
    with Reference() as reference:
        out = workload.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), SRC, reference)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fastpath_mode": resolve_mode(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fail_ratio": out["failed"] / max(1, out["attempted"]),
        **out["record"],
    }
    if args.trace:
        layer = dict(out["layer"])
        absent = [m["name"] for m in spec["per_layer"] if m["name"] not in layer]
        # Metrics of layers this workload does not compute read zero;
        # the record names them so a zero is not taken for a measurement.
        for name in absent:
            layer[name] = 0.0
        record["not_exercised"] = absent
        record["spans_file"] = _write_spans(args, out["spans"])
        metrics = _metrics(spec["per_layer"], layer)
    else:
        metrics = _metrics(spec["end_to_end"], out["metrics"])
    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
